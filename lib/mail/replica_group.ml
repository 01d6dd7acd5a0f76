(* Replicated mailbox groups: every user's mailbox lives on an ordered
   authority chain of holders, and this module owns all the holders of
   one system plus the cross-holder copy bookkeeping that keeps
   replication invisible to the ledger invariant (no lost mail, no
   duplicate into an inbox).

   The moving parts:

   - [write]: one copy onto one holder, deduplicated per (holder, id)
     and refused outright once the id was retrieved anywhere
     ([Superseded]) — a late replicate must never resurrect a message
     the user already has.
   - [fetch]: drain one holder for one user.  Every message served is
     marked retrieved group-wide; its copies on *live* other chain
     members are purged immediately, copies on *down* members stay
     recorded and are purged when the holder rejoins
     ([note_recovery] resync).  Serving from a non-primary holder
     while the primary is down is the deterministic failover the
     tentpole asks for — counted and traced.
   - [note_recovery]: holder rejoins — bump its LastStartTime and
     purge every copy it holds whose id was retrieved during the
     outage. *)

type write_status = Stored | Duplicate | Superseded

type copy_state = {
  owner_uid : int;  (* interned recipient id — the storage key *)
  mutable nodes : Netsim.Graph.node list;  (* holders with an unfetched copy *)
}

type t = {
  mailbox_policy : Mailbox.policy;
  holders : (Netsim.Graph.node, Server.t) Hashtbl.t;
  chain_of : int -> Netsim.Graph.node list;  (* by interned user id *)
  is_up : Netsim.Graph.node -> bool;
  copies : (Message.id, copy_state) Hashtbl.t;
  retrieved : (Message.id, unit) Hashtbl.t;
  resync_queue : (Netsim.Graph.node, Message.id list ref) Hashtbl.t;
      (* per down-holder, ids retrieved elsewhere while it was out —
         queued at fetch time so a recovery resync walks its own stale
         set instead of scanning the whole copy table. *)
  counters : Dsim.Stats.Counter.t;
  ledger : Ledger.t option;
  tracer : Telemetry.Tracer.t option;
  mutable gauge_chains : Netsim.Graph.node list list option;
      (* distinct non-empty authority chains, memoised on the first
         publish_gauges call — chain membership is fixed for the run
         (failover changes who serves, not who belongs), and the
         per-window sampler calls publish_gauges ~100 times per run. *)
  latency : (Telemetry.Registry.histogram * Telemetry.Registry.histogram) option;
      (* (delivery, end-to-end) registry histograms, fed at deposit /
         fetch time — observing each latency the moment it becomes
         known is what keeps per-window metric sampling cheap (no
         rescan of the message list per window). *)
}

let create ?(mailbox_policy = Mailbox.Delete_on_retrieve) ?ledger ?tracer ?metrics
    ~counters ~chain_of ~is_up () =
  {
    mailbox_policy;
    holders = Hashtbl.create 16;
    chain_of;
    is_up;
    copies = Hashtbl.create 256;
    retrieved = Hashtbl.create 256;
    resync_queue = Hashtbl.create 16;
    counters;
    ledger;
    tracer;
    gauge_chains = None;
    latency =
      (* Registered eagerly so the metric names exist (and stay
         comparable across designs) even before any mail flows. *)
      Option.map
        (fun reg ->
          ( Telemetry.Registry.histogram ~lo:0. ~hi:500. ~buckets:50 reg
              "delivery_latency",
            Telemetry.Registry.histogram ~lo:0. ~hi:2000. ~buckets:50 reg
              "end_to_end_latency" ))
        metrics;
  }

(* Push a message's latencies into the registry histograms exactly
   once each (guarded by [Message.latency_observed]); a latency never
   changes once set, so event-time observation equals a full rebuild
   from the message list at a fraction of the sampling cost. *)
let observe_latencies t m =
  match t.latency with
  | None -> ()
  | Some (delivery, e2e) ->
      (match Message.delivery_latency m with
      | Some l when m.Message.latency_observed land 1 = 0 ->
          m.Message.latency_observed <- m.Message.latency_observed lor 1;
          Telemetry.Registry.observe delivery l
      | _ -> ());
      (match Message.end_to_end_latency m with
      | Some l when m.Message.latency_observed land 2 = 0 ->
          m.Message.latency_observed <- m.Message.latency_observed lor 2;
          Telemetry.Registry.observe e2e l
      | _ -> ())

let count ?by t key = Dsim.Stats.Counter.incr ?by t.counters key

let add_holder t ~node ~region =
  if Hashtbl.mem t.holders node then
    invalid_arg (Printf.sprintf "Replica_group.add_holder: node %d already added" node);
  Hashtbl.replace t.holders node
    (Server.create ~mailbox_policy:t.mailbox_policy ~node ~region ())

let holder t node =
  match Hashtbl.find_opt t.holders node with
  | Some s -> s
  | None ->
      invalid_arg (Printf.sprintf "Replica_group: node %d is not a mailbox holder" node)

let mem_holder t node = Hashtbl.mem t.holders node

let nodes t =
  Hashtbl.fold (fun node _ acc -> node :: acc) t.holders [] |> List.sort Int.compare

let region t node = Server.region (holder t node)
let last_start t node = Server.last_start (holder t node)
let chain t uid = t.chain_of uid

let quorum_of chain = (List.length chain / 2) + 1

(* [List.mem] on node lists, specialised to ints so the hot membership
   checks skip the polymorphic comparator. *)
let rec mem_node (x : int) = function
  | [] -> false
  | y :: tl -> y = x || mem_node x tl

let write t ~on msg ~at =
  let id = msg.Message.id in
  if Hashtbl.mem t.retrieved id then Superseded
  else begin
    let c =
      match Hashtbl.find_opt t.copies id with
      | Some c -> c
      | None ->
          let c = { owner_uid = msg.Message.recipient_uid; nodes = [] } in
          Hashtbl.replace t.copies id c;
          c
    in
    if mem_node on c.nodes then Duplicate
    else begin
      Server.store (holder t on) msg ~at;
      observe_latencies t msg;
      c.nodes <- on :: c.nodes;
      Option.iter (fun l -> Ledger.record_deposit l msg ~at) t.ledger;
      count t "replica_copy_writes";
      Stored
    end
  end

let copies t id =
  match Hashtbl.find_opt t.copies id with
  | None -> []
  | Some c -> List.sort Int.compare c.nodes

let no_copies t id = not (Hashtbl.mem t.copies id)

(* Drop the copy of [id] held on [node] without serving it.  [kind]
   names the counter: purge-on-fetch vs recovery resync. *)
let purge_copy t ~kind ~node (c : copy_state) id =
  let dropped = Server.purge (holder t node) ~uid:c.owner_uid id in
  if dropped > 0 then begin
    Option.iter (fun l -> Ledger.record_purge l id ~at:0.) t.ledger;
    count ~by:dropped t kind
  end;
  c.nodes <- List.filter (fun n -> n <> node) c.nodes;
  if c.nodes = [] then Hashtbl.remove t.copies id

let fetch t ~on ~uid name ~at =
  let msgs = Server.take (holder t on) ~uid ~at in
  List.iter (observe_latencies t) msgs;
  (* Failover observability: mail served by a lower-priority chain
     member while the user's primary is down. *)
  (match t.chain_of uid with
  | primary :: _ when primary <> on && (not (t.is_up primary)) && msgs <> [] ->
      count t "replica_failovers";
      (match t.tracer with
      | Some tracer when Telemetry.Tracer.sampled tracer uid ->
          ignore
            (Telemetry.Tracer.span tracer ~name:"getmail.failover" ~start:at
               ~finish:at
               ~attrs:
                 [
                   ("user", Naming.Name.to_string name);
                   ("served_by", string_of_int on);
                   ("primary", string_of_int primary);
                   ("retrieved", string_of_int (List.length msgs));
                 ]
               ())
      | Some _ | None -> ())
  | _ -> ());
  List.iter
    (fun (m : Message.t) ->
      Hashtbl.replace t.retrieved m.Message.id ();
      match Hashtbl.find_opt t.copies m.Message.id with
      | None -> ()
      | Some c ->
          c.nodes <- List.filter (fun n -> n <> on) c.nodes;
          (* Purge live chain members now; down members keep their
             recorded copy until [note_recovery] resyncs them. *)
          let live = List.filter t.is_up c.nodes |> List.sort Int.compare in
          List.iter
            (fun node -> purge_copy t ~kind:"replica_purges" ~node c m.Message.id)
            live;
          if c.nodes = [] then Hashtbl.remove t.copies m.Message.id
          else
            (* Whatever survives the live purge is held by down chain
               members: queue the id so their recovery resync finds it
               without scanning the copy table. *)
            List.iter
              (fun node ->
                let q =
                  match Hashtbl.find_opt t.resync_queue node with
                  | Some q -> q
                  | None ->
                      let q = ref [] in
                      Hashtbl.add t.resync_queue node q;
                      q
                in
                q := m.Message.id :: !q)
              c.nodes)
    msgs;
  msgs

let note_recovery t ~node ~at =
  Server.note_recovery (holder t node) ~at;
  (* Resync: every copy this holder kept through the outage whose id
     was retrieved elsewhere in the meantime is now stale — purge.
     The stale set was queued per holder at retrieve time; membership
     is re-checked here because a fetch, compact or an earlier
     recovery may have already cleared an entry. *)
  match Hashtbl.find_opt t.resync_queue node with
  | None -> ()
  | Some q ->
      Hashtbl.remove t.resync_queue node;
      List.iter
        (fun id ->
          match Hashtbl.find_opt t.copies id with
          | Some c when Hashtbl.mem t.retrieved id && mem_node node c.nodes ->
              purge_copy t ~kind:"replica_resyncs" ~node c id
          | _ -> ())
        (List.sort_uniq Int.compare !q)

let view t =
  {
    User_agent.is_alive = t.is_up;
    last_start = (fun node -> last_start t node);
    fetch = (fun node ~uid name ~at -> fetch t ~on:node ~uid name ~at);
  }

let total_pending t =
  List.fold_left (fun acc node -> acc + Server.total_pending (holder t node)) 0 (nodes t)

let storage_bytes t =
  List.fold_left (fun acc node -> acc + Server.storage_bytes (holder t node)) 0 (nodes t)

(* Chain-health gauges the per-window monitors read.  Chains are
   shared across users, so health is computed once per distinct chain
   (memoised on the node list); a chain is Degraded when at least one
   holder is down but service survives, Down when every holder is. *)
let publish_gauges t ~users reg =
  let distinct =
    match t.gauge_chains with
    | Some chains -> chains
    | None ->
        (* [users] is a thunk so later windows never materialise the
           (possibly million-entry) user list again. *)
        let seen = Hashtbl.create 16 in
        let chains =
          List.filter_map
            (fun user ->
              let chain = t.chain_of user in
              if chain <> [] && not (Hashtbl.mem seen chain) then begin
                Hashtbl.replace seen chain ();
                Some chain
              end
              else None)
            (users ())
        in
        t.gauge_chains <- Some chains;
        chains
  in
  let chains = ref 0 and degraded = ref 0 and down = ref 0 in
  let health_sum = ref 0. in
  List.iter
    (fun chain ->
      let total = List.length chain in
      let up = List.length (List.filter t.is_up chain) in
      incr chains;
      health_sum := !health_sum +. (float_of_int up /. float_of_int total);
      if up = 0 then incr down
      else if up < total then incr degraded)
    distinct;
  let holders_up =
    Hashtbl.fold
      (fun node _ acc -> if t.is_up node then acc + 1 else acc)
      t.holders 0
  in
  let set name v =
    Telemetry.Registry.set_gauge (Telemetry.Registry.gauge reg name) v
  in
  set "replica_holders_up" (float_of_int holders_up);
  set "replica_chains_degraded" (float_of_int !degraded);
  set "replica_chains_down" (float_of_int !down);
  set "chain_health"
    (if !chains = 0 then 1. else !health_sum /. float_of_int !chains)

let cleanup_all t ~now ~max_age =
  List.fold_left
    (fun acc node -> acc + Server.cleanup (holder t node) ~now ~max_age)
    0 (nodes t)

let tracked_ids t = Hashtbl.length t.retrieved + Hashtbl.length t.copies

let compact t keep_out =
  let doomed =
    Hashtbl.fold (fun id () acc -> if keep_out id then id :: acc else acc) t.retrieved []
    |> List.sort Int.compare
  in
  List.iter (Hashtbl.remove t.retrieved) doomed;
  List.length doomed
