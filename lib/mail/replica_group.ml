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
  mutable holders : Server.t option array;  (* indexed by node id *)
  chain_of : int -> Netsim.Graph.node list;  (* by interned user id *)
  is_up : Netsim.Graph.node -> bool;
  copies : copy_state Dsim.Id_table.t;  (* by message id *)
  retrieved : unit Dsim.Id_table.t;  (* by message id *)
  mutable unfetched : int array;
      (* by interned user id: unfetched copies summed over every
         holder, kept in step with each [Server.store]/[take]/[purge]
         so an empty poll is answered without probing the holder. *)
  resync_queue : Message.id list ref Dsim.Id_table.t;
      (* per down-holder, ids retrieved elsewhere while it was out —
         queued at fetch time so a recovery resync walks its own stale
         set instead of scanning the whole copy table. *)
  c_copy_writes : int ref;
  c_purges : int ref;
  c_resyncs : int ref;
  c_failovers : int ref;
      (* counter handles resolved once in [create]
         ({!Dsim.Stats.Counter.cell}): a bump is an int-ref update, not
         a string hash per copy write, purge or failover *)
  ledger : Ledger.t option;
  tracer : Telemetry.Tracer.t option;
  mutable agent_view : User_agent.server_view option;
      (* built on the first [view] call and shared by every check *)
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
    holders = [||];
    chain_of;
    is_up;
    copies = Dsim.Id_table.create 256;
    retrieved = Dsim.Id_table.create 256;
    unfetched = [||];
    resync_queue = Dsim.Id_table.create 16;
    c_copy_writes = Dsim.Stats.Counter.cell counters "replica_copy_writes";
    c_purges = Dsim.Stats.Counter.cell counters "replica_purges";
    c_resyncs = Dsim.Stats.Counter.cell counters "replica_resyncs";
    c_failovers = Dsim.Stats.Counter.cell counters "replica_failovers";
    ledger;
    tracer;
    agent_view = None;
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

let find_holder t node =
  if node >= 0 && node < Array.length t.holders then t.holders.(node) else None

let add_holder t ~node ~region =
  if node < 0 then
    invalid_arg (Printf.sprintf "Replica_group.add_holder: negative node %d" node);
  if Option.is_some (find_holder t node) then
    invalid_arg (Printf.sprintf "Replica_group.add_holder: node %d already added" node);
  let n = Array.length t.holders in
  if node >= n then begin
    let grown = Array.make (max (2 * n) (node + 1)) None in
    Array.blit t.holders 0 grown 0 n;
    t.holders <- grown
  end;
  t.holders.(node) <-
    Some (Server.create ~mailbox_policy:t.mailbox_policy ~node ~region ())

let holder t node =
  match find_holder t node with
  | Some s -> s
  | None ->
      invalid_arg (Printf.sprintf "Replica_group: node %d is not a mailbox holder" node)

let mem_holder t node = Option.is_some (find_holder t node)

(* Holders in ascending node order, by walking the array. *)
let fold_holders f t init =
  let acc = ref init in
  Array.iteri
    (fun node h -> match h with Some s -> acc := f node s !acc | None -> ())
    t.holders;
  !acc

let nodes t = List.rev (fold_holders (fun node _ acc -> node :: acc) t [])

let region t node = Server.region (holder t node)
let last_start t node = Server.last_start (holder t node)
let chain t uid = t.chain_of uid

let quorum_of chain = (List.length chain / 2) + 1

(* [List.mem] on node lists, specialised to ints so the hot membership
   checks skip the polymorphic comparator. *)
let rec mem_node (x : int) = function
  | [] -> false
  | y :: tl -> y = x || mem_node x tl

let unfetched t ~uid =
  if uid >= 0 && uid < Array.length t.unfetched then t.unfetched.(uid) else 0

let grow_unfetched t uid =
  let len = Array.length t.unfetched in
  let grown = Array.make (max (2 * len) (uid + 1)) 0 in
  Array.blit t.unfetched 0 grown 0 len;
  t.unfetched <- grown

let add_unfetched t uid n =
  if uid >= Array.length t.unfetched then grow_unfetched t uid;
  t.unfetched.(uid) <- t.unfetched.(uid) + n

let write t ~on msg ~at =
  let id = msg.Message.id in
  if Dsim.Id_table.mem t.retrieved id then Superseded
  else begin
    let c =
      match Dsim.Id_table.find_opt t.copies id with
      | Some c -> c
      | None ->
          let c = { owner_uid = msg.Message.recipient_uid; nodes = [] } in
          Dsim.Id_table.replace t.copies id c;
          c
    in
    if mem_node on c.nodes then Duplicate
    else begin
      Server.store (holder t on) msg ~at;
      add_unfetched t msg.Message.recipient_uid 1;
      observe_latencies t msg;
      c.nodes <- on :: c.nodes;
      Option.iter (fun l -> Ledger.record_deposit l msg ~at) t.ledger;
      incr t.c_copy_writes;
      Stored
    end
  end

let copies t id =
  match Dsim.Id_table.find_opt t.copies id with
  | None -> []
  | Some c -> List.sort Int.compare c.nodes

let no_copies t id = not (Dsim.Id_table.mem t.copies id)

(* Drop the copy of [id] held on [node] without serving it, adding the
   copies dropped to [counter]: purge-on-fetch or recovery resync. *)
let purge_copy t ~counter ~node ~at (c : copy_state) id =
  let dropped = Server.purge (holder t node) ~uid:c.owner_uid id in
  if dropped > 0 then begin
    add_unfetched t c.owner_uid (-dropped);
    Option.iter (fun l -> Ledger.record_purge l id ~at) t.ledger;
    counter := !counter + dropped
  end;
  c.nodes <- List.filter (fun n -> n <> node) c.nodes;
  if c.nodes = [] then Dsim.Id_table.remove t.copies id

(* Book-keeping for the mail one poll served: latencies, failover,
   and the group-wide retrieved mark and purge. *)
let serve t ~on ~uid name ~at msgs =
  List.iter (observe_latencies t) msgs;
  (* Failover observability: mail served by a lower-priority chain
     member while the user's primary is down. *)
  (match t.chain_of uid with
  | primary :: _ when primary <> on && not (t.is_up primary) ->
      incr t.c_failovers;
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
      Dsim.Id_table.replace t.retrieved m.Message.id ();
      match Dsim.Id_table.find_opt t.copies m.Message.id with
      | None -> ()
      | Some c ->
          c.nodes <- List.filter (fun n -> n <> on) c.nodes;
          (* Purge live chain members now; down members keep their
             recorded copy until [note_recovery] resyncs them. *)
          let live = List.filter t.is_up c.nodes |> List.sort Int.compare in
          List.iter
            (fun node -> purge_copy t ~counter:t.c_purges ~node ~at c m.Message.id)
            live;
          if c.nodes = [] then Dsim.Id_table.remove t.copies m.Message.id
          else
            (* Whatever survives the live purge is held by down chain
               members: queue the id so their recovery resync finds it
               without scanning the copy table. *)
            List.iter
              (fun node ->
                let q =
                  match Dsim.Id_table.find_opt t.resync_queue node with
                  | Some q -> q
                  | None ->
                      let q = ref [] in
                      Dsim.Id_table.add t.resync_queue node q;
                      q
                in
                q := m.Message.id :: !q)
              c.nodes)
    msgs;
  msgs

(* An empty poll — most polls — returns at once: a user with no
   unfetched copy on any holder is answered from [unfetched] after the
   holder check, with no mailbox probe, no chain lookup and no closure.
   A non-zero count still probes the polled holder, which may hold
   none of the copies.  Skipping [chain_of] on an empty answer changes
   nothing: every design's [authority_of_uid] hook only reads state.
   The one write behind [chain_of] is [Core]'s [redirects] count for a
   uid renamed away, which only a stale agent of a migrated user could
   poll with, and a poll that served nothing followed no redirect. *)
let fetch t ~on ~uid name ~at =
  let h = holder t on in
  if unfetched t ~uid = 0 then []
  else
    match Server.take h ~uid ~at with
    | [] -> []
    | msgs ->
        t.unfetched.(uid) <- t.unfetched.(uid) - List.length msgs;
        serve t ~on ~uid name ~at msgs

let note_recovery t ~node ~at =
  Server.note_recovery (holder t node) ~at;
  (* Resync: every copy this holder kept through the outage whose id
     was retrieved elsewhere in the meantime is now stale — purge.
     The stale set was queued per holder at retrieve time; membership
     is re-checked here because a fetch, compact or an earlier
     recovery may have already cleared an entry. *)
  match Dsim.Id_table.find_opt t.resync_queue node with
  | None -> ()
  | Some q ->
      Dsim.Id_table.remove t.resync_queue node;
      List.iter
        (fun id ->
          match Dsim.Id_table.find_opt t.copies id with
          | Some c when Dsim.Id_table.mem t.retrieved id && mem_node node c.nodes ->
              purge_copy t ~counter:t.c_resyncs ~node ~at c id
          | _ -> ())
        (List.sort_uniq Int.compare !q)

let view t =
  match t.agent_view with
  | Some v -> v
  | None ->
      let v =
        {
          User_agent.is_alive = t.is_up;
          last_start = (fun node -> last_start t node);
          fetch = (fun node ~uid name ~at -> fetch t ~on:node ~uid name ~at);
        }
      in
      t.agent_view <- Some v;
      v

let total_pending t = fold_holders (fun _ s acc -> acc + Server.total_pending s) t 0
let storage_bytes t = fold_holders (fun _ s acc -> acc + Server.storage_bytes s) t 0

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
    fold_holders (fun node _ acc -> if t.is_up node then acc + 1 else acc) t 0
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
  fold_holders (fun _ s acc -> acc + Server.cleanup s ~now ~max_age) t 0

let compact t keep_out =
  let doomed =
    Dsim.Id_table.fold
      (fun id () acc -> if keep_out id then id :: acc else acc)
      t.retrieved []
    |> List.sort Int.compare
  in
  List.iter (Dsim.Id_table.remove t.retrieved) doomed;
  List.length doomed
