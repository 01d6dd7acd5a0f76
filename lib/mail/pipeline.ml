type 'ctrl wire =
  | Submit of Message.t
  | Forward of Message.t
  | Deposit of Message.t
  | Replicate of Message.t
  | Replicated of Message.id
  | Ack of Message.id
  | Notify of Naming.Name.t * Message.id
  | Ctrl of 'ctrl

type config = {
  retry_timeout : float;
  resubmit_timeout : float;
  max_retries : int;
  replicate_timeout : float;
  max_replicate_rounds : int;
  service_rate : float option;
  service_seed : int;
}

let default_pipeline_config =
  {
    retry_timeout = 50.;
    resubmit_timeout = 400.;
    max_retries = 50;
    replicate_timeout = 25.;
    max_replicate_rounds = 3;
    service_rate = None;
    service_seed = 0;
  }

(* Counter handles resolved once at wiring time ({!Dsim.Stats.Counter.cell}):
   the dominant tallies bump raw int refs instead of hashing a string
   per event.  Rare outcomes keep the stringly [count]. *)
type cells = {
  c_submitted : int ref;
  c_submits_received : int ref;
  c_submit_attempts : int ref;
  c_submit_attempt_failures : int ref;
  c_submit_deferred : int ref;
  c_resubmissions : int ref;
  c_retries : int ref;
  c_deposits : int ref;
  c_replicate_sends : int ref;
  c_quorum_acks : int ref;
  c_degraded_acks : int ref;
  c_cache_hits : int ref;
  c_notifications : int ref;
}

type 'ctrl callbacks = {
  region_servers : string -> Netsim.Graph.node list;
  uid_of : Naming.Name.t -> int;
      (* intern a recipient name; messages cache the id so the hot
         path resolves each name at most once *)
  name_of_uid : int -> Naming.Name.t;
  canonical_uid : int -> int;  (* follow redirects, by interned id *)
  authority_of_uid : int -> Netsim.Graph.node list;
  notify_target_uid : int -> Netsim.Graph.node option;
  submit_servers : User_agent.t -> Netsim.Graph.node list;
  cached_authority :
    at:Netsim.Graph.node -> Naming.Name.t -> Netsim.Graph.node list option;
  on_forward_resolved :
    at:Netsim.Graph.node -> Naming.Name.t -> Netsim.Graph.node list -> unit;
  on_undeliverable : Message.t -> reason:string -> unit;
  on_redirected : Message.t -> old_name:Naming.Name.t -> unit;
  on_ctrl :
    Netsim.Graph.node -> time:float -> src:Netsim.Graph.node -> 'ctrl -> unit;
}

(* A message a server must push onward until the next hop acknowledges
   receipt.  Pending state survives holder crashes (queued mail is on
   disk); retries wait for the holder to come back up. *)
type pending = {
  p_msg : Message.t;
  holder : Netsim.Graph.node;
  mutable attempts : int;
  mutable acked : bool;
}

(* Who is waiting for this deposit's acknowledgement: the local
   deposit path (a pending on the coordinator itself) or an upstream
   server that sent a [Deposit] over the wire. *)
type upstream = Local | Remote of Netsim.Graph.node

(* One quorum-replication round: the coordinator wrote its local copy
   and fans [Replicate] out to the rest of the recipient's chain; the
   upstream ack is withheld until [needed] chain members hold the copy
   (quorum) or the round budget runs out (degraded). *)
type round = {
  r_msg : Message.t;
  coordinator : Netsim.Graph.node;
  chain : Netsim.Graph.node list;
  needed : int;
  mutable stored : Netsim.Graph.node list;  (* chain members holding a copy *)
  mutable upstreams : upstream list;
  mutable rounds_left : int;
  started : float;
  mutable finished : bool;
}

(* FIFO work queue of one server under the Exp(mu) service model. *)
type srv_queue = {
  mutable busy : bool;
  jobs : (float * Message.t option * (unit -> unit)) Queue.t;
      (* arrival time, message being processed (for tracing), work *)
  mutable busy_total : float;
  mutable served : int;
}

type 'ctrl t = {
  config : config;
  engine : Dsim.Engine.t;
  net : 'ctrl wire Netsim.Net.t;
  storage : Replica_group.t;
  callbacks : 'ctrl callbacks;
  counters : Dsim.Stats.Counter.t;
  cells : cells;
  (* Timer categories interned once at wiring time; the per-event
     schedule calls then touch no strings. *)
  cat_retry : Dsim.Engine.category;
  cat_replicate : Dsim.Engine.category;
  cat_submit : Dsim.Engine.category;
  cat_resubmit : Dsim.Engine.category;
  cat_service : Dsim.Engine.category;
  trace : Dsim.Trace.t;
  n : int;  (* node count: (node, id) dedup keys pack into id * n + node *)
  pendings : (int, pending) Hashtbl.t;
  rounds : (int, round) Hashtbl.t;
      (* open replication rounds, keyed by coordinator *)
  completed : (int, unit) Hashtbl.t;
      (* finished rounds: a retransmitted Deposit is re-acked instantly *)
  dead : (Message.id, unit) Hashtbl.t;
      (* declared undeliverable: no further resubmissions *)
  submit_timers : (Message.id, unit) Hashtbl.t;
      (* messages with an armed submit-driver timer: at most one each *)
  in_work : (Message.id, int ref) Hashtbl.t;
      (* copies sitting in a service queue between wire receipt and
         phase execution — the window where a message is owned by
         neither a pending nor a timer (see [compact]) *)
  ledger : Ledger.t option;
  service_rng : Dsim.Rng.t;
  queues : (Netsim.Graph.node, srv_queue) Hashtbl.t;
  queue_waits : Dsim.Stats.Summary.t;
  queue_wait_hist : Telemetry.Registry.histogram option;
  tracer : Telemetry.Tracer.t option;
  submit_spans : (Message.id, unit) Hashtbl.t;
      (* messages whose "submit" span was already emitted *)
  hop_sends : (int, string * Netsim.Graph.node * float) Hashtbl.t;
      (* in-flight Forward/Deposit hops: span name, source, send time *)
  fences : (Message.id, float) Hashtbl.t;
      (* per id, the latest scheduled arrival time of any in-flight
         wire message carrying the full Message.t.  Until that time
         the id must not be compacted: a late Submit/Forward/Deposit/
         Replicate arriving after the dedup state (completed rounds,
         the replica group's retrieved set, the agents' seen sets) was
         pruned would re-open deposit machinery and resurrect an
         already-retrieved message as a fresh copy — a duplicate. *)
}

let net t = t.net

(* Pack a (node, message-id) pair into one int: ids are dense and
   [node < n], so [id * n + node] is collision-free and the dedup
   tables hash an immediate instead of a boxed tuple. *)
let nkey t node id = (id * t.n) + node
let id_of_nkey t k = k / t.n

(* The message's interned recipient id, resolved through the system at
   most once and cached on the message itself. *)
let ruid t (msg : Message.t) =
  let u = msg.Message.recipient_uid in
  if u >= 0 then u
  else begin
    let u = t.callbacks.uid_of msg.Message.recipient in
    msg.Message.recipient_uid <- u;
    u
  end

let queue_wait_stats t = t.queue_waits

let srv_queue t node =
  match Hashtbl.find_opt t.queues node with
  | Some q -> q
  | None ->
      let q = { busy = false; jobs = Queue.create (); busy_total = 0.; served = 0 } in
      Hashtbl.replace t.queues node q;
      q

let server_utilisation t node =
  match Hashtbl.find_opt t.queues node with
  | None -> 0.
  | Some q ->
      let elapsed = Dsim.Engine.now t.engine in
      if elapsed <= 0. then 0. else q.busy_total /. elapsed

let node_label t node = Netsim.Graph.label (Netsim.Net.graph t.net) node

(* Emit a span into [msg]'s trace as a child of its root span — a
   no-op when tracing is off or the message never went through
   [submit] (so has no root to hang off). *)
let emit_span t msg ~name ~start ~finish attrs =
  match (t.tracer, Message.span msg) with
  | Some tracer, Some root ->
      ignore
        (Telemetry.Tracer.span tracer ~parent:root ~attrs ~finish ~name ~start ())
  | _ -> ()

(* Run [work] through the node's FIFO service queue (or immediately
   when the service model is off). *)
let through_queue t node ?msg work =
  let queue_wait_span m ~arrived ~started =
    emit_span t m ~name:"queue_wait" ~start:arrived ~finish:started
      [ ("server", node_label t node) ]
  in
  match t.config.service_rate with
  | None ->
      (* Service is free, but a zero-length wait span keeps trace
         trees the same shape with or without the service model. *)
      let at = Dsim.Engine.now t.engine in
      Option.iter (fun m -> queue_wait_span m ~arrived:at ~started:at) msg;
      work ()
  | Some rate ->
      let q = srv_queue t node in
      Queue.add (Dsim.Engine.now t.engine, msg, work) q.jobs;
      let rec serve_next () =
        match Queue.take_opt q.jobs with
        | None -> q.busy <- false
        | Some (arrived, m, job) ->
            q.busy <- true;
            let started = Dsim.Engine.now t.engine in
            let wait = started -. arrived in
            Dsim.Stats.Summary.add t.queue_waits wait;
            Option.iter (fun h -> Telemetry.Registry.observe h wait) t.queue_wait_hist;
            Option.iter (fun m -> queue_wait_span m ~arrived ~started) m;
            let service = Dsim.Rng.exponential t.service_rng rate in
            q.busy_total <- q.busy_total +. service;
            ignore
              (Dsim.Engine.schedule_after_cat t.engine t.cat_service service
                 (fun () ->
                   job ();
                   q.served <- q.served + 1;
                   serve_next ()))
      in
      if not q.busy then serve_next ()

let count ?by t key = Dsim.Stats.Counter.incr ?by t.counters key

let now t = Dsim.Engine.now t.engine

let log t fmt = Dsim.Trace.infof t.trace ~time:(now t) ~category:"pipeline" fmt

let first_active t nodes = List.find_opt (fun s -> Netsim.Net.is_up t.net s) nodes

let is_dead t id = Hashtbl.mem t.dead id

(* Send a wire message that carries the full Message.t (Submit,
   Forward, Deposit, Replicate) and fence its id against compaction
   until the scheduled arrival has passed — see the [fences] field. *)
let send_fenced ?bytes t ~src ~dst wire (id : Message.id) =
  match Netsim.Net.send_timed ?bytes t.net ~src ~dst wire with
  | None -> false
  | Some latency ->
      let until = now t +. latency in
      (match Hashtbl.find_opt t.fences id with
      | Some f when f >= until -> ()
      | _ -> Hashtbl.replace t.fences id until);
      true

(* Remember an in-flight server→server hop so the receiving node can
   close the transit span; each (destination, message) keeps only the
   latest send — a retry supersedes the lost original. *)
let record_hop t msg ~name ~src ~dst =
  if Option.is_some t.tracer && Option.is_some (Message.span msg) then
    Hashtbl.replace t.hop_sends (nkey t dst msg.Message.id) (name, src, now t)

let emit_hop t node ~time m =
  match Hashtbl.find_opt t.hop_sends (nkey t node m.Message.id) with
  | Some (name, src, sent) ->
      Hashtbl.remove t.hop_sends (nkey t node m.Message.id);
      emit_span t m ~name ~start:sent ~finish:time
        [ ("src", node_label t src); ("dst", node_label t node) ]
  | None -> ()

let declare_dead t msg ~reason =
  if not (Hashtbl.mem t.dead msg.Message.id) then begin
    Hashtbl.replace t.dead msg.Message.id ();
    (match Message.span msg with
    | Some root ->
        Telemetry.Span.set_attr root "outcome" reason;
        Telemetry.Span.finish root ~at:(now t)
    | None -> ());
    Option.iter (fun l -> Ledger.record_undeliverable l msg ~reason ~at:(now t)) t.ledger;
    t.callbacks.on_undeliverable msg ~reason
  end

let arm_retry t (p : pending) step =
  (* One handler closure per pending, allocated here and reused by
     every re-arm: the steady-state retry tick — the dominant timer
     kind under faults — schedules into the event arena without
     boxing a fresh closure per round. *)
  let rec handler () =
    if not p.acked then
      if not (Netsim.Net.is_up t.net p.holder) then
        (* Pending state survives holder crashes — queued mail is
           on disk — so a down holder must not burn the retry
           budget toward "retries exhausted": just wait for the
           holder to come back. *)
        fire ()
      else if p.attempts < t.config.max_retries then begin
        p.attempts <- p.attempts + 1;
        incr t.cells.c_retries;
        step ();
        fire ()
      end
      else begin
        count t "gave_up";
        Hashtbl.remove t.pendings (nkey t p.holder p.p_msg.Message.id);
        declare_dead t p.p_msg ~reason:"retries exhausted"
      end
  and fire () =
    ignore
      (Dsim.Engine.schedule_after_cat t.engine t.cat_retry t.config.retry_timeout
         handler)
  in
  fire ()

let pending_for t ~holder msg step =
  let key = nkey t holder msg.Message.id in
  match Hashtbl.find_opt t.pendings key with
  | Some p -> p.acked <- false
  | None ->
      let p = { p_msg = msg; holder; attempts = 0; acked = false } in
      Hashtbl.replace t.pendings key p;
      arm_retry t p step

let ack_pending t ~holder id =
  match Hashtbl.find_opt t.pendings (nkey t holder id) with
  | Some p ->
      p.acked <- true;
      Hashtbl.remove t.pendings (nkey t holder id)
  | None -> ()

(* Acknowledge one deposit upstream: clear the coordinator's own
   pending (local path) or send a wire Ack to the server that pushed
   the Deposit. *)
let ack_upstream t ~on ~upstream id =
  match upstream with
  | Local -> ack_pending t ~holder:on id
  | Remote src -> ignore (Netsim.Net.send t.net ~src:on ~dst:src (Ack id))

let send_replicates t (r : round) =
  List.iter
    (fun node ->
      if
        node <> r.coordinator
        && (not (List.mem node r.stored))
        && Netsim.Net.is_up t.net node
      then begin
        incr t.cells.c_replicate_sends;
        ignore
          (send_fenced ~bytes:(Message.size_bytes r.r_msg) t ~src:r.coordinator
             ~dst:node (Replicate r.r_msg) r.r_msg.Message.id)
      end)
    r.chain

let finish_round t (r : round) ~degraded =
  if not r.finished then begin
    r.finished <- true;
    let id = r.r_msg.Message.id in
    Hashtbl.remove t.rounds (nkey t r.coordinator id);
    Hashtbl.replace t.completed (nkey t r.coordinator id) ();
    incr (if degraded then t.cells.c_degraded_acks else t.cells.c_quorum_acks);
    Option.iter (fun l -> Ledger.record_ack l r.r_msg ~degraded ~at:(now t)) t.ledger;
    emit_span t r.r_msg ~name:"deposit.replicate" ~start:r.started ~finish:(now t)
      [
        ("server", node_label t r.coordinator);
        ("ack", if degraded then "degraded" else "quorum");
        ("copies", string_of_int (List.length r.stored));
        ("chain", string_of_int (List.length r.chain));
      ];
    (match t.callbacks.notify_target_uid (ruid t r.r_msg) with
    | Some host ->
        ignore
          (Netsim.Net.send t.net ~src:r.coordinator ~dst:host
             (Notify (r.r_msg.Message.recipient, id)))
    | None -> ());
    List.iter (fun up -> ack_upstream t ~on:r.coordinator ~upstream:up id) r.upstreams
  end

let arm_round_timer t (r : round) =
  (* Like [arm_retry]: one reusable handler per replication round. *)
  let rec handler () =
    if not r.finished then
      if r.rounds_left <= 0 then finish_round t r ~degraded:true
      else begin
        r.rounds_left <- r.rounds_left - 1;
        send_replicates t r;
        fire ()
      end
  and fire () =
    ignore
      (Dsim.Engine.schedule_after_cat t.engine t.cat_replicate
         t.config.replicate_timeout handler)
  in
  fire ()

(* Quorum deposit (the tentpole): the coordinator — the first active
   server of the recipient's chain — writes its local copy, then the
   upstream acknowledgement is withheld until a write quorum of the
   chain holds the copy, or the bounded replicate-round budget runs
   out (degraded ack: at least the coordinator's copy is on disk, so
   mail is never lost, only under-replicated). *)
let do_deposit t ~on ~upstream msg =
  let key = nkey t on msg.Message.id in
  if Hashtbl.mem t.completed key then ack_upstream t ~on ~upstream msg.Message.id
  else
    match Hashtbl.find_opt t.rounds key with
    | Some r ->
        if not (List.mem upstream r.upstreams) then
          r.upstreams <- upstream :: r.upstreams
    | None ->
        let cuid = t.callbacks.canonical_uid (ruid t msg) in
        let chain = t.callbacks.authority_of_uid cuid in
        let chain = if List.mem on chain then chain else on :: chain in
        (match Replica_group.write t.storage ~on msg ~at:(now t) with
        | Replica_group.Stored ->
            incr t.cells.c_deposits;
            emit_span t msg ~name:"deposit" ~start:(now t) ~finish:(now t)
              [ ("server", node_label t on) ]
        | Replica_group.Duplicate | Replica_group.Superseded -> ());
        let r =
          {
            r_msg = msg;
            coordinator = on;
            chain;
            needed = Replica_group.quorum_of chain;
            stored = [ on ];
            upstreams = [ upstream ];
            rounds_left = t.config.max_replicate_rounds;
            started = now t;
            finished = false;
          }
        in
        Hashtbl.replace t.rounds key r;
        if List.length r.stored >= r.needed then finish_round t r ~degraded:false
        else begin
          send_replicates t r;
          arm_round_timer t r
        end

(* Phase 3 (§3.1.2c): deposit into the first active server of a given
   authority list. *)
let rec deposit_with t ~at_server msg authority =
  match first_active t authority with
  | None ->
      count t "deposit_stalled";
      count t "replica_unavailable_acks";
      pending_for t ~holder:at_server msg (fun () -> deposit_phase t ~at_server msg)
  | Some target when target = at_server ->
      pending_for t ~holder:at_server msg (fun () -> deposit_phase t ~at_server msg);
      do_deposit t ~on:at_server ~upstream:Local msg
  | Some target ->
      pending_for t ~holder:at_server msg (fun () -> deposit_phase t ~at_server msg);
      msg.Message.forward_hops <- msg.Message.forward_hops + 1;
      record_hop t msg ~name:"deposit.hop" ~src:at_server ~dst:target;
      ignore
        (send_fenced ~bytes:(Message.size_bytes msg) t ~src:at_server ~dst:target
           (Deposit msg) msg.Message.id)

and deposit_phase t ~at_server msg =
  let uid = ruid t msg in
  let cuid = t.callbacks.canonical_uid uid in
  if cuid <> uid then begin
    let old_name = msg.Message.recipient in
    msg.Message.recipient <- t.callbacks.name_of_uid cuid;
    msg.Message.recipient_uid <- cuid;
    t.callbacks.on_redirected msg ~old_name
  end;
  deposit_with t ~at_server msg (t.callbacks.authority_of_uid cuid)

(* Phase 2 (§3.1.2b): resolution and forwarding toward the
   recipient's region, short-circuited by the resolution cache. *)
let rec resolve_phase t ~at_server msg =
  let cuid = t.callbacks.canonical_uid (ruid t msg) in
  let recipient =
    if cuid = msg.Message.recipient_uid then msg.Message.recipient
    else t.callbacks.name_of_uid cuid
  in
  if
    String.equal (Naming.Name.region recipient)
      (Replica_group.region t.storage at_server)
  then
    deposit_phase t ~at_server msg
  else begin
    match t.callbacks.cached_authority ~at:at_server recipient with
    | Some authority when List.exists (fun s -> Netsim.Net.is_up t.net s) authority ->
        (* A cached resolution lets this server deposit directly,
           skipping the forwarding hop.  Retries re-enter
           [resolve_phase], so a stale entry degrades to a forward. *)
        incr t.cells.c_cache_hits;
        (match first_active t authority with
        | Some target when target <> at_server ->
            pending_for t ~holder:at_server msg (fun () ->
                resolve_phase t ~at_server msg);
            msg.Message.forward_hops <- msg.Message.forward_hops + 1;
            record_hop t msg ~name:"deposit.hop" ~src:at_server ~dst:target;
            ignore
              (send_fenced ~bytes:(Message.size_bytes msg) t ~src:at_server
                 ~dst:target (Deposit msg) msg.Message.id)
        | Some target ->
            ignore target;
            pending_for t ~holder:at_server msg (fun () ->
                resolve_phase t ~at_server msg);
            do_deposit t ~on:at_server ~upstream:Local msg
        | None -> assert false)
    | _ -> (
        let target_region = Naming.Name.region recipient in
        match t.callbacks.region_servers target_region with
        | [] ->
            count t "unresolvable";
            log t "cannot resolve %s: unknown region %s"
              (Naming.Name.to_string recipient)
              target_region;
            declare_dead t msg ~reason:"unknown region"
        | nodes -> (
            match first_active t nodes with
            | None ->
                count t "forward_stalled";
                pending_for t ~holder:at_server msg (fun () ->
                    resolve_phase t ~at_server msg)
            | Some target ->
                t.callbacks.on_forward_resolved ~at:at_server recipient
                  (t.callbacks.authority_of_uid cuid);
                pending_for t ~holder:at_server msg (fun () ->
                    resolve_phase t ~at_server msg);
                msg.Message.forward_hops <- msg.Message.forward_hops + 1;
                record_hop t msg ~name:"forward.hop" ~src:at_server ~dst:target;
                ignore
                  (send_fenced ~bytes:(Message.size_bytes msg) t ~src:at_server
                     ~dst:target (Forward msg) msg.Message.id)))
  end

(* A copy parked in a service queue is owned by neither a pending nor
   a timer; track it so [compact] never prunes dedup state out from
   under it. *)
let begin_work t (m : Message.t) =
  match Hashtbl.find_opt t.in_work m.Message.id with
  | Some r -> incr r
  | None -> Hashtbl.replace t.in_work m.Message.id (ref 1)

let end_work t (m : Message.t) =
  match Hashtbl.find_opt t.in_work m.Message.id with
  | Some r ->
      decr r;
      if !r <= 0 then Hashtbl.remove t.in_work m.Message.id
  | None -> ()

let handle_wire t node ~time ~src msg =
  match msg with
  | Submit m ->
      incr t.cells.c_submits_received;
      if not (Hashtbl.mem t.submit_spans m.Message.id) then begin
        Hashtbl.replace t.submit_spans m.Message.id ();
        (* Connection setup: submission at the sender's host until the
           first server accepts the message. *)
        emit_span t m ~name:"submit" ~start:m.Message.submitted_at ~finish:time
          [ ("server", node_label t node) ]
      end;
      begin_work t m;
      through_queue t node ~msg:m (fun () ->
          end_work t m;
          resolve_phase t ~at_server:node m)
  | Forward m ->
      ignore (Netsim.Net.send t.net ~src:node ~dst:src (Ack m.Message.id));
      emit_hop t node ~time m;
      begin_work t m;
      through_queue t node ~msg:m (fun () ->
          end_work t m;
          deposit_phase t ~at_server:node m)
  | Deposit m ->
      (* No immediate ack: the upstream's pending is cleared only once
         this coordinator's replication round reaches quorum (or
         degrades) — [finish_round] sends the Ack. *)
      emit_hop t node ~time m;
      begin_work t m;
      through_queue t node ~msg:m (fun () ->
          end_work t m;
          do_deposit t ~on:node ~upstream:(Remote src) m)
  | Replicate m ->
      (* A replica write from a coordinator.  Always confirm — a
         Duplicate or Superseded copy still means this node (or the
         delivery invariant) already accounts for the id, which is all
         the quorum needs to know. *)
      (match Replica_group.write t.storage ~on:node m ~at:time with
      | Replica_group.Stored | Replica_group.Duplicate | Replica_group.Superseded
        ->
          ());
      ignore (Netsim.Net.send t.net ~src:node ~dst:src (Replicated m.Message.id))
  | Replicated id -> (
      match Hashtbl.find_opt t.rounds (nkey t node id) with
      | Some r when not r.finished ->
          if not (List.mem src r.stored) then begin
            r.stored <- src :: r.stored;
            if List.length r.stored >= r.needed then finish_round t r ~degraded:false
          end
      | _ -> ())
  | Ack id -> ack_pending t ~holder:node id
  | Notify _ -> incr t.cells.c_notifications
  | Ctrl c -> t.callbacks.on_ctrl node ~time ~src c

(* Connection setup (§3.1.2a): try servers in the agent's order;
   resubmission is the end-to-end safety net.  Exactly one driver
   timer is armed per undeposited message — [try_submit] used to arm
   both a deferral and a resubmission timer on every invocation, so
   each round doubled the live timers (and the submit counters with
   them) for the whole length of an outage. *)
let rec try_submit t msg sender_agent =
  if (not (Message.is_deposited msg)) && not (is_dead t msg.Message.id) then begin
    let rec attempt = function
      | [] ->
          (* No server reachable right now: defer the whole attempt. *)
          incr t.cells.c_submit_deferred;
          arm_submit_timer t msg sender_agent ~delay:t.config.retry_timeout
            ~resubmission:false
      | s :: rest ->
          incr t.cells.c_submit_attempts;
          if
            Netsim.Net.is_up t.net s
            && send_fenced ~bytes:(Message.size_bytes msg) t
                 ~src:(User_agent.host sender_agent) ~dst:s (Submit msg)
                 msg.Message.id
          then
            (* Accepted for transmission: arm the end-to-end safety
               net in case the submission is lost downstream. *)
            arm_submit_timer t msg sender_agent ~delay:t.config.resubmit_timeout
              ~resubmission:true
          else begin
            (* Server down, or unreachable through downed relays. *)
            incr t.cells.c_submit_attempt_failures;
            attempt rest
          end
    in
    attempt (t.callbacks.submit_servers sender_agent)
  end

and arm_submit_timer t msg sender_agent ~delay ~resubmission =
  let id = msg.Message.id in
  if not (Hashtbl.mem t.submit_timers id) then begin
    Hashtbl.replace t.submit_timers id ();
    let category = if resubmission then t.cat_resubmit else t.cat_submit in
    ignore
      (Dsim.Engine.schedule_after_cat t.engine category delay (fun () ->
           Hashtbl.remove t.submit_timers id;
           if (not (Message.is_deposited msg)) && not (is_dead t id) then begin
             if resubmission then incr t.cells.c_resubmissions;
             try_submit t msg sender_agent
           end))
  end

let submit t ~sender_agent ~msg =
  (match t.tracer with
  | Some tracer
    when Message.span msg = None && Telemetry.Tracer.sampled tracer msg.Message.id ->
      Message.set_span msg
        (Telemetry.Tracer.span tracer ~name:"message"
           ~start:msg.Message.submitted_at
           ~attrs:
             [
               ("id", string_of_int msg.Message.id);
               ("sender", Naming.Name.to_string msg.Message.sender);
               ("recipient", Naming.Name.to_string msg.Message.recipient);
             ]
           ())
  | _ -> ());
  incr t.cells.c_submitted;
  ignore (ruid t msg);
  Option.iter (fun l -> Ledger.record_submit l msg ~at:(now t)) t.ledger;
  try_submit t msg sender_agent

let pending_count t = Hashtbl.length t.pendings

(* Health gauges the per-window monitors read: transfers still awaiting
   acknowledgement, plus service-queue backlog (waiting jobs and, when
   a server is mid-service, the job in flight). *)
let publish_gauges t reg =
  let depth, deepest =
    Hashtbl.fold
      (fun _ q (sum, worst) ->
        let d = Queue.length q.jobs + if q.busy then 1 else 0 in
        (sum + d, max worst d))
      t.queues (0, 0)
  in
  let set name v =
    Telemetry.Registry.set_gauge (Telemetry.Registry.gauge reg name) v
  in
  set "pipeline_pending" (float_of_int (Hashtbl.length t.pendings));
  set "queue_depth" (float_of_int depth);
  set "queue_depth_max" (float_of_int deepest)

let dedup_entries t =
  Hashtbl.length t.completed + Hashtbl.length t.dead
  + Hashtbl.length t.submit_spans + Hashtbl.length t.hop_sends

let prunable t ~ledger =
  (* Ids still referenced by live pipeline machinery: a pending
     transfer, a parked service-queue copy, an armed submit timer, an
     open replication round, or a message-bearing wire send that has
     not reached its scheduled arrival yet can all produce further
     events for the id. *)
  let live = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace live (id_of_nkey t k) ()) t.pendings;
  Hashtbl.iter (fun id _ -> Hashtbl.replace live id ()) t.in_work;
  Hashtbl.iter (fun id _ -> Hashtbl.replace live id ()) t.submit_timers;
  Hashtbl.iter (fun k _ -> Hashtbl.replace live (id_of_nkey t k) ()) t.rounds;
  let horizon = now t in
  Hashtbl.iter
    (fun id until -> if until >= horizon then Hashtbl.replace live id ())
    t.fences;
  fun id -> (not (Hashtbl.mem live id)) && Ledger.settled ledger id

let compact t keep_out =
  let dropped = ref 0 in
  (* Expired fences are dead weight regardless of the ledger verdict:
     the send they covered has landed (or vanished) by now. *)
  let horizon = now t in
  let expired =
    Hashtbl.fold
      (fun id until acc -> if until < horizon then id :: acc else acc)
      t.fences []
    |> List.sort Int.compare
  in
  List.iter (Hashtbl.remove t.fences) expired;
  let prune tbl id_of =
    let doomed =
      Hashtbl.fold (fun k _ acc -> if keep_out (id_of k) then k :: acc else acc) tbl []
    in
    List.iter
      (fun k ->
        Hashtbl.remove tbl k;
        incr dropped)
      doomed
  in
  prune t.completed (id_of_nkey t);
  prune t.dead Fun.id;
  prune t.submit_spans Fun.id;
  prune t.hop_sends (id_of_nkey t);
  !dropped

let create ~engine ~graph ~trace ~counters ?metrics ?tracer ?bandwidth ?loss_rate
    ?ledger ?route_anchors ~storage config callbacks =
  let net = Netsim.Net.create ~engine ~trace ?bandwidth ?loss_rate graph in
  Option.iter (Netsim.Net.set_route_anchors net) route_anchors;
  (* Registered eagerly (even when the service model is off) so every
     design's registry exposes the same metric names. *)
  let queue_wait_hist =
    Option.map
      (fun reg ->
        Telemetry.Registry.histogram ~lo:0. ~hi:100. ~buckets:40 reg "queue_wait")
      metrics
  in
  let cells =
    let cell = Dsim.Stats.Counter.cell counters in
    {
      c_submitted = cell "submitted";
      c_submits_received = cell "submits_received";
      c_submit_attempts = cell "submit_attempts";
      c_submit_attempt_failures = cell "submit_attempt_failures";
      c_submit_deferred = cell "submit_deferred";
      c_resubmissions = cell "resubmissions";
      c_retries = cell "retries";
      c_deposits = cell "deposits";
      c_replicate_sends = cell "replica_replicate_sends";
      c_quorum_acks = cell "replica_quorum_acks";
      c_degraded_acks = cell "replica_degraded_acks";
      c_cache_hits = cell "resolution_cache_hits";
      c_notifications = cell "notifications";
    }
  in
  let t =
    {
      config;
      engine;
      net;
      storage;
      callbacks;
      counters;
      cells;
      cat_retry = Dsim.Engine.category engine "pipeline.retry";
      cat_replicate = Dsim.Engine.category engine "pipeline.replicate";
      cat_submit = Dsim.Engine.category engine "pipeline.submit";
      cat_resubmit = Dsim.Engine.category engine "pipeline.resubmit";
      cat_service = Dsim.Engine.category engine "pipeline.service";
      trace;
      n = Netsim.Graph.node_count graph;
      pendings = Hashtbl.create 64;
      rounds = Hashtbl.create 64;
      completed = Hashtbl.create 64;
      dead = Hashtbl.create 16;
      submit_timers = Hashtbl.create 64;
      in_work = Hashtbl.create 64;
      ledger;
      service_rng = Dsim.Rng.create config.service_seed;
      queues = Hashtbl.create 16;
      queue_waits = Dsim.Stats.Summary.create ();
      queue_wait_hist;
      tracer;
      submit_spans = Hashtbl.create 64;
      hop_sends = Hashtbl.create 64;
      fences = Hashtbl.create 64;
    }
  in
  List.iter
    (fun node -> Netsim.Net.set_handler net node (handle_wire t node))
    (Netsim.Graph.nodes graph);
  t
