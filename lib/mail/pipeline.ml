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
  service_rate : float option;
}

let default_pipeline_config =
  { retry_timeout = 50.; resubmit_timeout = 400.; max_retries = 50; service_rate = None }

(* A coordinator waits [replicate_timeout] for [Replicated]
   confirmations before resending, for at most [max_replicate_rounds]
   rounds before acking [Degraded]; service times draw from one stream
   seeded [service_seed]. *)
let replicate_timeout = 25.
let max_replicate_rounds = 3
let service_seed = 0

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

(* A message a server (or, for its Submit, the sender's host) must
   push onward until the next hop acknowledges receipt.  Pending state
   survives holder crashes (queued mail is on disk); retries wait for
   the holder to come back up. *)
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

(* A traced server→server hop in transit: span name, source, send time. *)
type hop = {
  h_dst : Netsim.Graph.node;
  h_name : string;
  h_src : Netsim.Graph.node;
  h_sent : float;
}

(* Everything the pipeline keeps about one message until compaction.
   Timers capture their own [pending] or [round], so a stale firing
   stays inert; ids are never reused, so no generation tag is needed. *)
type flight = {
  mutable pendings : pending list;  (* one per holder *)
  mutable rounds : round list;  (* open rounds, one per coordinator *)
  mutable completed : Netsim.Graph.node list;
      (* coordinators whose round finished: a retransmitted Deposit is
         re-acked from here *)
  mutable hops : hop list;  (* traced only; one per destination *)
  mutable submit_timer : bool;  (* at most one submit-driver timer *)
  mutable in_work : int;  (* copies parked in a service queue *)
  mutable accepted : bool;  (* a server received the first Submit *)
  mutable dead : bool;  (* declared undeliverable: no resubmissions *)
  mutable fence : float;
      (* latest scheduled arrival of a wire message carrying the full
         Message.t.  Compacting earlier would let a late Submit/Forward/
         Deposit/Replicate re-open pruned dedup state (completed rounds,
         retrieved and seen sets) and resurrect a retrieved message. *)
}

(* FIFO work queue of one server under the Exp(mu) service model. *)
type srv_queue = {
  mutable busy : bool;
  jobs : (float * Message.t * (unit -> unit)) Queue.t;
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
  flights : flight Dsim.Id_table.t;  (* by message id *)
  mutable pending_total : int;  (* pendings across all flights *)
  ledger : Ledger.t option;
  service_rng : Dsim.Rng.t;
  queues : srv_queue Dsim.Id_table.t;  (* by node *)
  queue_waits : Dsim.Stats.Summary.t;
  queue_wait_hist : Telemetry.Registry.histogram option;
  tracer : Telemetry.Tracer.t option;
  server_attr : (string * string) list array;
      (* per node, the span attribute [("server", label)], built once so
         an untraced deposit or queue wait allocates no list for it *)
}

let net t = t.net

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
  match Dsim.Id_table.find_opt t.queues node with
  | Some q -> q
  | None ->
      let q = { busy = false; jobs = Queue.create (); busy_total = 0.; served = 0 } in
      Dsim.Id_table.replace t.queues node q;
      q

let server_utilisation t node =
  match Dsim.Id_table.find_opt t.queues node with
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

let queue_wait_span t node msg ~arrived ~started =
  emit_span t msg ~name:"queue_wait" ~start:arrived ~finish:started t.server_attr.(node)

(* Run [work] on [msg] through the node's FIFO service queue (or
   immediately when the service model is off). *)
let through_queue t node msg work =
  match t.config.service_rate with
  | None ->
      (* Service is free, but a zero-length wait span keeps trace
         trees the same shape with or without the service model. *)
      let at = Dsim.Engine.now t.engine in
      queue_wait_span t node msg ~arrived:at ~started:at;
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
            queue_wait_span t node m ~arrived ~started;
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

let first_active t nodes = List.find_opt (fun s -> Netsim.Net.is_up t.net s) nodes

(* The message's flight record, created on first touch. *)
let flight t id =
  match Dsim.Id_table.find t.flights id with
  | f -> f
  | exception Not_found ->
      let f =
        { pendings = []; rounds = []; completed = []; hops = []; submit_timer = false;
          in_work = 0; accepted = false; dead = false; fence = neg_infinity }
      in
      Dsim.Id_table.add t.flights id f;
      f

let is_dead t id =
  match Dsim.Id_table.find t.flights id with f -> f.dead | exception Not_found -> false

(* The per-flight lists hold one entry per node and are scanned by
   hand: no option, no closure on the per-event path. *)
let rec pending_at holder = function
  | [] -> raise Not_found
  | p :: rest -> if p.holder = holder then p else pending_at holder rest

let rec round_at coordinator = function
  | [] -> raise Not_found
  | r :: rest -> if r.coordinator = coordinator then r else round_at coordinator rest

let rec hop_to dst = function
  | [] -> raise Not_found
  | h :: rest -> if h.h_dst = dst then h else hop_to dst rest

(* [l] without the element physically equal to [x]; allocates nothing
   when [x] heads the list. *)
let rec remove_q x = function
  | [] -> []
  | y :: rest as l ->
      if y == x then rest
      else let rest' = remove_q x rest in if rest' == rest then l else y :: rest'

(* Send a wire message that carries the full Message.t (Submit,
   Forward, Deposit, Replicate) and fence its flight against
   compaction until the scheduled arrival has passed. *)
let send_fenced ?bytes t f ~src ~dst wire =
  match Netsim.Net.send_timed ?bytes t.net ~src ~dst wire with
  | None -> false
  | Some latency ->
      let until = now t +. latency in
      if until > f.fence then f.fence <- until;
      true

(* Remember an in-flight server→server hop so the receiving node can
   close the transit span; each destination keeps only the latest
   send — a retry supersedes the lost original. *)
let record_hop t f msg ~name ~src ~dst =
  if Option.is_some t.tracer && Option.is_some (Message.span msg) then
    let rest =
      match hop_to dst f.hops with h -> remove_q h f.hops | exception Not_found -> f.hops
    in
    f.hops <- { h_dst = dst; h_name = name; h_src = src; h_sent = now t } :: rest

let emit_hop t f node ~time m =
  match hop_to node f.hops with
  | h ->
      f.hops <- remove_q h f.hops;
      emit_span t m ~name:h.h_name ~start:h.h_sent ~finish:time
        [ ("src", node_label t h.h_src); ("dst", node_label t node) ]
  | exception Not_found -> ()

let declare_dead t f msg ~reason =
  if not f.dead then begin
    f.dead <- true;
    (match Message.span msg with
    | Some root ->
        Telemetry.Span.set_attr root "outcome" reason;
        Telemetry.Span.finish root ~at:(now t)
    | None -> ());
    Option.iter (fun l -> Ledger.record_undeliverable l msg ~reason ~at:(now t)) t.ledger;
    t.callbacks.on_undeliverable msg ~reason
  end

let drop_pending t f p =
  f.pendings <- remove_q p f.pendings;
  t.pending_total <- t.pending_total - 1

let arm_retry t f (p : pending) ~bounded step =
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
      else if (not bounded) || p.attempts < t.config.max_retries then begin
        p.attempts <- p.attempts + 1;
        incr t.cells.c_retries;
        step ();
        fire ()
      end
      else begin
        count t "gave_up";
        drop_pending t f p;
        declare_dead t f p.p_msg ~reason:"retries exhausted"
      end
  and fire () =
    ignore
      (Dsim.Engine.schedule_after_cat t.engine t.cat_retry t.config.retry_timeout
         handler)
  in
  fire ()

(* Make [holder] responsible for pushing [msg] onward, retrying with
   [step] until acknowledged; a no-op when it already is.  Only a
   [bounded] pending gives up after [max_retries]. *)
let pending_for t f ~holder ~bounded msg step =
  match pending_at holder f.pendings with
  | _ -> ()
  | exception Not_found ->
      let p = { p_msg = msg; holder; attempts = 0; acked = false } in
      f.pendings <- p :: f.pendings;
      t.pending_total <- t.pending_total + 1;
      arm_retry t f p ~bounded step

let ack_pending t f ~holder =
  match pending_at holder f.pendings with
  | p -> p.acked <- true; drop_pending t f p
  | exception Not_found -> ()

(* Acknowledge one deposit upstream: clear the coordinator's own
   pending (local path) or send a wire Ack to the server that pushed
   the Deposit. *)
let ack_upstream t f ~on ~upstream id =
  match upstream with
  | Local -> ack_pending t f ~holder:on
  | Remote src -> ignore (Netsim.Net.send t.net ~src:on ~dst:src (Ack id))

let send_replicates t f (r : round) =
  List.iter
    (fun node ->
      if
        node <> r.coordinator
        && (not (List.mem node r.stored))
        && Netsim.Net.is_up t.net node
      then begin
        incr t.cells.c_replicate_sends;
        ignore
          (send_fenced ~bytes:(Message.size_bytes r.r_msg) t f ~src:r.coordinator
             ~dst:node (Replicate r.r_msg))
      end)
    r.chain

let finish_round t f (r : round) ~degraded =
  if not r.finished then begin
    r.finished <- true;
    let id = r.r_msg.Message.id in
    f.rounds <- remove_q r f.rounds;
    f.completed <- r.coordinator :: f.completed;
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
    List.iter (fun up -> ack_upstream t f ~on:r.coordinator ~upstream:up id) r.upstreams
  end

let arm_round_timer t f (r : round) =
  (* Like [arm_retry]: one reusable handler per replication round. *)
  let rec handler () =
    if not r.finished then
      if r.rounds_left <= 0 then finish_round t f r ~degraded:true
      else begin
        r.rounds_left <- r.rounds_left - 1;
        send_replicates t f r;
        fire ()
      end
  and fire () =
    ignore
      (Dsim.Engine.schedule_after_cat t.engine t.cat_replicate
         replicate_timeout handler)
  in
  fire ()

(* Quorum deposit (the tentpole): the coordinator — the first active
   server of the recipient's chain — writes its local copy, then the
   upstream acknowledgement is withheld until a write quorum of the
   chain holds the copy, or the bounded replicate-round budget runs
   out (degraded ack: at least the coordinator's copy is on disk, so
   mail is never lost, only under-replicated). *)
let do_deposit t f ~on ~upstream msg =
  if List.mem on f.completed then ack_upstream t f ~on ~upstream msg.Message.id
  else
    match round_at on f.rounds with
    | r ->
        if not (List.mem upstream r.upstreams) then
          r.upstreams <- upstream :: r.upstreams
    | exception Not_found ->
        let cuid = t.callbacks.canonical_uid (ruid t msg) in
        let chain = t.callbacks.authority_of_uid cuid in
        let chain = if List.mem on chain then chain else on :: chain in
        (match Replica_group.write t.storage ~on msg ~at:(now t) with
        | Replica_group.Stored ->
            incr t.cells.c_deposits;
            emit_span t msg ~name:"deposit" ~start:(now t) ~finish:(now t)
              t.server_attr.(on)
        | Replica_group.Duplicate | Replica_group.Superseded -> ());
        let r =
          {
            r_msg = msg;
            coordinator = on;
            chain;
            needed = Replica_group.quorum_of chain;
            stored = [ on ];
            upstreams = [ upstream ];
            rounds_left = max_replicate_rounds;
            started = now t;
            finished = false;
          }
        in
        f.rounds <- r :: f.rounds;
        if List.length r.stored >= r.needed then finish_round t f r ~degraded:false
        else begin
          send_replicates t f r;
          arm_round_timer t f r
        end

(* Push [msg] from [at_server] to the next server [target]: the holder
   keeps a pending until the hop is acknowledged. *)
let hand_off t f ~at_server msg ~target ~name wire retry =
  pending_for t f ~holder:at_server ~bounded:true msg retry;
  msg.Message.forward_hops <- msg.Message.forward_hops + 1;
  record_hop t f msg ~name ~src:at_server ~dst:target;
  ignore (send_fenced ~bytes:(Message.size_bytes msg) t f ~src:at_server ~dst:target wire)

(* Phase 3 (§3.1.2c): deposit into the first active server of a given
   authority list; [retry] re-enters the phase that chose it. *)
let rec deposit_with t f ~at_server msg authority ~retry =
  match first_active t authority with
  | None ->
      count t "deposit_stalled";
      count t "replica_unavailable_acks";
      pending_for t f ~holder:at_server ~bounded:true msg retry
  | Some target when target = at_server ->
      pending_for t f ~holder:at_server ~bounded:true msg retry;
      do_deposit t f ~on:at_server ~upstream:Local msg
  | Some target ->
      hand_off t f ~at_server msg ~target ~name:"deposit.hop" (Deposit msg) retry

and deposit_phase t f ~at_server msg =
  let uid = ruid t msg in
  let cuid = t.callbacks.canonical_uid uid in
  if cuid <> uid then begin
    let old_name = msg.Message.recipient in
    msg.Message.recipient <- t.callbacks.name_of_uid cuid;
    msg.Message.recipient_uid <- cuid;
    t.callbacks.on_redirected msg ~old_name
  end;
  deposit_with t f ~at_server msg (t.callbacks.authority_of_uid cuid) ~retry:(fun () ->
      deposit_phase t f ~at_server msg)

(* Phase 2 (§3.1.2b): resolution and forwarding toward the
   recipient's region, short-circuited by the resolution cache. *)
let rec resolve_phase t f ~at_server msg =
  let cuid = t.callbacks.canonical_uid (ruid t msg) in
  let recipient =
    if cuid = msg.Message.recipient_uid then msg.Message.recipient
    else t.callbacks.name_of_uid cuid
  in
  if
    String.equal (Naming.Name.region recipient)
      (Replica_group.region t.storage at_server)
  then
    deposit_phase t f ~at_server msg
  else begin
    match t.callbacks.cached_authority ~at:at_server recipient with
    | Some authority when List.exists (fun s -> Netsim.Net.is_up t.net s) authority ->
        (* A cached resolution lets this server deposit directly,
           skipping the forwarding hop.  Retries re-enter
           [resolve_phase], so a stale entry degrades to a forward. *)
        incr t.cells.c_cache_hits;
        deposit_with t f ~at_server msg authority ~retry:(fun () ->
            resolve_phase t f ~at_server msg)
    | _ -> (
        let target_region = Naming.Name.region recipient in
        match t.callbacks.region_servers target_region with
        | [] ->
            count t "unresolvable";
            declare_dead t f msg ~reason:"unknown region"
        | nodes -> (
            match first_active t nodes with
            | None ->
                count t "forward_stalled";
                pending_for t f ~holder:at_server ~bounded:true msg (fun () ->
                    resolve_phase t f ~at_server msg)
            | Some target ->
                t.callbacks.on_forward_resolved ~at:at_server recipient
                  (t.callbacks.authority_of_uid cuid);
                hand_off t f ~at_server msg ~target ~name:"forward.hop" (Forward msg)
                  (fun () -> resolve_phase t f ~at_server msg)))
  end

let handle_wire t node ~time ~src msg =
  match msg with
  | Submit m ->
      ignore (Netsim.Net.send t.net ~src:node ~dst:src (Ack m.Message.id));
      incr t.cells.c_submits_received;
      let f = flight t m.Message.id in
      if not f.accepted then begin
        f.accepted <- true;
        (* Connection setup: submission at the sender's host until the
           first server accepts the message. *)
        emit_span t m ~name:"submit" ~start:m.Message.submitted_at ~finish:time
          t.server_attr.(node)
      end;
      f.in_work <- f.in_work + 1;
      through_queue t node m (fun () ->
          f.in_work <- f.in_work - 1;
          resolve_phase t f ~at_server:node m)
  | Forward m ->
      ignore (Netsim.Net.send t.net ~src:node ~dst:src (Ack m.Message.id));
      let f = flight t m.Message.id in
      emit_hop t f node ~time m;
      f.in_work <- f.in_work + 1;
      through_queue t node m (fun () ->
          f.in_work <- f.in_work - 1;
          deposit_phase t f ~at_server:node m)
  | Deposit m ->
      (* No immediate ack: the upstream's pending is cleared only once
         this coordinator's replication round reaches quorum (or
         degrades) — [finish_round] sends the Ack. *)
      let f = flight t m.Message.id in
      emit_hop t f node ~time m;
      f.in_work <- f.in_work + 1;
      through_queue t node m (fun () ->
          f.in_work <- f.in_work - 1;
          do_deposit t f ~on:node ~upstream:(Remote src) m)
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
      match Dsim.Id_table.find t.flights id with
      | exception Not_found -> ()
      | f -> (
          match round_at node f.rounds with
          | exception Not_found -> ()
          | r ->
              if not (List.mem src r.stored) then begin
                r.stored <- src :: r.stored;
                if List.length r.stored >= r.needed then finish_round t f r ~degraded:false
              end))
  | Ack id -> (
      match Dsim.Id_table.find t.flights id with
      | f -> ack_pending t f ~holder:node
      | exception Not_found -> ())
  | Notify _ -> incr t.cells.c_notifications
  | Ctrl c -> t.callbacks.on_ctrl node ~time ~src c

(* Connection setup (§3.1.2a): try servers in the agent's order.  The
   sender's host holds the message in a pending until the accepting
   server acks the Submit, like any other hop, so a Submit lost on
   arrival is re-sent after one [retry_timeout].  The hold is
   unbounded: submission never gives up.  Resubmission stays the
   end-to-end safety net for mail stuck on a crashed holder's disk.
   At most one submit timer is armed per undeposited message, and no
   deferral timer runs beside the hold, so timers and the submit
   counters stay linear in the length of an outage. *)
let rec try_submit t f msg sender_agent =
  if (not (Message.is_deposited msg)) && not f.dead then
    submit_to t f msg sender_agent (t.callbacks.submit_servers sender_agent)

and submit_to t f msg sender_agent = function
  | [] ->
      (* No server reachable right now: defer the whole attempt. *)
      incr t.cells.c_submit_deferred;
      (match pending_at (User_agent.host sender_agent) f.pendings with
      | _ -> () (* the host's hold retries *)
      | exception Not_found ->
          arm_submit_timer t f msg sender_agent ~delay:t.config.retry_timeout
            ~resubmission:false)
  | s :: rest ->
      incr t.cells.c_submit_attempts;
      let host = User_agent.host sender_agent in
      if
        Netsim.Net.is_up t.net s
        && send_fenced ~bytes:(Message.size_bytes msg) t f ~src:host ~dst:s (Submit msg)
      then begin
        (* Accepted for transmission: hold it until the server acks,
           and arm the end-to-end safety net in case it is lost
           downstream. *)
        pending_for t f ~holder:host ~bounded:false msg (fun () ->
            (* Nothing left to submit: a hold whose Ack was lost ends
               here (at [host]: the sender may have moved since). *)
            if Message.is_deposited msg || f.dead then ack_pending t f ~holder:host
            else try_submit t f msg sender_agent);
        arm_submit_timer t f msg sender_agent ~delay:t.config.resubmit_timeout
          ~resubmission:true
      end
      else begin
        (* Server down, or unreachable through downed relays. *)
        incr t.cells.c_submit_attempt_failures;
        submit_to t f msg sender_agent rest
      end

and arm_submit_timer t f msg sender_agent ~delay ~resubmission =
  if not f.submit_timer then begin
    f.submit_timer <- true;
    let category = if resubmission then t.cat_resubmit else t.cat_submit in
    ignore
      (Dsim.Engine.schedule_after_cat t.engine category delay (fun () ->
           f.submit_timer <- false;
           if (not (Message.is_deposited msg)) && not f.dead then begin
             if resubmission then incr t.cells.c_resubmissions;
             try_submit t f msg sender_agent
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
  try_submit t (flight t msg.Message.id) msg sender_agent

let pending_count t = t.pending_total

(* Health gauges the per-window monitors read: transfers still awaiting
   acknowledgement, plus service-queue backlog (waiting jobs and, when
   a server is mid-service, the job in flight). *)
let publish_gauges t reg =
  let depth, deepest =
    Dsim.Id_table.fold
      (fun _ q (sum, worst) ->
        let d = Queue.length q.jobs + if q.busy then 1 else 0 in
        (sum + d, max worst d))
      t.queues (0, 0)
  in
  let set name v =
    Telemetry.Registry.set_gauge (Telemetry.Registry.gauge reg name) v
  in
  set "pipeline_pending" (float_of_int t.pending_total);
  set "queue_depth" (float_of_int depth);
  set "queue_depth_max" (float_of_int deepest)

(* A flight stays while anything can still produce an event for its
   id: a pending transfer, an open replication round, an armed submit
   timer, a copy parked in a service queue, or a message-bearing send
   that has not reached its scheduled arrival. *)
let prunable t ~ledger id =
  (match Dsim.Id_table.find t.flights id with
  | exception Not_found -> true
  | { pendings = []; rounds = []; submit_timer; in_work; fence; _ } ->
      not (submit_timer || in_work > 0 || fence >= now t)
  | _ -> false)
  && Ledger.settled ledger id

(* Per forgotten flight the count adds its finished coordinators, its
   dead and accepted marks and the hop markers no node received — the
   [compacted] event count the artifacts record. *)
let compact t keep_out =
  let doomed =
    Dsim.Id_table.fold (fun id _ acc -> if keep_out id then id :: acc else acc) t.flights []
    |> List.sort Int.compare
  in
  List.fold_left
    (fun dropped id ->
      let f = Dsim.Id_table.find t.flights id in
      Dsim.Id_table.remove t.flights id;
      dropped + List.length f.completed + Bool.to_int f.dead + Bool.to_int f.accepted
      + List.length f.hops)
    0 doomed

let create ~engine ~graph ~counters ?metrics ?tracer ?bandwidth ?loss_rate
    ?ledger ?route_anchors ~storage config callbacks =
  let net = Netsim.Net.create ~engine ?bandwidth ?loss_rate graph in
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
      flights = Dsim.Id_table.create 64;
      pending_total = 0;
      ledger;
      service_rng = Dsim.Rng.create service_seed;
      queues = Dsim.Id_table.create 16;
      queue_waits = Dsim.Stats.Summary.create ();
      queue_wait_hist;
      tracer;
      server_attr =
        Array.init (Netsim.Graph.node_count graph) (fun v ->
            [ ("server", Netsim.Graph.label graph v) ]);
    }
  in
  List.iter
    (fun node -> Netsim.Net.set_handler net node (handle_wire t node))
    (Netsim.Graph.nodes graph);
  t
