(** The shared three-phase delivery pipeline of §3.1.2, parameterised
    over a system's naming policy.

    All three designs move mail the same way — connection setup at a
    server chosen by the sender's agent, forwarding into the
    recipient's region, deposit into "the first active server" of the
    recipient's authority list, acknowledgement back to the holder
    with timeout-driven retries — and differ only in {e how names map
    to servers and hosts}.  Those differences enter through
    {!callbacks}.

    Since the replicated-storage redesign the deposit phase is a
    {e quorum write}: the first active chain member (the coordinator)
    stores its local copy into the {!Replica_group}, fans [Replicate]
    out to the rest of the recipient's chain, and withholds the
    upstream acknowledgement until a majority of the chain holds the
    copy ({!Quorum}) or the bounded replicate budget runs out
    ({!Degraded} — the coordinator's copy is on disk, so mail is
    never lost, only under-replicated). *)

type 'ctrl wire =
  | Submit of Message.t
      (** sender's host → a server of the agent's list; acked at once
          like [Forward]. *)
  | Forward of Message.t  (** to a server in the recipient's region. *)
  | Deposit of Message.t  (** to an authority server of the recipient. *)
  | Replicate of Message.t
      (** coordinator → chain member: store one replica copy. *)
  | Replicated of Message.id
      (** chain member → coordinator: the copy is held (or already
          accounted for). *)
  | Ack of Message.id
  | Notify of Naming.Name.t * Message.id  (** server → recipient's host. *)
  | Ctrl of 'ctrl
      (** system-specific control-plane traffic (e.g. design 2's
          location gossip), dispatched to [on_ctrl]. *)


type config = {
  retry_timeout : float;
  resubmit_timeout : float;
  max_retries : int;
  service_rate : float option;
      (** [Some mu]: every server processes submits, forwards and
          deposits through a FIFO queue with Exp(mu) service times —
          the processing/queueing delay the paper's cost model charges
          as [Q(ρ) + z].  [None] (default) makes processing free.
          Service times come from one stream with a fixed seed. *)
}

val default_pipeline_config : config
(** retry 50, resubmit 400, max_retries 50, no service model.  The
    quorum deposit's replication is fixed: a coordinator waits 25 time
    units for [Replicated] confirmations before resending, for at most
    3 rounds before a below-quorum deposit acks [Degraded]. *)

type 'ctrl callbacks = {
  region_servers : string -> Netsim.Graph.node list;
      (** servers able to resolve names of that region ([] = unknown
          region). *)
  uid_of : Naming.Name.t -> int;
      (** intern a recipient name to its dense id ({!Naming.Intern}).
          The pipeline resolves each message's recipient at most once
          and caches the id on the message
          ([Message.recipient_uid]). *)
  name_of_uid : int -> Naming.Name.t;
      (** inverse of [uid_of]; used only on the cold redirect path to
          rewrite the recipient name. *)
  canonical_uid : int -> int;
      (** follow redirections for migrated users by interned id
          (identity if none). *)
  authority_of_uid : int -> Netsim.Graph.node list;
      (** the recipient's ordered authority chain (primary first) —
          also the replication set of the quorum write. *)
  notify_target_uid : int -> Netsim.Graph.node option;
      (** host to send the new-mail alert to ([None] = no alert). *)
  submit_servers : User_agent.t -> Netsim.Graph.node list;
      (** servers the sender's agent tries for connection setup, in
          order (design 1: the agent's authority list; design 2: the
          region's servers nearest the current host, an order cached
          per host — see {!Location_system.nearest_servers}). *)
  cached_authority :
    at:Netsim.Graph.node -> Naming.Name.t -> Netsim.Graph.node list option;
      (** §4.1 caching: a resolving server may remember a foreign
          recipient's authority list and deposit directly, skipping
          the forwarding hop (counter ["resolution_cache_hits"]).
          Return [None] to disable/miss. *)
  on_forward_resolved :
    at:Netsim.Graph.node -> Naming.Name.t -> Netsim.Graph.node list -> unit;
      (** called when a foreign recipient had to be forwarded — the
          moment a caching system learns the mapping. *)
  on_undeliverable : Message.t -> reason:string -> unit;
      (** §4.2 "returned with proper error messages": fired when the
          pipeline exhausts its retries or cannot resolve the region
          (counters ["gave_up"] / ["unresolvable"]). *)
  on_redirected : Message.t -> old_name:Naming.Name.t -> unit;
      (** fired when [canonical] rewrote the recipient — §3.1.4 "the
          senders are notified about the name changes". *)
  on_ctrl :
    Netsim.Graph.node -> time:float -> src:Netsim.Graph.node -> 'ctrl -> unit;
      (** handler for [Ctrl] payloads delivered to a node. *)
}

type 'ctrl t

val create :
  engine:Dsim.Engine.t ->
  graph:Netsim.Graph.t ->
  counters:Dsim.Stats.Counter.t ->
  ?metrics:Telemetry.Registry.t ->
  ?tracer:Telemetry.Tracer.t ->
  ?bandwidth:float ->
  ?loss_rate:float ->
  ?ledger:Ledger.t ->
  ?route_anchors:Netsim.Graph.node list ->
  storage:Replica_group.t ->
  config ->
  'ctrl callbacks ->
  'ctrl t
(** Builds the network and registers a pipeline handler on every node.
    [route_anchors], when given, names the infrastructure nodes whose
    shortest-path trees answer all routing queries
    (see {!Netsim.Net.set_route_anchors}).
    [storage] is the replica group holding every mailbox — the
    pipeline writes copies through it and never touches {!Server}
    directly.
    When [metrics] is given, queue waiting times are additionally
    observed live into its ["queue_wait"] histogram (registered
    eagerly, so the metric exists even with the service model off).
    When [tracer] is given, {!submit} opens a per-message root span
    (["message"]) for every message id the tracer samples
    ({!Telemetry.Tracer.sampled}: 1-in-[span_sample] by id, see
    {!Syntax_system.config}) and the pipeline hangs lifecycle child
    spans off it: ["submit"] (submission → first server acceptance),
    ["queue_wait"] (arrival → service start at each server;
    zero-length when the service model is off), ["forward.hop"] /
    ["deposit.hop"] (server→server transit), the instant ["deposit"]
    (coordinator's local copy), and ["deposit.replicate"] (round
    start → ack, with [ack]/[copies]/[chain] attributes; [ack] is
    ["quorum"] when a write quorum of the chain holds the copy,
    ["degraded"] when the round exhausted its budget below quorum).
    Counter keys written: ["submitted"], ["submit_attempts"],
    ["submit_attempt_failures"], ["submit_deferred"],
    ["submits_received"], ["deposits"], ["retries"], ["gave_up"],
    ["deposit_stalled"], ["forward_stalled"], ["unresolvable"],
    ["resubmissions"], ["notifications"],
    ["replica_replicate_sends"], ["replica_quorum_acks"],
    ["replica_degraded_acks"], ["replica_unavailable_acks"].
    When [ledger] is given, the pipeline records submits, replication
    acks and undeliverable declarations into it; the replica group
    records the per-copy deposit/purge side and agents record
    fetch/retrieve (see {!User_agent}).

    Delivery-guarantee properties: the sender's host holds a sent
    [Submit] in a pending until the server acks it, like every other
    hop, so a Submit lost on arrival is re-sent after one
    [retry_timeout]; that hold never gives up (it spends no retry
    budget), and once the message is deposited a hold whose [Ack]
    was lost ends at its next retry.  At most {e one} submit-driver
    timer (deferral or resubmission safety net) is armed per
    undeposited message, and no deferral timer runs while the host's
    hold retries, so timers and the submit counters stay linear in
    outage length; and a pending transfer whose holder is down does
    not burn retry-budget attempts — pending state survives holder
    crashes, so the budget only counts retries the holder could
    actually send.
    A retransmitted [Deposit] to a coordinator whose round already
    finished is re-acknowledged at once from the message's flight
    record, so it cannot re-open the round.  (["redirects"] is written
    by the system's [canonical_uid], not by the pipeline.) *)

val net : 'ctrl t -> 'ctrl wire Netsim.Net.t

val submit :
  'ctrl t ->
  sender_agent:User_agent.t ->
  msg:Message.t ->
  unit
(** Start the pipeline for [msg] at the current virtual time. *)

val pending_count : 'ctrl t -> int
(** Transfers still awaiting acknowledgement. *)

val publish_gauges : 'ctrl t -> Telemetry.Registry.t -> unit
(** Publish the pipeline health gauges the per-window monitors read:
    [pipeline_pending] (transfers awaiting acknowledgement),
    [queue_depth] (jobs waiting or in service across all server
    queues) and [queue_depth_max] (deepest single queue). *)

val is_dead : 'ctrl t -> Message.id -> bool
(** The message was declared undeliverable (and [on_undeliverable]
    fired); resubmissions for it have stopped. *)

val queue_wait_stats : 'ctrl t -> Dsim.Stats.Summary.t
(** Waiting times (arrival → service start) across all server queues;
    empty when the service model is off. *)

val server_utilisation : 'ctrl t -> Netsim.Graph.node -> float
(** Fraction of elapsed virtual time the server spent serving; 0 when
    the service model is off or the server handled nothing. *)

val prunable : 'ctrl t -> ledger:Ledger.t -> Message.id -> bool
(** [prunable t ~ledger id] reads the message's state at call time (no
    snapshot is taken): the id may be pruned when {!Ledger.settled}
    confirms its final outcome {e and} no live pipeline machinery
    refers to it — no pending transfer, open replication round, armed
    submit timer or copy queued for service, and no message-bearing
    send still in flight (every Submit/Forward/Deposit/Replicate has
    passed its scheduled arrival time).  Share one partial application
    per compaction round with {!User_agent.compact} and
    {!Replica_group.compact}. *)

val compact : 'ctrl t -> (Message.id -> bool) -> int
(** [compact t prunable] forgets every message whose id satisfies the
    predicate.  It returns, summed over those messages, the number of
    coordinators whose replication round finished, plus one if the
    message was declared undeliverable, plus one if a server accepted
    its submission, plus its traced hops not yet received.  Safe to
    call at any time with a predicate from {!prunable}. *)
