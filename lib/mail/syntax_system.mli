(** Design 1: the complete mail system with syntax-directed naming
    (§3.1), assembled over the simulated network.

    The system wires together: per-region name spaces partitioned
    [By_host]; authority chains assigned by the §3.1.1 load-balancing
    algorithm (primary) plus {!Loadbalance.Replicas} secondaries;
    replicated mailbox storage ({!Replica_group}) with quorum deposit
    and failover GetMail; the three-phase delivery pipeline of §3.1.2
    (connection setup, name resolution and forwarding, deposit into
    "the first active server from the list");
    server-to-server acknowledgements with
    timeout-driven retries, so transient server failures never lose
    deposited mail; sender-side resubmission as the outer safety net;
    the GetMail retrieval algorithm; reconfiguration; and §3.1.4
    migration-by-renaming with redirection of in-flight mail.

    Delivery is at-least-once (a lost acknowledgement can duplicate a
    deposit); user agents deduplicate by message id, so user-visible
    semantics are exactly-once. *)

type t

(** Construction parameters. *)
type config = {
  replication : int;  (** authority servers per user (list length). *)
  users_per_host : int;
      (** named users actually simulated per host (the load-balancer
          still sees the full populations). *)
  retry_timeout : float;  (** server-side ack timeout. *)
  resubmit_timeout : float;  (** sender-side end-to-end timeout. *)
  max_retries : int;  (** per pending message per holder. *)
  mailbox_policy : Mailbox.policy;
  cache_capacity : int option;
      (** [Some n]: every server keeps an LRU cache of [n] foreign
          name resolutions (§4.1), letting it deposit cross-region
          mail directly instead of forwarding.  [None] (default)
          disables caching. *)
  bandwidth : float option;
      (** link bandwidth in bytes per time unit; [None] (default) makes
          message size free.  With a finite bandwidth, large
          multimedia parts ({!Content}) slow their own delivery. *)
  service_rate : float option;
      (** [Some mu]: servers process requests through FIFO queues with
          Exp(mu) service times — the measured counterpart of the cost
          model's [Q(ρ) + z] term.  [None] (default) = instantaneous
          processing. *)
  loss_rate : float;
      (** probability each transmission vanishes in flight (default
          0): the random message loss the acknowledgement/retry
          machinery absorbs. *)
  span_sample : int;
      (** head-sampling rate of the system's tracer
          ({!Telemetry.Tracer.create}'s [?sample]): trace the lifecycle
          of messages with [id mod span_sample = 0], and the retrieval
          rounds and failovers of users with interned id
          [uid mod span_sample = 0].  A sampled message's trace is
          completed by whichever round fetches it.  [<= 1] (default)
          traces everything. *)
}

val default_config : config
(** replication 3, 5 users per host, retry 50, resubmit 400,
    max_retries 50, delete-on-retrieve, no resolution cache. *)

val create : ?config:config -> Netsim.Topology.mail_site -> t
(** Build the system: run the load balancer for primary assignments,
    derive authority lists, register names, wire the network handlers.
    @raise Invalid_argument on an unusable site (no hosts/servers,
    disconnected). *)

(** {1 Access} *)

type wire = unit Pipeline.wire
(** The network payload type (submits, forwards, deposits, acks,
    notifications). *)

val engine : t -> Dsim.Engine.t
val net : t -> wire Netsim.Net.t
val graph : t -> Netsim.Graph.t
val now : t -> float
val users : t -> Naming.Name.t list
val agent : t -> Naming.Name.t -> User_agent.t
val server_nodes : t -> Netsim.Graph.node list

val storage : t -> Replica_group.t
(** The replicated mailbox storage: every server node is a holder in
    this group and all mailbox access goes through it. *)

val authority_of : t -> Naming.Name.t -> Netsim.Graph.node list
(** The user's ordered authority chain (primary first; [] for unknown
    names) — the replication set of the quorum deposit. *)

val space : t -> string -> Naming.Name_space.t option
val counters : t -> Dsim.Stats.Counter.t

val metrics : t -> Telemetry.Registry.t
(** The run's typed metric registry (base label [design="syntax"]),
    live-fed by the engine probe and the pipeline's queue-wait
    histogram; {!Scenario.drive} / {!System.snapshot_metrics} fill in
    the rest. *)

val tracer : t -> Telemetry.Tracer.t
(** The run's span collector: the pipeline traces every submitted
    message's lifecycle into it and {!check_mail} traces every
    retrieval round (see {!Pipeline.create} and
    {!User_agent.get_mail}). *)

val trace : t -> Dsim.Trace.t

val ledger : t -> Ledger.t
(** The run's delivery-invariant ledger (§3.1.2c): the pipeline
    records submits/deposits/bounces, {!check_mail} records
    fetches/retrievals.  {!Ledger.check} it after quiescing. *)

val submitted : t -> Message.t list
(** Every message ever submitted, newest first. *)

(** {1 Operation} *)

val submit :
  t ->
  sender:Naming.Name.t ->
  recipient:Naming.Name.t ->
  ?subject:string ->
  ?body:string ->
  ?parts:Content.part list ->
  unit ->
  Message.t
(** Submit at the current virtual time (the pipeline then runs as
    engine events).  @raise Invalid_argument on unknown users. *)

val submit_at :
  t ->
  at:float ->
  sender:Naming.Name.t ->
  recipient:Naming.Name.t ->
  ?subject:string ->
  ?body:string ->
  ?parts:Content.part list ->
  unit ->
  Message.t

val check_mail : t -> Naming.Name.t -> User_agent.check_stats
(** Run GetMail for the user now; polls are counted in [counters]
    (keys ["checks"], ["polls"], ["failed_polls"], ["retrieved"]). *)

val check_mail_at : t -> at:float -> Naming.Name.t -> unit

val view : t -> User_agent.server_view
(** The server view backing {!check_mail} — exposed so baselines
    ({!User_agent.poll_all}, {!User_agent.naive_check}) run against
    the same system. *)

val run_until : t -> float -> unit
(** Advance the engine. *)

val quiesce : ?step:float -> ?max_steps:int -> t -> unit
(** Keep running in [step]-sized slices (default 1000) until no events
    remain — lets retry timers resolve after outages end. *)

val compact : t -> int
(** Prune pipeline dedup tables and agent seen-sets for messages the
    ledger confirms settled (counter ["compacted"]); returns entries
    dropped.  Bounds bookkeeping memory on long runs. *)

val publish_health : t -> unit
(** Publish the instantaneous health gauges the per-window monitors
    read ({!Pipeline.publish_gauges},
    {!Replica_group.publish_gauges}) into the metric registry. *)

val schedule_cleanup : t -> period:float -> until:float -> max_age:float -> unit
(** §3.1.2c archiving policy: every [period] time units (until
    [until]), every server drops archived copies older than [max_age];
    dropped counts accumulate under counter ["archive_dropped"].
    Only meaningful with the [Archive] mailbox policy. *)

(** {1 Reconfiguration and migration} *)

val add_user : t -> host:Netsim.Graph.node -> user:string -> Naming.Name.t
(** §3.1.3a at runtime: register a new user on an existing host, with
    the nearest servers as its authority list (counter
    ["users_added"]).  Returns the new name.
    @raise Invalid_argument if the host is unknown, the user token is
    invalid, or the name already exists. *)

val remove_user : t -> Naming.Name.t -> unit
(** Deregister a user; pending server-side mailboxes are left to the
    clean-up policy.  @raise Invalid_argument on unknown users. *)

val migrate_user :
  t -> Naming.Name.t -> new_host:Netsim.Graph.node -> Naming.Name.t
(** §3.1.4: re-register the user under the new host's name (possibly
    in a new region), reassign authority servers, and leave a
    redirection entry so mail addressed to the old name is forwarded
    (counter ["redirects"]).  Returns the new name.
    @raise Invalid_argument if the user or host is unknown. *)

val redirect_target : t -> Naming.Name.t -> Naming.Name.t option
(** Where a migrated name currently redirects, if anywhere. *)

val resolution_cache_stats : t -> int * int
(** Total (hits, misses) over all servers' resolution caches —
    (0, 0) when caching is disabled. *)

val queue_wait_stats : t -> Dsim.Stats.Summary.t
(** Server-queue waiting times when [service_rate] is set. *)

val server_utilisation : t -> Netsim.Graph.node -> float
(** Measured busy fraction of one server under the service model. *)
