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

type state
(** What only design 1 keeps: its config, the §4.1 resolution caches
    and the §4.2 bounce record. *)

type t = (unit, state) Core.t

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

(** {1 Access and operation} *)

type wire = unit Pipeline.wire
(** The network payload type (submits, forwards, deposits, acks,
    notifications). *)

include module type of Core.Ops
(** The shared machine's access and operations ({!Core.Ops}). *)

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

val resolution_cache_stats : t -> int * int
(** Total (hits, misses) over all servers' resolution caches —
    (0, 0) when caching is disabled. *)
