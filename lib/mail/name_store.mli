(** A replicated name database with primary-copy update propagation.

    §2: the name space is "partitioned and distributed among the
    servers … the databases are partially replicated to increase the
    availability and the reliability of the system", and §4.2 lists
    "consistency of information concerning users" among the
    reliability requirements.  (The paper folds the name service into
    the mail servers, which is why this substrate lives in the mail
    library.)

    One store instance manages one context's replica group: the first
    replica is the primary; writes go to the primary and propagate
    asynchronously to the secondaries over the simulated network.
    Reads are served locally by any replica and may therefore be
    stale — the store counts how often.  A secondary that was down
    during an update is re-synchronised when it recovers
    (anti-entropy), so replicas converge once the network is quiet. *)

type t

val create :
  engine:Dsim.Engine.t ->
  graph:Netsim.Graph.t ->
  replicas:Netsim.Graph.node list ->
  unit ->
  t
(** @raise Invalid_argument on an empty replica list or unknown
    nodes. *)

type wire
(** Propagation payloads. *)

val net : t -> wire Netsim.Net.t
(** The store's private network (exposed for failure injection). *)

val primary : t -> Netsim.Graph.node
val replicas : t -> Netsim.Graph.node list

val register : t -> Naming.Name.t -> Netsim.Graph.node list -> unit
(** Write (insert or replace) the name's authority list at the
    primary and start propagation.
    @raise Invalid_argument if the primary is down (the paper's
    systems would fail over; this substrate keeps a single primary to
    isolate the propagation behaviour). *)

val unregister : t -> Naming.Name.t -> unit
(** Tombstone write; propagated like any update. *)

val lookup :
  t -> at:Netsim.Graph.node -> Naming.Name.t -> Netsim.Graph.node list option
(** Local read at a replica.  [None] for unknown (or tombstoned)
    names.  Reads at a replica that has not yet seen the latest
    version return the old value and increment the staleness
    counter.  @raise Invalid_argument if [at] is not a replica. *)

val version_at : t -> at:Netsim.Graph.node -> Naming.Name.t -> int
(** Version of the entry a replica currently holds (0 = never seen). *)

val lag : t -> Naming.Name.t -> int
(** Replicas not yet holding the newest version of the name. *)

val converged : t -> bool
(** Every replica holds the newest version of every name. *)

(** Counters. *)

val update_messages : t -> int
(** Propagation messages sent (including resyncs). *)

val stale_reads : t -> int

val resyncs : t -> int
(** Entries pushed by recovery anti-entropy. *)
