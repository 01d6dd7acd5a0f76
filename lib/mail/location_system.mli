(** Design 2: the mail system with limited location-independent access
    (§3.2).

    Names keep the ["region.host.user"] form, but the host token is
    only the user's {e primary} location: a user may connect from any
    host of their region.  Name resolution inside a region is
    host-independent — "a hash function is applied to the name to find
    out in which sub-group the name belongs" — so authority servers
    derive from the (region, user) hash group, not from the host.
    Servers of a region cooperatively track each user's current
    location: a login informs the nearest active server, which gossips
    the update to its regional peers ([Ctrl] traffic, counter
    ["location_updates"]); deposit-time alerts go to the user's
    {e current} host.

    Within a region users therefore move with {e no renaming and no
    server reassignment}; across regions the system falls back to the
    §3.1.4-style rename with redirection. *)

type t

type config = {
  replication : int;  (** authority servers per hash group. *)
  users_per_host : int;
  hash_groups : int;  (** sub-groups per region (the hash range). *)
  retry_timeout : float;
  resubmit_timeout : float;
  max_retries : int;
  mailbox_policy : Mailbox.policy;
  bandwidth : float option;  (** as in {!Syntax_system.config}. *)
  service_rate : float option;  (** as in {!Syntax_system.config}. *)
  loss_rate : float;  (** as in {!Syntax_system.config}. *)
  span_sample : int;  (** as in {!Syntax_system.config}. *)
}

val default_config : config
(** replication 3, 5 users/host, 8 hash groups, pipeline defaults,
    no bandwidth/service/loss modelling. *)

val create : ?config:config -> ?design_label:string -> Netsim.Topology.mail_site -> t
(** [design_label] (default ["location"]) is the [design] base label
    of the metrics registry — {!Attribute_system} passes
    ["attribute"] for the runs it drives through this base. *)

(** {1 Access} *)

type ctrl
(** Location-gossip control messages. *)

type wire = ctrl Pipeline.wire

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

val space : t -> string -> Naming.Name_space.t option
val counters : t -> Dsim.Stats.Counter.t

val metrics : t -> Telemetry.Registry.t
(** The run's typed metric registry (base label
    [design=<design_label>]). *)

val tracer : t -> Telemetry.Tracer.t
(** The run's span collector (per-message lifecycle + retrieval
    rounds; see {!Pipeline.create} and {!User_agent.get_mail}). *)

val trace : t -> Dsim.Trace.t

val ledger : t -> Ledger.t
(** The run's delivery-invariant ledger (§3.1.2c); see
    {!Syntax_system.ledger}. *)

val submitted : t -> Message.t list

val authority_of : t -> Naming.Name.t -> Netsim.Graph.node list
(** The hash-group authority list — identical for all users of one
    group, independent of any host. *)

val current_location : t -> Naming.Name.t -> Netsim.Graph.node
(** Where the system believes the user is (primary host until the
    first login elsewhere). *)

val primary_host : t -> Naming.Name.t -> Netsim.Graph.node

val nearest_servers : t -> Netsim.Graph.node -> Netsim.Graph.node list
(** The servers of the host's region, nearest first by static graph
    distance (ties keep the region's server order) — the order in
    which submits try servers and logins look for the nearest active
    one.  Computed with one Dijkstra on the host's first ask and
    cached: the graph and server lists never change after {!create},
    so the order ignores link cuts and crashes, and callers filter on
    liveness themselves. *)

(** {1 Operation} *)

val login : t -> Naming.Name.t -> host:Netsim.Graph.node -> User_agent.check_stats
(** Connect from [host] (must be in the user's region): informs the
    nearest active server, which records the location, gossips it to
    regional peers, and retrieves the user's pending mail on their
    behalf (§3.2.2c) — returned as the check stats.
    @raise Invalid_argument if [host] is outside the user's region. *)

val submit :
  t ->
  sender:Naming.Name.t ->
  recipient:Naming.Name.t ->
  ?subject:string ->
  ?body:string ->
  unit ->
  Message.t

val submit_at :
  t ->
  at:float ->
  sender:Naming.Name.t ->
  recipient:Naming.Name.t ->
  ?subject:string ->
  ?body:string ->
  unit ->
  Message.t

val check_mail : t -> Naming.Name.t -> User_agent.check_stats
val check_mail_at : t -> at:float -> Naming.Name.t -> unit
val view : t -> User_agent.server_view

val retrieval_cost_stats : t -> Dsim.Stats.Summary.t
(** §3.2.2c communication cost of retrievals: host ↔ nearest-server
    round trip plus the relay's round trips to the polled authority
    servers.  Grows when users roam far from their hash group —
    "remote access is usually slow and imposes large overhead"
    (§3.2.4). *)

val run_until : t -> float -> unit
val quiesce : ?step:float -> ?max_steps:int -> t -> unit

val compact : t -> int
(** Prune settled-message bookkeeping; see {!Syntax_system.compact}. *)

val publish_health : t -> unit
(** Publish pipeline and chain-health gauges; see
    {!Syntax_system.publish_health}. *)

(** {1 Reconfiguration and migration} *)

val rebalance_hash : t -> groups:int -> int
(** §3.2.3c: "reallocation of load can be done by changing the hashing
    functions" — switch every region to [groups] sub-groups and
    reassign authority lists.  Returns the number of users whose
    authority assignment changed. *)

val migrate_region :
  t -> Naming.Name.t -> new_host:Netsim.Graph.node -> Naming.Name.t
(** Cross-region move: rename + redirection, as in design 1 (§3.2.4
    "obtaining a new name for a user who plans to move for a long
    time").  @raise Invalid_argument if [new_host] is in the user's
    own region (use {!login} instead — that move is free). *)

val redirect_target : t -> Naming.Name.t -> Naming.Name.t option
