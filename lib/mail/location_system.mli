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

type ctrl
(** Location-gossip control messages. *)

type state
(** What only design 2 keeps: its config, the primary-host and
    current-location tables, the hash range and the retrieval costs. *)

type t = (ctrl, state) Core.t

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

(** {1 Access and operation} *)

type wire = ctrl Pipeline.wire

include module type of Core.Ops
(** The shared machine's access and operations ({!Core.Ops});
    {!check_mail} also records the round's {!retrieval_cost_stats}. *)

val current_location : t -> Naming.Name.t -> Netsim.Graph.node
(** Where the system believes the user is (primary host until the
    first login elsewhere). *)

val primary_host : t -> Naming.Name.t -> Netsim.Graph.node

val login : t -> Naming.Name.t -> host:Netsim.Graph.node -> User_agent.check_stats
(** Connect from [host] (must be in the user's region): informs the
    nearest active server, which records the location, gossips it to
    regional peers, and retrieves the user's pending mail on their
    behalf (§3.2.2c) — returned as the check stats.
    @raise Invalid_argument if [host] is outside the user's region. *)

val retrieval_cost_stats : t -> Dsim.Stats.Summary.t
(** §3.2.2c communication cost of retrievals: host ↔ nearest-server
    round trip plus the relay's round trips to the polled authority
    servers.  Grows when users roam far from their hash group —
    "remote access is usually slow and imposes large overhead"
    (§3.2.4). *)

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
