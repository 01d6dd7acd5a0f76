(** The mail-system machine the designs share.

    The paper's designs (§3.1 syntax-directed, §3.2
    location-independent, §3.3 attribute-based) differ only in how a
    name maps to authority servers and where a user is; the delivery
    pipeline, GetMail, replicated storage, telemetry and ledger are one
    machine.  A design is a [('ctrl, 'state) t]: ['ctrl] is its
    control-plane payload ({!Pipeline.wire}'s [Ctrl]), ['state] what
    only it keeps, and its {!hooks} the policy it plugs in.
    {!Syntax_system} and {!Location_system} re-export {!Ops}. *)

type ('ctrl, 'state) t

(** {1 Shared operations} *)

module Ops : sig
  (** {2 Access} *)

  val engine : ('ctrl, 'state) t -> Dsim.Engine.t
  val net : ('ctrl, 'state) t -> 'ctrl Pipeline.wire Netsim.Net.t
  val graph : ('ctrl, 'state) t -> Netsim.Graph.t
  val now : ('ctrl, 'state) t -> float

  val users : ('ctrl, 'state) t -> Naming.Name.t list
  (** Current user names, sorted. *)

  val agent : ('ctrl, 'state) t -> Naming.Name.t -> User_agent.t
  (** @raise Invalid_argument on unknown users. *)

  val server_nodes : ('ctrl, 'state) t -> Netsim.Graph.node list

  val storage : ('ctrl, 'state) t -> Replica_group.t
  (** The replicated mailbox storage: every server node is a holder in
      this group, and all mailbox access (deposit copies, GetMail
      drains, recovery resync) goes through it. *)

  val authority_of : ('ctrl, 'state) t -> Naming.Name.t -> Netsim.Graph.node list
  (** The name's ordered authority chain (primary first) — the
      replication set of the quorum deposit.  Design 1: the user's own
      load-balanced chain ([] for unknown names); design 2: the list of
      the name's hash group, identical for all users of one group and
      independent of any host. *)

  val space : ('ctrl, 'state) t -> string -> Naming.Name_space.t option
  (** The region's name space (partitioned [By_host] in design 1,
      [By_hash] in design 2). *)

  val counters : ('ctrl, 'state) t -> Dsim.Stats.Counter.t
  (** Raw internal tallies; prefer {!metrics} for anything public. *)

  val metrics : ('ctrl, 'state) t -> Telemetry.Registry.t
  (** The run's typed metric registry (base label [design=<label>]),
      live-fed by the engine probe and the pipeline's queue-wait
      histogram; {!Scenario.drive} / {!System.snapshot_metrics} fill in
      the rest. *)

  val tracer : ('ctrl, 'state) t -> Telemetry.Tracer.t
  (** The run's span collector, head-sampled at the design config's
      [span_sample]: the pipeline traces the lifecycle of every sampled
      message ([id mod span_sample = 0]) and {!check_mail} traces the
      retrieval rounds of sampled users ([uid mod span_sample = 0]);
      any round completes the trace of a sampled message it fetches
      (see {!Pipeline.create} and {!User_agent.get_mail}).  Root spans
      are ["message"] and ["getmail.check"].  With [span_sample <= 1]
      everything is traced. *)

  val trace : ('ctrl, 'state) t -> Dsim.Trace.t

  val ledger : ('ctrl, 'state) t -> Ledger.t
  (** The run's delivery-invariant ledger (§3.1.2c): the pipeline
      records submits/deposits/bounces, {!check_mail} records
      fetches/retrievals.  {!Ledger.check} it after quiescing. *)

  val submitted : ('ctrl, 'state) t -> Message.t list
  (** Every message ever submitted, newest first. *)

  val nearest_servers : ('ctrl, 'state) t -> Netsim.Graph.node -> Netsim.Graph.node list
  (** The design's candidate servers for a host (design 1: every
      server; design 2: the servers of the host's region), nearest
      first by static graph distance (ties keep the candidates'
      order).  Design 1 takes its new users' authority lists from it,
      design 2 the order in which submits try servers and logins look
      for the nearest active one.  Computed with one Dijkstra on the
      host's first ask and cached: the graph and server lists never
      change after creation, so the order ignores link cuts and
      crashes, and callers filter on liveness themselves. *)

  val redirect_target : ('ctrl, 'state) t -> Naming.Name.t -> Naming.Name.t option
  (** Where a migrated name currently redirects, if anywhere. *)

  val queue_wait_stats : ('ctrl, 'state) t -> Dsim.Stats.Summary.t
  (** Server-queue waiting times when [service_rate] is set. *)

  val server_utilisation : ('ctrl, 'state) t -> Netsim.Graph.node -> float
  (** Measured busy fraction of one server under the service model. *)

  (** {2 Operation} *)

  val submit :
    ('ctrl, 'state) t ->
    sender:Naming.Name.t ->
    recipient:Naming.Name.t ->
    ?subject:string ->
    ?body:string ->
    ?parts:Content.part list ->
    unit ->
    Message.t
  (** Submit at the current virtual time (the pipeline then runs as
      engine events).  @raise Invalid_argument on an unknown sender or
      a recipient that is neither a user nor a redirected name. *)

  val submit_at :
    ('ctrl, 'state) t ->
    at:float ->
    sender:Naming.Name.t ->
    recipient:Naming.Name.t ->
    ?subject:string ->
    ?body:string ->
    ?parts:Content.part list ->
    unit ->
    Message.t
  (** {!submit} scheduled at virtual time [at]. *)

  val check_mail : ('ctrl, 'state) t -> Naming.Name.t -> User_agent.check_stats
  (** Run GetMail for the user now; polls are counted in [counters]
      (keys ["checks"], ["polls"], ["failed_polls"], ["retrieved"]). *)

  val check_mail_at : ('ctrl, 'state) t -> at:float -> Naming.Name.t -> unit

  val view : ('ctrl, 'state) t -> User_agent.server_view
  (** The server view backing {!check_mail} — exposed so baselines
      ({!User_agent.poll_all}, {!User_agent.naive_check}) run against
      the same system. *)

  val run_until : ('ctrl, 'state) t -> float -> unit
  (** Advance the engine. *)

  val quiesce : ?step:float -> ?max_steps:int -> ('ctrl, 'state) t -> unit
  (** Keep running in [step]-sized slices (default 1000) until no events
      remain — lets retry timers resolve after outages end. *)

  val compact : ('ctrl, 'state) t -> int
  (** Prune pipeline dedup tables and agent seen-sets for messages the
      ledger confirms settled (counter ["compacted"]); returns entries
      dropped.  Bounds bookkeeping memory on long runs; safe to call
      at any time. *)

  val publish_health : ('ctrl, 'state) t -> unit
  (** Publish the instantaneous health gauges the per-window monitors
      read ({!Pipeline.publish_gauges},
      {!Replica_group.publish_gauges}) into the metric registry.
      Called by {!System.snapshot_metrics}, so every timeseries window
      carries a fresh reading. *)

  val schedule_cleanup :
    ('ctrl, 'state) t -> period:float -> until:float -> max_age:float -> unit
  (** §3.1.2c archiving policy: every [period] time units (until
      [until]), every server drops archived copies older than [max_age];
      dropped counts accumulate under counter ["archive_dropped"].
      Only meaningful with the [Archive] mailbox policy. *)
end

(** {1 Building a design} *)

(** The naming policy a design plugs into the shared machine.  Every
    hook receives the whole system. *)
type ('ctrl, 'state) hooks = {
  authority_of : ('ctrl, 'state) t -> Naming.Name.t -> Netsim.Graph.node list;
      (** {!Ops.authority_of}. *)
  authority_of_uid : ('ctrl, 'state) t -> int -> Netsim.Graph.node list;
      (** ordered authority chain of a (canonical) interned user — the
          pipeline's deposit target and the replica group's chain. *)
  notify_target : ('ctrl, 'state) t -> User_agent.t -> Netsim.Graph.node;
      (** host the new-mail alert for this agent goes to. *)
  submit_servers : ('ctrl, 'state) t -> User_agent.t -> Netsim.Graph.node list;
      (** servers a sender's agent tries for connection setup, in
          order. *)
  cached_authority :
    ('ctrl, 'state) t -> at:Netsim.Graph.node -> Naming.Name.t -> Netsim.Graph.node list option;
      (** §4.1 resolution cache lookup ({!Pipeline.callbacks}). *)
  on_forward_resolved :
    ('ctrl, 'state) t -> at:Netsim.Graph.node -> Naming.Name.t -> Netsim.Graph.node list -> unit;
      (** a foreign recipient had to be forwarded ({!Pipeline.callbacks}). *)
  on_undeliverable : ('ctrl, 'state) t -> Message.t -> reason:string -> unit;
      (** the pipeline gave up on a message (§4.2). *)
  on_redirected : ('ctrl, 'state) t -> Message.t -> old_name:Naming.Name.t -> unit;
      (** a message addressed to a migrated name was redirected. *)
  on_ctrl :
    ('ctrl, 'state) t -> Netsim.Graph.node -> time:float -> src:Netsim.Graph.node -> 'ctrl -> unit;
      (** design control-plane traffic arrived at a node. *)
  on_check : ('ctrl, 'state) t -> User_agent.t -> User_agent.check_stats -> unit;
      (** after every {!Ops.check_mail}, with the round's stats. *)
  candidates : ('ctrl, 'state) t -> Netsim.Graph.node -> Netsim.Graph.node list;
      (** the servers {!Ops.nearest_servers} orders for a host. *)
}

val default_hooks : ('ctrl, 'state) hooks
(** Chains are the agents' own authority lists ([] for names without
    an agent) and also their submit servers; alerts go to the agent's
    host; no resolution cache; undeliverable mail and redirections are
    only counted (["undeliverable"], ["rename_notices"]); control
    traffic is ignored; every server is a nearest-server candidate. *)

val create :
  design:string ->
  scheme:Naming.Name_space.scheme ->
  users_per_host:int ->
  retry_timeout:float ->
  resubmit_timeout:float ->
  max_retries:int ->
  mailbox_policy:Mailbox.policy ->
  bandwidth:float option ->
  service_rate:float option ->
  loss_rate:float ->
  span_sample:int ->
  hooks:('ctrl, 'state) hooks ->
  authority:
    (('ctrl, 'state) t ->
    host:Netsim.Graph.node ->
    slot:int ->
    Naming.Name.t ->
    Netsim.Graph.node list) ->
  'state ->
  Netsim.Topology.mail_site ->
  ('ctrl, 'state) t
(** Wire the shared machine over the site: telemetry with base label
    [design], every server a storage holder and a member of its
    region's name space (partitioned by [scheme]), the delivery
    pipeline with the design's [hooks], recovery resync on server
    restarts, and [users_per_host] users ["u0"], ["u1"], … per host,
    each with authority list [authority t ~host ~slot name]. *)

val state : ('ctrl, 'state) t -> 'state
val pipeline : ('ctrl, 'state) t -> 'ctrl Pipeline.t

val count : ?by:int -> ('ctrl, 'state) t -> string -> unit
(** Bump a raw counter in {!Ops.counters}. *)

val region_of_node : Netsim.Graph.t -> Netsim.Graph.node -> string
(** The node's region, ["r0"] for unregioned graphs. *)

val region_servers : ('ctrl, 'state) t -> string -> Netsim.Graph.node list
(** The region's servers in site order ([] for unknown regions). *)

val name_of_uid : ('ctrl, 'state) t -> int -> Naming.Name.t
val find_agent : ('ctrl, 'state) t -> Naming.Name.t -> User_agent.t option
val iter_agents : ('ctrl, 'state) t -> (Naming.Name.t -> User_agent.t -> unit) -> unit
val iter_spaces : ('ctrl, 'state) t -> (Naming.Name_space.t -> unit) -> unit

val register_user :
  ('ctrl, 'state) t ->
  name:Naming.Name.t ->
  host:Netsim.Graph.node ->
  authority:Netsim.Graph.node list ->
  User_agent.t
(** Intern the name, create its agent and enter it in the region's
    name space with [authority] as its context's servers. *)

val unregister_user : ('ctrl, 'state) t -> Naming.Name.t -> unit
(** Drop the user's agent and name-space entry (its mailboxes stay).
    @raise Invalid_argument on unknown users. *)

val rename :
  ('ctrl, 'state) t ->
  Naming.Name.t ->
  new_host:Netsim.Graph.node ->
  authority:(Naming.Name.t -> Netsim.Graph.node list) ->
  Naming.Name.t
(** The §3.1.4 migration step: register the user under [new_host]'s
    name — [<user>-m1], [<user>-m2], … when the token is taken there
    — with authority list [authority new_name], unregister the old
    name, and redirect it to the new one (counter ["migrations"]).
    Returns the new name.
    @raise Invalid_argument if the user or host is unknown. *)

val record_check : Dsim.Stats.Counter.t -> User_agent.check_stats -> unit
(** Tally one retrieval round under ["checks"], ["polls"],
    ["failed_polls"] and ["retrieved"]. *)

val new_message :
  ('ctrl, 'state) t ->
  sender:Naming.Name.t ->
  recipient:Naming.Name.t ->
  subject:string ->
  body:string ->
  ?parts:Content.part list ->
  at:float ->
  unit ->
  Message.t
(** Allocate the next message id, build the message (submitted at
    [at]) and record it in {!Ops.submitted}; the caller hands it to
    the pipeline. *)
