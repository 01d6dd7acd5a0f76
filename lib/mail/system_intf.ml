(** The common surface of the three mail-system designs.

    All three designs (§3.1 syntax-directed, §3.2 location-independent,
    §3.3 attribute-based) expose the same driving surface: an engine,
    a network, named users with agents, servers, submission, mailbox
    checks and quiescing.  [S] captures that surface once so scenario
    drivers and evaluation exist once instead of per-design
    ({!Scenario.drive}, {!Evaluation.of_system}).  Its values are the
    designs' shared {!Core.Ops} operations, documented there;
    [submit_at] takes no optional arguments. *)

(* lint: allow missing-mli — interface-only module: it declares module types, and an .mli would have to repeat it verbatim *)

module type S = sig
  type t

  type wire
  (** The design's network payload type. *)

  (** {1 Access} *)

  val engine : t -> Dsim.Engine.t
  val net : t -> wire Netsim.Net.t
  val graph : t -> Netsim.Graph.t
  val now : t -> float
  val users : t -> Naming.Name.t list
  val agent : t -> Naming.Name.t -> User_agent.t
  val server_nodes : t -> Netsim.Graph.node list

  val storage : t -> Replica_group.t
  (** {!Core.Ops.storage}. *)

  val authority_of : t -> Naming.Name.t -> Netsim.Graph.node list
  (** {!Core.Ops.authority_of}. *)

  val counters : t -> Dsim.Stats.Counter.t
  (** {!Core.Ops.counters}. *)

  val metrics : t -> Telemetry.Registry.t
  (** {!Core.Ops.metrics}. *)

  val tracer : t -> Telemetry.Tracer.t
  (** {!Core.Ops.tracer}. *)

  val submitted : t -> Message.t list
  val view : t -> User_agent.server_view

  val ledger : t -> Ledger.t
  (** {!Core.Ops.ledger}. *)

  (** {1 Operation} *)

  val submit_at :
    t ->
    at:float ->
    sender:Naming.Name.t ->
    recipient:Naming.Name.t ->
    unit ->
    Message.t

  val quiesce : ?step:float -> ?max_steps:int -> t -> unit

  val compact : t -> int
  (** {!Core.Ops.compact}. *)

  val publish_health : t -> unit
  (** {!Core.Ops.publish_health}. *)
end
