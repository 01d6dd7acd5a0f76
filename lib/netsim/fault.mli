(** Declarative, deterministic fault campaigns — the one way a node or
    link goes down.

    A {e campaign} is a pure description of several fault processes
    that is expanded ({!compile}) against a concrete topology into a
    reproducible schedule of down/up windows, armed ({!apply}) on a
    live {!Net.t}, and measured ({!availability}).  Campaigns drive the
    GetMail availability sweeps (experiments C1/C2, as [Crashes]) and
    the no-lost-mail invariant checks of §3.1.2c: the delivery pipeline
    must not lose or duplicate mail under any of these faults.  A fixed
    outage is a hand-written one-window {!schedule}.

    Four fault processes are supported:

    - [Crashes]: per-server Poisson crash/restart process with a
      configurable repair-time distribution;
    - [Link_cuts]: the same process per network link (the cut link
      disappears from routing, see {!Net.set_link_down});
    - [Partition]: every link crossing the boundary of a named region
      goes down for one window, isolating the region;
    - [Burst]: a correlated mass failure — a random fraction of the
      servers crash at the same instant and recover together.

    Campaigns are also expressible as flag strings (see {!parse}), e.g.
    [crash:0.002/150,link:0.001,partition:regionA@1500+600,burst:0.3]. *)

(** Repair-time law for recurring faults. *)
type repair =
  | Fixed of float  (** constant downtime. *)
  | Exp_mean of float  (** exponential with the given mean. *)

type fault =
  | Crashes of { rate : float; repair : repair }
      (** Each server fails as a Poisson process with [rate] failures
          per unit time. *)
  | Link_cuts of { rate : float; repair : repair }
      (** Each link is cut as a Poisson process with [rate]. *)
  | Partition of { region : string; start : float option; duration : float option }
      (** Cut all links with exactly one endpoint in [region].
          Defaults: [start = horizon / 3], [duration = horizon / 4]. *)
  | Burst of { fraction : float; at : float option; duration : float option }
      (** [fraction] of the servers (at least one, chosen by the
          campaign RNG) crash simultaneously.  Defaults:
          [at = horizon / 2], [duration = horizon / 10]. *)

type campaign = { seed : int; faults : fault list }

val no_faults : campaign
(** [{ seed = 0; faults = [] }]. *)

type target = Node of Graph.node | Link of Graph.node * Graph.node

type window = {
  target : target;
  kind : string;  (** ["crash"], ["link"], ["partition"] or ["burst"]. *)
  start : float;
  duration : float;
}

type schedule = { windows : window list; horizon : float }

val compile :
  ?salt:int ->
  graph:Graph.t ->
  servers:Graph.node list ->
  horizon:float ->
  campaign ->
  schedule
(** Expand the campaign into concrete fault windows.  All randomness
    comes from a generator seeded with [campaign.seed] (xor-mixed with
    [salt], default 0, so one campaign can drive several independent
    runs): same campaign, graph, servers and horizon — same schedule.
    Node faults ([Crashes], [Burst]) target [servers]; link faults
    target the graph's edges.
    @raise Invalid_argument on a non-positive horizon, an unknown
    partition region, or a [Partition]/[Burst] start at or after the
    horizon. *)

val availability : schedule -> node:Graph.node -> float
(** Fraction of [0, horizon] during which no [Node node] window covers
    [node].  Overlapping windows count once, as their union — the time
    {!apply}'s depth count keeps the node down.  Windows are clipped at
    the horizon; a non-positive horizon yields 1. *)

val group_availability : schedule -> nodes:Graph.node list -> float
(** Fraction of [0, horizon] during which {e at least one} of [nodes]
    is up — the availability a replica group offers its users: the
    group is only unavailable while every chain member is down
    simultaneously.  [nodes = []] yields 0 (no server can ever
    serve). *)

val apply :
  ?on_event:(time:float -> window -> bool -> unit) ->
  'msg Net.t ->
  schedule ->
  unit
(** Arm every window on the network's engine (category ["fault"]).
    Overlapping windows on one target are depth-counted: the target
    recovers when the last covering window ends.  [on_event] fires at
    each effective status change ([false] = went down, [true] = came
    back), after the network state was updated.
    @raise Invalid_argument on negative window times (at scheduling
    time, i.e. immediately). *)

val heal : 'msg Net.t -> schedule -> unit
(** Force every target of the schedule back up/reconnected — used to
    drain in-flight mail after the measured horizon. *)

val parse : string -> campaign
(** Parse the flag syntax: comma-separated items, each [KIND:SPEC].

    - [crash:RATE], [crash:RATE/MEAN], [crash:RATE/=FIXED] — server
      crash process; repair exponential with mean [MEAN] (default 150)
      or constant [FIXED].
    - [link:RATE[/MEAN|/=FIXED]] — link-cut process, same shape.
    - [partition:REGION], [partition:REGION@START+DURATION].
    - [burst:FRACTION], [burst:FRACTION@START+DURATION].
    - [seed:N] — the campaign seed (default 0).

    @raise Invalid_argument on malformed input. *)

val to_string : campaign -> string
(** Inverse of {!parse} (up to item order and float formatting). *)

val standard : campaign
(** The campaign the benchmark and fault experiments share:
    [seed:5,crash:0.002/150,link:0.0008,partition:r1@1500+600,burst:0.25]
    — background server crashes with exponential repair, a link-cut
    process, one regional partition window and a crash burst.  Defined
    once so "under the standard fault campaign" means the same thing
    everywhere. *)

val pp : Format.formatter -> campaign -> unit
