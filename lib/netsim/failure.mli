(** Crash/recovery failure injection.

    Outages flip a node's status in the owning {!Net} at scheduled
    virtual times.  Deterministic schedules support the unit tests;
    the random generator drives the GetMail availability sweeps
    (experiments C1/C2) where servers fail with a given rate and
    recover after exponentially distributed repair times. *)

type outage = { node : Graph.node; start : float; duration : float }

val schedule_outage : 'msg Net.t -> outage -> unit
(** Take the node down at [start] and bring it back at
    [start +. duration].
    @raise Invalid_argument on negative times. *)

val schedule_outages : 'msg Net.t -> outage list -> unit

val random_outages :
  rng:Dsim.Rng.t ->
  nodes:Graph.node list ->
  rate:float ->
  mean_duration:float ->
  horizon:float ->
  outage list
(** For each node, a Poisson process of outage starts with the given
    [rate] (per unit virtual time), each lasting Exp(1/mean_duration).
    [rate <= 0.] yields no outages.  Outages on one node may overlap,
    and {!schedule_outages} does not merge them: {!Net.set_down} and
    {!Net.set_up} are idempotent flips, so the node comes back up at
    the end of the first window even while a later window still
    covers it.  {!availability} counts the whole union as down, so on
    overlapping schedules it under-reports the time the node was
    actually up. *)

val availability : outages:outage list -> node:Graph.node -> horizon:float -> float
(** Fraction of [0, horizon] during which [node] is down in no window
    of the schedule (overlaps collapsed into their union — not what
    {!schedule_outages} makes the net do, see {!random_outages}). *)

val group_availability :
  outages:outage list -> nodes:Graph.node list -> horizon:float -> float
(** Fraction of [0, horizon] during which {e at least one} of [nodes]
    is up — the availability a replica group offers its users: the
    group is only unavailable while every chain member is down
    simultaneously.  [nodes = []] yields 0 (no server can ever
    serve). *)
