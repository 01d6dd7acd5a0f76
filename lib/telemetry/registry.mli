(** Typed metrics registry: labelled counters, gauges and latency
    histograms for one simulation run.

    A registry replaces the stringly [Stats.Counter] escape hatch as a
    system's public measurement surface: handles are typed, metrics
    carry optional labels (e.g. [polls{design="syntax"}]), histograms
    answer percentile queries (p50/p90/p99), and the whole registry
    serialises to JSON for [BENCH.json] trajectories.

    Handles are find-or-create and memoised: asking twice for the same
    (name, labels) pair returns the same handle, so hot paths can
    re-resolve cheaply.  All metrics of one registry inherit its base
    labels at serialisation time. *)

type t

type labels = (string * string) list
(** Label pairs; order is irrelevant (keys are sorted internally).
    Duplicate keys are rejected. *)

type counter
type gauge

type histogram = Dsim.Stats.Log_histogram.t
(** Exposed so a reader can take a {!Dsim.Stats.Log_histogram.copy}
    and later read the window since it with
    {!Dsim.Stats.Log_histogram.diff} ({!Monitor}, {!Timeseries}). *)

val create : ?labels:labels -> unit -> t
(** Fresh registry; [labels] become the base labels stamped on every
    metric when serialising. *)

(** {1 Counters} *)

val counter : ?labels:labels -> t -> string -> counter
(** Find or create.  @raise Invalid_argument if the (name, labels)
    pair already names a metric of another kind. *)

val incr : ?by:int -> counter -> unit

val set_counter : ?labels:labels -> t -> string -> int -> unit
(** Absolute set — for syncing an external tally (e.g. a legacy
    [Stats.Counter]) into the registry. *)

val get_counter : ?labels:labels -> t -> string -> int
(** 0 when the metric does not exist. *)

(** {1 Gauges} *)

val gauge : ?labels:labels -> t -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit

val get_gauge : ?labels:labels -> t -> string -> float
(** [nan] when the metric does not exist. *)

(** {1 Histograms}

    One {!Dsim.Stats.Log_histogram} per metric: exact count, sum, min
    and max, and percentiles within 1/128 relative error of the exact
    nearest-rank value.  No sampling and no RNG, so readouts are
    reproducible and two readings subtract. *)

val histogram : ?labels:labels -> t -> string -> histogram
(** Find or create. *)

val observe : histogram -> float -> unit
val hist_count : histogram -> int

val hist_mean : histogram -> float
val hist_min : histogram -> float
val hist_max : histogram -> float
(** [nan] when empty. *)

val percentile : histogram -> float -> float
(** {!Dsim.Stats.Log_histogram.percentile}: the nearest-rank
    percentile of every observation so far, [nan] when empty;
    [percentile h 50.], [90.], [99.] are the p50/p90/p99 readouts. *)

(** {1 Whole-registry operations} *)

val metric_names : t -> string list
(** Sorted, distinct metric names (label sets collapsed). *)

val mark_volatile : t -> string -> unit
(** Mark a metric name as volatile: its values are wall-clock or
    otherwise not reproducible run-to-run (e.g. the probe's
    [engine_handler_seconds]).  Volatile metrics are excluded from
    {!to_json} by default so JSON artifacts diff byte-identical across
    identical seeds; {!pp} still shows them. *)

(** A metric's current reading during {!iter_sorted}.  Histograms hand
    back their live handle, so visitors can query {!hist_count},
    {!hist_mean} or {!percentile} without copying. *)
type snapshot_value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram

val iter_sorted :
  ?include_volatile:bool ->
  (string -> labels -> snapshot_value -> unit) ->
  t ->
  unit
(** Visit every metric in deterministic (name, labels) order — the
    same order {!to_json} serialises in.  Volatile metrics (see
    {!mark_volatile}) are skipped unless [include_volatile] is set, so
    periodic samplers (e.g. {!Timeseries}) inherit the byte-stability
    convention for free. *)

val to_json : ?include_volatile:bool -> t -> Json.t
(** Volatile metrics (see {!mark_volatile}) are omitted unless
    [include_volatile] is set.  Stable shape:
    [{"labels": {...},
      "counters": [{"name","labels","value"} ...],
      "gauges":   [{"name","labels","value"} ...],
      "histograms": [{"name","labels","count","mean","min","max",
                      "p50","p90","p99"} ...]}]
    Histogram fields read every observation of the run so far.
    Entries are sorted by name then labels; non-finite numbers render
    as [null]. *)

val pp : Format.formatter -> t -> unit
