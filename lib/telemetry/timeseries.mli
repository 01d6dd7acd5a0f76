(** Virtual-time metric time series: windowed, delta-encoded snapshots
    of a {!Registry}.

    End-of-run aggregates hide bursts — a queue that spiked during a
    fault window and drained afterwards looks idle in the final
    snapshot.  A timeseries takes one sample per window (driven by a
    periodic engine event at a configurable virtual-time resolution)
    and retains, per metric, the current reading and its delta since
    the previous window.

    Two conventions keep the export deterministic:
    - metrics are visited in sorted (name, labels) order
      ({!Registry.iter_sorted});
    - volatile metrics (e.g. the wall-clock
      [engine_handler_seconds]) are excluded at sample time, so
      [TIMESERIES.json] byte-compares across identical seeded runs.

    Windows after the first are {e delta-encoded}: a metric appears in
    a window only when its reading changed (for histograms: when the
    observation count moved).  The first window is a full baseline.
    A histogram's mean and percentiles read the window's own
    observations: the bucket delta between this sample and a frozen
    copy of the previous one, so a burst shows in the window it
    happened in instead of being diluted by every earlier
    observation.  The run-to-date readout is in {!Registry.to_json}. *)

(** One metric's reading inside a window. *)
type point =
  | Counter of { value : int; delta : int }
  | Gauge of { value : float; delta : float }
  | Hist of {
      count : int;  (** cumulative observations at the sample instant. *)
      delta : int;  (** observations added since the previous window. *)
      mean : float;
      p50 : float;
      p90 : float;
      p99 : float;
          (** mean and percentiles of the [delta] observations of this
              window ({!Dsim.Stats.Log_histogram.percentile}). *)
    }

type sample = { name : string; labels : Registry.labels; point : point }

type window = {
  index : int;  (** 0-based window number. *)
  time : float;  (** virtual time of the sample. *)
  samples : sample list;  (** sorted by (name, labels); delta-encoded. *)
}

type t

val create : resolution:float -> unit -> t
(** A fresh series sampling at the given virtual-time resolution (the
    intended window length; recorded in the export, used by monitors
    for rate readouts).  @raise Invalid_argument if
    [resolution <= 0.]. *)

val resolution : t -> float

val sample : t -> at:float -> Registry.t -> window
(** Take the next window at virtual time [at]: read every
    non-volatile metric, emit the changed ones, remember the readings
    for the next delta.  Returns the window just recorded. *)

val window_count : t -> int
val windows : t -> window list
(** All recorded windows, oldest first. *)

val to_json : t -> Json.t
(** The [TIMESERIES.json] document:
    [{"schema":"mailsys.timeseries/2","resolution":…,
      "windows":[{"index","time",
                  "counters":[{"name","labels","value","delta"}…],
                  "gauges":[{"name","labels","value","delta"}…],
                  "histograms":[{"name","labels","count","delta",
                                 "mean","p50","p90","p99"}…]}…]}]
    Byte-identical across identical seeded runs (volatile metrics are
    never sampled); non-finite numbers render as [null]. *)
