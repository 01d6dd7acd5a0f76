(** Critical-path analysis over collected traces: where does one
    message's end-to-end latency go?

    The analyzer reassembles every retained trace whose root span has
    a given name (default ["message"]), sums the durations of each
    stage (= span name) inside each trace, and reports the
    distribution of those per-trace sums across traces: p50/p90/p99,
    mean, max and total per stage.  Because the delivery stages
    (submit, queue waits, forwarding hops, mailbox dwell, retrieval
    poll) are sequential, the per-stage sums decompose the root span's
    duration — which is reported as the synthetic stage ["total"]. *)

type stage = {
  stage : string;  (** span name, or ["total"] for the root duration. *)
  traces : int;  (** traces containing at least one finished such span. *)
  spans : int;  (** finished spans summed across those traces. *)
  total : float;  (** grand total virtual time across traces. *)
  mean : float;  (** mean per-trace sum. *)
  p50 : float;
  p90 : float;
  p99 : float;
      (** nearest-rank percentiles of the per-trace sums, read from a
          {!Dsim.Stats.Log_histogram} like every registry histogram:
          within 1/128 of the exact value, and exact for the lowest
          and highest rank, so a single sample is every percentile. *)
  max : float;
}

type report = {
  root : string;  (** root-span name the analysis selected on. *)
  traces : int;  (** traces with such a root. *)
  complete : int;  (** of those, traces whose root span is finished. *)
  stages : stage list;  (** sorted by stage name. *)
}

val analyze : ?root:string -> Tracer.t -> report
(** Analyze the tracer's retained spans; [root] defaults to
    ["message"] (pass e.g. ["getmail.check"] to break down retrieval
    checks instead).  An empty tracer (or one with no matching root)
    yields [traces = 0] and no stages.  A stage absent from some
    traces is summarised over the traces that do contain it — its
    [traces] count says how many — not padded with zeros, so a rare
    stage's percentiles describe the traces where it happened. *)

val to_json : report -> Json.t
(** Stable shape: [{"root","traces","complete","stages":[{"stage",
    "traces","spans","total","mean","p50","p90","p99","max"} ...]}];
    non-finite numbers render as [null]. *)

val pp : Format.formatter -> report -> unit
(** A fixed-width table, one row per stage. *)
