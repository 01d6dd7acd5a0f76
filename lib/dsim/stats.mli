(** Online statistics accumulators used to measure simulation runs.

    All accumulators are single-pass; {!Log_histogram} keeps 64
    counters for each power of two its values span. *)

(** Running mean / variance by Welford's algorithm. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 observations yield [nan]. *)

  val variance : t -> float
  (** Unbiased sample variance; fewer than 2 observations yield [0.]. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float

  val pp : Format.formatter -> t -> unit
end

(** Monotonic counters keyed by string, for event tallies. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit

  val cell : t -> string -> int ref
  (** Pre-resolved handle for [key], created at zero on first use:
      resolve once at wiring time, then bump the raw int ref on the
      hot path with no hashing.  The same ref backs [incr]/[get]. *)

  val get : t -> string -> int
  (** Unknown keys read as 0. *)

  val to_list : t -> (string * int) list
  (** Sorted by key; keys whose count is zero are omitted, so a
      never-bumped {!cell} does not appear. *)

  val pp : Format.formatter -> t -> unit
end

(** Log-linear histogram with bounded relative error (the layout of
    HdrHistogram; DDSketch, Masson et al., VLDB 2019, bounds the error
    the same way).

    Each power of two is split into 64 equal-width buckets, so a
    bucket's width is at most 1/64 of its lower edge.  Values [x <= 0]
    share one zero bucket.  Count, sum, min and max are exact.  Counts
    are exact too and nothing is sampled, so two readings of one
    histogram subtract ({!diff}): the percentiles of the observations
    added between them come from the bucket deltas. *)
module Log_histogram : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  (** Allocates only when [x] falls in an octave the histogram has not
      seen before. *)

  val count : t -> int
  val sum : t -> float

  val mean : t -> float
  (** [nan] when empty. *)

  val min : t -> float
  val max : t -> float
  (** [nan] when empty.  Exact, except in a {!diff}, where they are the
      readouts of its lowest and highest non-empty buckets. *)

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [\[0,100\]]: the nearest-rank
      percentile, i.e. the observation of rank [ceil (p/100 * count)]
      (at least 1).  Rank 1 reads {!min} and rank [count] reads {!max};
      any other rank reads its bucket's midpoint clamped to
      [\[min, max\]], within 1/128 of the exact value (0 for the zero
      bucket).  [nan] when empty. *)

  val copy : t -> t
  (** A frozen reading: later {!add}s to the original do not touch it. *)

  val diff : t -> t -> t
  (** [diff later earlier] holds the observations added to a histogram
      between an earlier {!copy} of it and [later].
      @raise Invalid_argument when [earlier] has more observations. *)
end
