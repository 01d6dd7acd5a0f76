(** Online statistics accumulators used to measure simulation runs.

    All accumulators are single-pass and O(1) memory except
    {!Reservoir}, which keeps a bounded sample for percentile
    estimation. *)

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
  val merge : t -> t -> t
  (** [merge a b] combines two accumulators (Chan's parallel update). *)

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

(** Fixed-bucket histogram over [\[lo, hi)] with uniform bucket width;
    values outside the range land in under/overflow buckets. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> buckets:int -> t
  val add : t -> float -> unit
  val count : t -> int
  val underflow : t -> int
  val overflow : t -> int
  val bucket_counts : t -> (float * float * int) array
  (** [(lo, hi, count)] per bucket. *)

  val merge : t -> t -> t
  (** Bucket-wise sum of two histograms.
      @raise Invalid_argument on differing ranges or bucket counts. *)

  val pp : Format.formatter -> t -> unit
end

(** Bounded uniform sample (Vitter's algorithm R) for percentiles. *)
module Reservoir : sig
  type t

  val create : ?capacity:int -> Rng.t -> t
  (** Default capacity 4096. *)

  val add : t -> float -> unit
  val count : t -> int
  (** Number of values offered (not retained). *)

  val values : t -> float array
  (** The retained sample, in insertion order (a fresh copy). *)

  val percentile : t -> float -> float
  (** [percentile r p] for [p] in [\[0,100\]], by linear interpolation
      over the retained sample.  [nan] when empty. *)

  val median : t -> float
end
