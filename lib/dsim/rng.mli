(** Deterministic pseudo-random number generation for simulations.

    The generator is splitmix64: tiny state, excellent statistical
    quality for simulation purposes, and — crucially for reproducible
    experiments — fully deterministic from its integer seed.  Every
    stochastic component of the simulator draws from an explicit [t]
    so that runs are replayable and independent streams can be split
    off per component. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split g] derives an independent generator from [g], advancing
    [g].  Use one stream per simulated component to keep components'
    draws independent of each other's call order. *)

val copy : t -> t
(** Snapshot of the current state; the copy evolves independently. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. [bound] must be
    positive and finite. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p] (clamped to
    [\[0,1\]]). *)

val uniform : t -> float -> float -> float
(** [uniform g lo hi] is uniform in [\[lo, hi)]. *)

val exponential : t -> float -> float
(** [exponential g rate] draws from Exp(rate); mean [1. /. rate].
    @raise Invalid_argument if [rate <= 0]. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf g ~n ~s] draws a rank in [\[1, n\]] from a Zipf distribution
    with exponent [s] (by inverse-CDF over precomputed weights is too
    costly per call, so rejection-inversion is used).
    @raise Invalid_argument if [n <= 0]. *)

val choice : t -> 'a array -> 'a
(** Uniformly random element. @raise Invalid_argument on empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
