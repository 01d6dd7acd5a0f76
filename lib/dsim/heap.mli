(** Binary min-heap keyed by [float] priority.

    Ties are broken FIFO: of two entries with equal priority, the one
    inserted first is popped first.  This property matters for the
    simulation engine, where events scheduled at the same instant must
    fire in scheduling order to keep runs deterministic. *)

type 'a t
(** Mutable heap holding values of type ['a]. *)

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty heap.  [capacity] pre-sizes the backing
    array (default 64) so a heap that will hold many entries — e.g. an
    engine queue with a whole workload scheduled up front — skips the
    doubling regrowths; the heap still grows automatically past the
    hint.  The array is allocated lazily at the first {!push}.
    @raise Invalid_argument if [capacity < 1]. *)

val length : 'a t -> int
(** Number of entries currently stored. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> float -> 'a -> unit
(** [push h prio v] inserts [v] with priority [prio].
    @raise Invalid_argument if [prio] is NaN. *)

val peek : 'a t -> (float * 'a) option
(** Minimum-priority entry without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority entry, FIFO among ties. *)

val pop_exn : 'a t -> float * 'a
(** Like {!pop}. @raise Not_found if the heap is empty. *)

val clear : 'a t -> unit
(** Remove every entry. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** Non-destructive snapshot in ascending priority (FIFO among ties). *)

(** Flat structure-of-arrays min-heap: unboxed [float array] priorities,
    [int array] sequence numbers and tags, and no payload array.
    Pushing and popping move plain words between preallocated arrays,
    so the steady state allocates nothing and a sift pays no write
    barrier.  A caller with a payload keeps it in its own slot array
    and pushes the slot index as the tag (the simulation engine's
    event queue does); Dijkstra's frontier pushes the node itself.
    Order is identical to the boxed heap above: ascending priority,
    FIFO among ties. *)
module Arena : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Preallocates the three backing arrays at [capacity] (default 64)
      entries; the arena doubles past the hint automatically.
      @raise Invalid_argument if [capacity < 1]. *)

  val length : t -> int
  val is_empty : t -> bool

  val push : t -> prio:float -> tag:int -> int
  (** Insert an entry with an integer [tag] riding along; returns the
      entry's sequence number (the FIFO tie-break key).
      @raise Invalid_argument if [prio] is NaN. *)

  val take_seq : t -> int
  (** Issue the next sequence number without inserting anything.  A
      caller that keeps some entries outside the arena (the engine's
      FIFO lanes) numbers them from the same counter, so one
      (priority, sequence) order spans the arena and its own queues:
      sequence numbers are dense from 0 across [push] and [take_seq]. *)

  val top_prio : t -> float
  (** Priority of the minimum entry.  @raise Invalid_argument when empty. *)

  val prios : t -> float array
  (** The backing priority array: index 0 holds the minimum's priority
      when the arena is non-empty.  A [float] returned by {!top_prio}
      from another compilation unit is boxed at every call, so a caller
      on a per-event path reads [(prios h).(0)] instead, allocation
      free.  Read-only, and valid until the next {!push}, which may
      replace the array. *)

  val top_seq : t -> int
  (** Sequence number of the minimum entry. *)

  val top_tag : t -> int
  (** Tag of the minimum entry. *)

  val mem_seq : t -> int -> bool
  (** Whether the entry with this sequence number is still queued: a
      linear scan, for rare callers (cancellation), never per event. *)

  val drop : t -> unit
  (** Remove the minimum entry (read it with the [top_*] accessors
      first).  @raise Invalid_argument when empty. *)
end
