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
    [int array] sequence numbers and tags, payloads in their own array.
    Pushing and popping move plain words between preallocated arrays,
    so the steady state allocates nothing — this arena backs the
    simulation engine's event queue.  Order is identical to the boxed
    heap above: ascending priority, FIFO among ties. *)
module Arena : sig
  type 'a t

  val create : ?capacity:int -> dummy:'a -> unit -> 'a t
  (** Preallocates all four backing arrays at [capacity] (default 64)
      entries; the arena doubles past the hint automatically.  [dummy]
      fills vacated payload slots so popped values are not retained.
      @raise Invalid_argument if [capacity < 1]. *)

  val length : 'a t -> int
  val is_empty : 'a t -> bool

  val push : 'a t -> prio:float -> tag:int -> 'a -> int
  (** Insert a payload with an integer [tag] riding along; returns the
      entry's sequence number (dense from 0, the FIFO tie-break key).
      @raise Invalid_argument if [prio] is NaN. *)

  val top_prio : 'a t -> float
  (** Priority of the minimum entry.  @raise Invalid_argument when empty. *)

  val top_seq : 'a t -> int
  (** Sequence number of the minimum entry. *)

  val top_tag : 'a t -> int
  (** Tag of the minimum entry. *)

  val top : 'a t -> 'a
  (** Payload of the minimum entry. *)

  val mem_seq : 'a t -> int -> bool
  (** Whether the entry with this sequence number is still queued: a
      linear scan, for rare callers (cancellation), never per event. *)

  val drop : 'a t -> unit
  (** Remove the minimum entry (read it with the [top_*] accessors
      first — dropping clears the payload slot).
      @raise Invalid_argument when empty. *)
end
