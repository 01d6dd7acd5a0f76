(** Discrete-event simulation engine.

    An engine owns a virtual clock and a pending-event queue.  Events
    are thunks scheduled at absolute or relative virtual times; running
    the engine pops events in time order (FIFO among simultaneous
    events) and executes them, which typically schedules further
    events.  There is no real concurrency: determinism is total given
    the same seed and schedule.

    The queue is a binary heap plus one FIFO lane per non-default
    category.  Every event takes a sequence number from the heap's one
    counter ({!Heap.Arena.take_seq}), and the only order that matters
    is (time, sequence number) — the order a single heap holding every
    event pops in.  An event at or after its category's lane tail is
    appended to that lane; any other event, and every event of the
    default category, goes to the heap.  Appended events carry ever
    larger sequence numbers, so each lane is sorted by (time, sequence
    number) and the least queued event is the lesser of the heap top
    and the least lane head (cached).  Execution order is therefore
    exactly the single heap's: ascending time, FIFO among equal times.
    Fixed-delay timers, time-sorted up-front schedules and recurring
    sweeps cost O(1) per push and pop on their lanes; only
    out-of-order events pay a heap sift.  Actions wait in one payload
    slot array, and the heap ({!Heap.Arena}) and lanes hold slot
    indices next to unboxed times and sequence numbers, so the steady
    state allocates nothing beyond the caller's action closure. *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

type category
(** Interned event-category id.  Categories tag events for {!profile};
    hot paths intern once at wiring time with {!category} and schedule
    with {!schedule_at_cat}/{!schedule_after_cat} so no string is
    touched per event. *)

val create : ?capacity:int -> unit -> t
(** Fresh engine with clock at 0.  [capacity] pre-sizes the event
    arena (default 64) so a run that schedules a whole workload up
    front skips the doubling regrowths. *)

val now : t -> float
(** Current virtual time. *)

val category : t -> string -> category
(** Intern a category name (idempotent).  The default category
    ["event"] is always interned first. *)

val category_name : t -> category -> string
(** Inverse of {!category}.
    @raise Invalid_argument on a foreign id. *)

val schedule_at : ?category:string -> t -> float -> (unit -> unit) -> event_id
(** [schedule_at t time f] runs [f] at virtual [time].  [category]
    (default ["event"]) tags the event for {!profile}.
    @raise Invalid_argument if [time] is in the past. *)

val schedule_after : ?category:string -> t -> float -> (unit -> unit) -> event_id
(** [schedule_after t delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay < 0.]. *)

val schedule_at_cat : t -> category -> float -> (unit -> unit) -> event_id
(** {!schedule_at} with a pre-interned category: the hot-path variant,
    no string lookup per event. *)

val schedule_after_cat : t -> category -> float -> (unit -> unit) -> event_id
(** {!schedule_after} with a pre-interned category. *)

val every :
  ?category:string -> t -> period:float -> until:float -> (unit -> unit) -> unit
(** [every t ~period ~until f] runs [f] at [now + period],
    [now + 2*period], … up to and including [until] — the recurring
    helper behind periodic virtual-time sampling.  One reusable event
    closure re-arms itself from inside the handler, so the recurrence
    interleaves in time order with the rest of the schedule without
    churning a closure per tick.
    @raise Invalid_argument if [period <= 0.]. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event, wherever it waits (heap or lane);
    cancelling an already-fired, already cancelled or unknown event is
    a no-op.  Checking that the id is still queued scans the heap and
    every lane (O({!pending})), so cancellation is for rare callers,
    not per-event paths.  A cancelled event stays queued as a tombstone
    that popping skips, so the order of the rest is unchanged.
    @raise Invalid_argument on a negative id. *)

val pending : t -> int
(** Number of live events still queued, heap and lanes together;
    cancelled events are excluded. *)

(** {1 Inline events}

    A caller that owns a long recurring series (the scenario's GetMail
    sweep) can run most of its occurrences without queueing them: from
    inside a handler it asks {!next_time}, and when its own next
    occurrence is strictly earlier it calls {!advance} and does the
    work inline.  Otherwise it schedules itself once through the queue.
    The clock, {!events_executed} and {!profile} then read exactly as
    if every occurrence had been queued.

    Ties: an inline occurrence due at the same time as the queue head
    must defer to the head (schedule itself, which places it after
    every event already queued at that time).  A queued series would
    instead order such a tie by when each event was scheduled. *)

val next_time : t -> float
(** Virtual time of the next live queued event, after dropping any
    cancelled tombstones at the head; [infinity] when none is queued. *)

val advance : t -> category -> float -> unit
(** [advance t cat time] sets the clock to [time] and counts one
    executed event of [cat], as popping an event would.  The caller
    guarantees [time < next_time t] so queue order is kept.
    @raise Invalid_argument if [time] is before {!now}. *)

val run : ?until:float -> t -> unit
(** Execute events in order until the queue empties, or until the
    first event strictly after [until] (which remains queued and the
    clock advances to exactly [until]). *)

val step : t -> bool
(** Execute the single next event.  [false] if none remained. *)

val events_executed : t -> int
(** Total events executed so far, for complexity accounting. *)

(** {1 Profiling}

    The engine counts executed events per interned category in flat
    int cells.  When an instrumentation callback is installed, each
    {!run} slice (and each {!step}) is timed as a batch on the
    instrument's own clock — virtual time never advances inside a
    handler — and reported once per slice, so a metrics registry pays
    no per-event cost.

    The engine never reads a wall clock itself: the caller supplies
    [timer] (e.g. the telemetry probe passes [Sys.time]), keeping
    deterministic simulation code free of ambient time sources. *)

val set_instrument : ?timer:(unit -> float) -> t -> (seconds:float -> unit) -> unit
(** Install the (single) instrumentation callback, replacing any
    previous one.  Called after each {!run} slice and each {!step}
    with the elapsed time measured with [timer] (default: a zero
    clock, so [seconds] is 0 unless a real timer is supplied). *)

val clear_instrument : t -> unit

val handler_seconds : t -> float
(** Cumulative instrumented run-slice seconds (0 without a timer). *)

val profile : t -> (string * int) list
(** Executed-event count per category, sorted by category name;
    categories with no executed events are omitted. *)
