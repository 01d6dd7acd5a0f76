(** Bounded span collector: creation, per-trace reassembly, exports.

    A tracer is bounded: a ring buffer retains the most recent
    [capacity] spans, older spans are dropped oldest-first, and
    {!total} keeps counting everything ever collected — so long
    simulations cannot grow memory without bound.

    Spans created through one tracer get tracer-unique span ids;
    a span created with neither [?trace] nor [?parent] opens a fresh
    trace.  Mutating an already-collected span (finishing it, adding
    attributes) is always safe: the buffer holds the same record the
    caller does. *)

type t

val create : ?capacity:int -> ?sample:int -> unit -> t
(** Bounded collector retaining the most recent [capacity] spans
    (default 65536), head-sampling 1-in-[sample] keys (default 1: every
    key; see {!sampled}).  @raise Invalid_argument when [capacity <= 0]. *)

val sampled : t -> int -> bool
(** [sampled t key] is the one head-sampling rule callers apply before
    opening a trace: [sample <= 1 || key mod sample = 0].  Keys are
    deterministic ids (a message id, an interned user id), so the same
    run traces the same work every time.  {!span} itself never
    samples: a caller holding a span of a sampled trace always
    records. *)

val span :
  t ->
  ?trace:int ->
  ?parent:Span.t ->
  ?attrs:(string * string) list ->
  ?finish:float ->
  name:string ->
  start:float ->
  unit ->
  Span.t
(** Create and collect a span.  [?parent] places it under that span
    (inheriting its trace; [?trace] is then ignored); [?trace] alone
    appends a parentless span to an existing trace; with neither, a
    fresh trace is opened and the span is its root.  [?finish] closes
    the span immediately (instant events pass [~finish:start]). *)

(** {1 Reading back} *)

val spans : t -> Span.t list
(** Retained spans, oldest first. *)

val total : t -> int
(** All spans ever collected, including dropped ones. *)

val dropped : t -> int
(** Spans lost to ring-buffer overflow ([total - retained]).  Published
    by the metric snapshotters as the [trace_dropped] counter so a
    too-small buffer is visible instead of silently truncating
    critical-path analyses. *)

val count : ?name:string -> ?trace:int -> t -> int
(** Retained spans matching the optional filters. *)

val clear : t -> unit

(** {1 Per-trace reassembly} *)

val trace_ids : t -> int list
(** Distinct trace ids among retained spans, ascending. *)

val trace_spans : t -> int -> Span.t list
(** One trace's retained spans, ordered by start time then span id. *)

val traces : t -> (int * Span.t list) list
(** All retained traces: [(trace_id, spans)] with spans ordered as in
    {!trace_spans}, ascending trace id. *)

type tree = { span : Span.t; children : tree list }
(** Reassembled span tree; children ordered by start then span id. *)

val forest : Span.t list -> tree list
(** Build trees from a span list: a span whose parent id is absent
    from the list becomes a root. *)

val trees : t -> int -> tree list
(** [forest (trace_spans t id)]. *)

val is_connected : Span.t list -> bool
(** The spans reassemble into exactly one tree — every parent
    reference resolves and there is a single root. *)

(** {1 Exports} *)

val to_jsonl : t -> string
(** One compact JSON object per line ({!Span.to_json} shape), oldest
    first — the [--trace-out] / [TRACE.jsonl] format. *)

val to_chrome : t -> Json.t
(** Chrome [trace_event] JSON (open via [chrome://tracing] or
    [ui.perfetto.dev]): complete events ([ph:"X"]) with one virtual
    time unit mapped to one microsecond, [pid] 1 and one [tid] per
    trace so each trace renders as its own row. *)

val pp : Format.formatter -> t -> unit
