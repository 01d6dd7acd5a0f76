type category = int

type instrument = { timer : unit -> float; report : seconds:float -> unit }

(* The pending-event queue is a binary heap plus one FIFO lane per
   non-default category.

   Every event gets a sequence number from the heap's one counter
   ([Heap.Arena.take_seq]/[push]), and the single order that matters is
   (time, seq): the order one heap holding every event would pop in.
   An event whose time is at or after its lane's tail is appended to
   that lane; any other event (and every default-category event) goes
   to the heap.  Appends carry ever larger sequence numbers, so each
   lane is sorted by (time, seq) and its head is its least entry; the
   queue's least entry is therefore the lesser of the heap top and the
   least lane head, which is cached in [best].  Fixed-delay timers,
   up-front time-sorted schedules and recurring sweeps ride their lanes
   at O(1) per push and pop; only out-of-order events (mostly [Net]
   deliveries, scheduled in the default category) pay a heap sift.

   A lane entry's action sits in the lane next to its time and
   sequence number, written once and never moved.  A heap entry's
   action and category wait in a payload slot
   ([slot_actions]/[slot_cats]) and the heap (a flat [Heap.Arena])
   carries the slot index as its tag, so a sift moves three scalars per
   level, never a closure. *)
type lane = {
  mutable times : float array;  (* ring buffer, power-of-two capacity *)
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable head : int;
  mutable len : int;
}

type t = {
  heap : Heap.Arena.t;  (* out-of-order events; tag = payload slot *)
  mutable slot_actions : (unit -> unit) array;
  mutable slot_cats : int array;
      (* a queued slot's category; a free slot's next free slot (-1 at
         the end of the free list) *)
  mutable free : int;  (* head of the free-slot list, -1 when none *)
  mutable lanes : lane array;  (* by category; lane 0 (default) stays empty *)
  mutable lane_entries : int;
  mutable best : int;  (* category with the least lane head; -1 when none *)
  mutable src : int;
      (* where the settled head lives: -1 the heap, else a lane's
         category — set by [settle_head], read by [exec]. *)
  (* Interned categories: name -> id once at wiring time, then all
     per-event accounting is an [int array] bump. *)
  cat_ids : (string, category) Hashtbl.t;
  mutable cat_names : string array;
  mutable cat_events : int array;
  mutable cat_count : int;
  mutable instrument : instrument option;
  mutable clock : float;
  mutable executed : int;
}

let new_lane () = { times = [||]; seqs = [||]; actions = [||]; head = 0; len = 0 }

let category t name =
  match Hashtbl.find_opt t.cat_ids name with
  | Some id -> id
  | None ->
      let id = t.cat_count in
      if id = Array.length t.cat_names then begin
        let cap = 2 * id in
        let names = Array.make cap "" in
        Array.blit t.cat_names 0 names 0 id;
        t.cat_names <- names;
        let events = Array.make cap 0 in
        Array.blit t.cat_events 0 events 0 id;
        t.cat_events <- events;
        let lanes = Array.make cap t.lanes.(0) in
        Array.blit t.lanes 0 lanes 0 id;
        t.lanes <- lanes
      end;
      t.cat_names.(id) <- name;
      t.lanes.(id) <- new_lane ();
      t.cat_events.(id) <- 0;
      Hashtbl.replace t.cat_ids name id;
      t.cat_count <- id + 1;
      id

let default_category = 0

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  let t =
    {
      heap = Heap.Arena.create ~capacity ();
      slot_actions = Array.make capacity ignore;
      slot_cats = Array.init capacity (fun i -> if i + 1 < capacity then i + 1 else -1);
      free = 0;
      lanes = Array.make 8 (new_lane ());
      lane_entries = 0;
      best = -1;
      src = -1;
      cat_ids = Hashtbl.create 8;
      cat_names = Array.make 8 "";
      cat_events = Array.make 8 0;
      cat_count = 0;
      instrument = None;
      clock = 0.;
      executed = 0;
    }
  in
  (* Intern the default category first so it is always id 0. *)
  ignore (category t "event");
  t

let now t = t.clock

let grow_slots t =
  let n = Array.length t.slot_actions in
  let actions = Array.make (2 * n) ignore in
  Array.blit t.slot_actions 0 actions 0 n;
  t.slot_actions <- actions;
  (* Every old slot is taken, so the free list is just the new ones. *)
  let cats = Array.init (2 * n) (fun i -> if i + 1 < 2 * n then i + 1 else -1) in
  Array.blit t.slot_cats 0 cats 0 n;
  t.slot_cats <- cats;
  t.free <- n

let heap_push t cat time action =
  if t.free < 0 then grow_slots t;
  let slot = t.free in
  t.free <- t.slot_cats.(slot);
  t.slot_actions.(slot) <- action;
  t.slot_cats.(slot) <- cat;
  ignore (Heap.Arena.push t.heap ~prio:time ~tag:slot : int)

let grow_lane l =
  let n = Array.length l.times in
  let cap = if n = 0 then 16 else 2 * n in
  let times = Array.make cap 0. and seqs = Array.make cap 0 in
  let actions = Array.make cap ignore in
  for k = 0 to l.len - 1 do
    let i = (l.head + k) land (n - 1) in
    times.(k) <- l.times.(i);
    seqs.(k) <- l.seqs.(i);
    actions.(k) <- l.actions.(i)
  done;
  l.times <- times;
  l.seqs <- seqs;
  l.actions <- actions;
  l.head <- 0

(* (time, seq) order between two non-empty lanes' heads. *)
let head_before a b =
  let ta = a.times.(a.head) and tb = b.times.(b.head) in
  ta < tb || (ta = tb && a.seqs.(a.head) < b.seqs.(b.head))

(* The category of the least non-empty lane head from [c] on, or
   [best] — a scan over the handful of interned categories. *)
let rec min_lane t c best =
  if c >= t.cat_count then best
  else
    let l = t.lanes.(c) in
    if l.len > 0 && (best < 0 || head_before l t.lanes.(best)) then min_lane t (c + 1) c
    else min_lane t (c + 1) best

(* Append to a lane whose tail is at or before [time]: the fresh
   sequence number is the largest issued, so the lane stays sorted.
   A lane that was empty may now hold the least head. *)
let lane_push t cat l time action =
  if l.len = Array.length l.times then grow_lane l;
  let seq = Heap.Arena.take_seq t.heap in
  let i = (l.head + l.len) land (Array.length l.times - 1) in
  l.times.(i) <- time;
  l.seqs.(i) <- seq;
  l.actions.(i) <- action;
  l.len <- l.len + 1;
  t.lane_entries <- t.lane_entries + 1;
  if l.len = 1 then begin
    let b = t.best in
    if b < 0 || time < (let lb = t.lanes.(b) in lb.times.(lb.head)) then t.best <- cat
  end

let in_the_past t time =
  invalid_arg
    (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.clock)

let schedule_at_cat t cat time action =
  if time < t.clock then in_the_past t time;
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  if cat = default_category then heap_push t cat time action
  else
    let l = t.lanes.(cat) in
    if
      l.len = 0
      || time >= l.times.((l.head + l.len - 1) land (Array.length l.times - 1))
    then lane_push t cat l time action
    else heap_push t cat time action

let schedule_at ?category:cat t time action =
  let cat =
    match cat with None -> default_category | Some name -> category t name
  in
  schedule_at_cat t cat time action

let schedule_after_cat t cat delay action =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at_cat t cat (t.clock +. delay) action

let schedule_after ?category:cat t delay action =
  let cat =
    match cat with None -> default_category | Some name -> category t name
  in
  schedule_after_cat t cat delay action

(* A single reusable closure re-arms itself across firings, so a
   long-running recurrence churns no per-tick closures. *)
let every ?category:cat t ~period ~until f =
  if period <= 0. then invalid_arg "Engine.every: period must be positive";
  let cat =
    match cat with None -> default_category | Some name -> category t name
  in
  let next = ref (t.clock +. period) in
  let rec tick () =
    f ();
    let at = !next +. period in
    if at <= until then begin
      next := at;
      schedule_at_cat t cat at tick
    end
  in
  if !next <= until then schedule_at_cat t cat !next tick

let pending t = Heap.Arena.length t.heap + t.lane_entries

(* The engine itself never reads a wall clock: the instrument supplies
   its own timer (the telemetry probe passes one), so deterministic sim
   code stays free of ambient time sources. *)
let set_instrument ?(timer = fun () -> 0.) t report =
  t.instrument <- Some { timer; report }

let profile t =
  let acc = ref [] in
  for id = t.cat_count - 1 downto 0 do
    if t.cat_events.(id) > 0 then acc := (t.cat_names.(id), t.cat_events.(id)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* Remove the heap top and free its payload slot. *)
let drop_heap t =
  let slot = Heap.Arena.top_tag t.heap in
  Heap.Arena.drop t.heap;
  t.slot_actions.(slot) <- ignore;
  t.slot_cats.(slot) <- t.free;
  t.free <- slot

(* Remove a lane's head and re-find the least lane head. *)
let drop_lane t l =
  l.actions.(l.head) <- ignore;
  l.head <- (l.head + 1) land (Array.length l.times - 1);
  l.len <- l.len - 1;
  t.lane_entries <- t.lane_entries - 1;
  t.best <- min_lane t 1 (-1)

(* Find the least queued event — the heap top or the cached least lane
   head, whichever is first in (time, seq); [true] if one is queued,
   with its source in [t.src]. *)
let settle_head t =
  let q = t.heap and b = t.best in
  t.src <-
    (if b < 0 || Heap.Arena.is_empty q then b
     else
       let l = t.lanes.(b) in
       let ht = (Heap.Arena.prios q).(0) and lt = l.times.(l.head) in
       if ht < lt || (ht = lt && Heap.Arena.top_seq q < l.seqs.(l.head)) then -1 else b);
  t.src >= 0 || not (Heap.Arena.is_empty q)

(* Time of the settled head.  Times are read straight from the float
   arrays; a float crossing a call boundary is boxed, so [drain]'s
   per-event horizon test compares in place with [due_after]. *)
let head_time t =
  let b = t.src in
  if b < 0 then (Heap.Arena.prios t.heap).(0)
  else
    let l = t.lanes.(b) in
    l.times.(l.head)

let due_after t horizon =
  let b = t.src in
  if b < 0 then (Heap.Arena.prios t.heap).(0) > horizon
  else
    let l = t.lanes.(b) in
    l.times.(l.head) > horizon

(* Execute the settled head event: advance the clock, bump the category
   cell, run the action.  The caller has already settled the head. *)
let exec t =
  let b = t.src in
  let from_heap = b < 0 in
  (* [l] is the always-empty default lane when the head is a heap
     entry; one indexed read fetches the action from either store. *)
  let l = t.lanes.(if from_heap then default_category else b) in
  let slot = if from_heap then Heap.Arena.top_tag t.heap else l.head in
  let cat = if from_heap then t.slot_cats.(slot) else b in
  let action = (if from_heap then t.slot_actions else l.actions).(slot) in
  t.clock <- head_time t;
  if from_heap then drop_heap t else drop_lane t l;
  t.executed <- t.executed + 1;
  t.cat_events.(cat) <- t.cat_events.(cat) + 1;
  action ()

let next_time t = if settle_head t then head_time t else infinity

(* An event run by the caller instead of the queue: the same clock
   move and the same counts [exec] makes, with no queue traffic. *)
let advance t cat time =
  if time < t.clock then invalid_arg "Engine.advance: time is before now";
  t.clock <- time;
  t.executed <- t.executed + 1;
  t.cat_events.(cat) <- t.cat_events.(cat) + 1

let step_uninstrumented t =
  if settle_head t then begin
    exec t;
    true
  end
  else false

let step t =
  match t.instrument with
  | None -> step_uninstrumented t
  | Some { timer; report } ->
      let t0 = timer () in
      let stepped = step_uninstrumented t in
      report ~seconds:(timer () -. t0);
      stepped

let drain t horizon =
  let continue = ref true in
  while !continue do
    if settle_head t then
      if due_after t horizon then continue := false else exec t
    else continue := false
  done

let run_events t until =
  let horizon = match until with Some h -> h | None -> infinity in
  drain t horizon;
  match until with
  | Some h when Float.is_finite h && t.clock < h -> t.clock <- h
  | _ -> ()

(* The instrument times the whole run slice — one timer pair per
   [run], not two per event — and reports the batch once. *)
let run ?until t =
  match t.instrument with
  | None -> run_events t until
  | Some { timer; report } ->
      let t0 = timer () in
      let finish () = report ~seconds:(timer () -. t0) in
      (try run_events t until
       with e ->
         finish ();
         raise e);
      finish ()

let events_executed t = t.executed
