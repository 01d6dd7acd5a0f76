type event_id = int
type category = int

type instrument = { timer : unit -> float; report : seconds:float -> unit }

(* The event queue is a flat [Heap.Arena]: priorities (virtual times),
   sequence numbers (the event ids) and interned category ids live in
   preallocated scalar arrays, and the only per-event heap payload is
   the caller's action closure.  Scheduling an event allocates nothing
   beyond whatever the caller's closure captures, and the dominant
   recurring events (timer re-arms, periodic samplers) reuse a single
   closure across firings. *)
type t = {
  queue : (unit -> unit) Heap.Arena.t;
  (* Cancelled ids as a growable bitset indexed by event id: ids are
     dense, so this is O(1) with no hashing and one bit per event. *)
  mutable cancelled : Bytes.t;
  mutable cancelled_pending : int;
  (* Interned categories: name -> id once at wiring time, then all
     per-event accounting is an [int array] bump. *)
  cat_ids : (string, category) Hashtbl.t;
  mutable cat_names : string array;
  mutable cat_events : int array;
  mutable cat_count : int;
  mutable instrument : instrument option;
  mutable clock : float;
  mutable executed : int;
  mutable handler_seconds : float;
}

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
        t.cat_events <- events
      end;
      t.cat_names.(id) <- name;
      t.cat_events.(id) <- 0;
      Hashtbl.replace t.cat_ids name id;
      t.cat_count <- id + 1;
      id

let category_name t cat =
  if cat < 0 || cat >= t.cat_count then invalid_arg "Engine.category_name";
  t.cat_names.(cat)

let default_category = 0

let create ?(capacity = 64) () =
  let t =
    {
      queue = Heap.Arena.create ~capacity ~dummy:ignore ();
      cancelled = Bytes.make 64 '\000';
      cancelled_pending = 0;
      cat_ids = Hashtbl.create 8;
      cat_names = Array.make 8 "";
      cat_events = Array.make 8 0;
      cat_count = 0;
      instrument = None;
      clock = 0.;
      executed = 0;
      handler_seconds = 0.;
    }
  in
  (* Intern the default category first so it is always id 0. *)
  ignore (category t "event");
  t

let now t = t.clock

let schedule_at_cat t cat time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.clock);
  Heap.Arena.push t.queue ~prio:time ~tag:cat action

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
      ignore (schedule_at_cat t cat at tick)
    end
  in
  if !next <= until then ignore (schedule_at_cat t cat !next tick)

let is_cancelled t id =
  let byte = id lsr 3 in
  byte < Bytes.length t.cancelled
  && Char.code (Bytes.unsafe_get t.cancelled byte) land (1 lsl (id land 7)) <> 0

(* Only a queued event can be cancelled.  Marking an id that already
   fired (or never existed) would count a tombstone no pop ever clears,
   and [pending] would drift below the real queue length.  The
   membership scan is O(pending); nothing cancels per event. *)
let cancel t id =
  if id < 0 then invalid_arg "Engine.cancel: negative id";
  if (not (is_cancelled t id)) && Heap.Arena.mem_seq t.queue id then begin
    let byte = id lsr 3 in
    if byte >= Bytes.length t.cancelled then begin
      let cap = max (2 * Bytes.length t.cancelled) (byte + 1) in
      let b = Bytes.make cap '\000' in
      Bytes.blit t.cancelled 0 b 0 (Bytes.length t.cancelled);
      t.cancelled <- b
    end;
    let cur = Char.code (Bytes.get t.cancelled byte) in
    Bytes.set t.cancelled byte (Char.chr (cur lor (1 lsl (id land 7))));
    t.cancelled_pending <- t.cancelled_pending + 1
  end

let uncancel t id =
  let byte = id lsr 3 in
  let cur = Char.code (Bytes.get t.cancelled byte) in
  Bytes.set t.cancelled byte (Char.chr (cur land lnot (1 lsl (id land 7))));
  t.cancelled_pending <- t.cancelled_pending - 1

let pending t =
  (* Cancelled events stay in the heap as tombstones until popped. *)
  Heap.Arena.length t.queue - t.cancelled_pending

(* The engine itself never reads a wall clock: the instrument supplies
   its own timer (the telemetry probe passes one), so deterministic sim
   code stays free of ambient time sources. *)
let set_instrument ?(timer = fun () -> 0.) t report =
  t.instrument <- Some { timer; report }

let clear_instrument t = t.instrument <- None

let profile t =
  let acc = ref [] in
  for id = t.cat_count - 1 downto 0 do
    if t.cat_events.(id) > 0 then acc := (t.cat_names.(id), t.cat_events.(id)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let handler_seconds t = t.handler_seconds

(* Pop tombstones off the head; [true] if a live head remains. *)
let rec settle_head t =
  let q = t.queue in
  if Heap.Arena.is_empty q then false
  else if is_cancelled t (Heap.Arena.top_seq q) then begin
    uncancel t (Heap.Arena.top_seq q);
    Heap.Arena.drop q;
    settle_head t
  end
  else true

(* Execute the live head event: advance the clock, bump the category
   cell, run the action.  The caller has already settled tombstones. *)
let exec t =
  let q = t.queue in
  let time = Heap.Arena.top_prio q in
  let cat = Heap.Arena.top_tag q in
  let action = Heap.Arena.top q in
  Heap.Arena.drop q;
  t.clock <- time;
  t.executed <- t.executed + 1;
  t.cat_events.(cat) <- t.cat_events.(cat) + 1;
  action ()

let next_time t = if settle_head t then Heap.Arena.top_prio t.queue else infinity

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
      let dt = timer () -. t0 in
      t.handler_seconds <- t.handler_seconds +. dt;
      report ~seconds:dt;
      stepped

let drain t horizon =
  let q = t.queue in
  let continue = ref true in
  while !continue do
    if settle_head t then
      if Heap.Arena.top_prio q > horizon then continue := false else exec t
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
      let finish () =
        let dt = timer () -. t0 in
        t.handler_seconds <- t.handler_seconds +. dt;
        report ~seconds:dt
      in
      (try run_events t until
       with e ->
         finish ();
         raise e);
      finish ()

let events_executed t = t.executed
