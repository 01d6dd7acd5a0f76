type t = {
  buffer : Span.t option array;
  sample : int;
  mutable next : int;
  mutable stored : int;
  mutable total : int;
  mutable next_span_id : int;
  mutable next_trace_id : int;
}

let create ?(capacity = 65536) ?(sample = 1) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  {
    buffer = Array.make capacity None;
    sample;
    next = 0;
    stored = 0;
    total = 0;
    next_span_id = 0;
    next_trace_id = 0;
  }

let sampled t key = t.sample <= 1 || key mod t.sample = 0

let add t span =
  t.buffer.(t.next) <- Some span;
  t.next <- (t.next + 1) mod Array.length t.buffer;
  if t.stored < Array.length t.buffer then t.stored <- t.stored + 1;
  t.total <- t.total + 1

let span t ?trace ?parent ?(attrs = []) ?finish ~name ~start () =
  let trace_id, parent_id =
    match parent with
    | Some (p : Span.t) -> (p.Span.trace_id, Some p.Span.span_id)
    | None -> (
        match trace with
        | Some id -> (id, None)
        | None ->
            let id = t.next_trace_id in
            t.next_trace_id <- id + 1;
            (id, None))
  in
  let span_id = t.next_span_id in
  t.next_span_id <- span_id + 1;
  let s =
    { Span.trace_id; span_id; parent = parent_id; name; start; finish; attrs }
  in
  (* New traces opened explicitly via [?trace] must not collide with
     tracer-assigned ids. *)
  if trace_id >= t.next_trace_id then t.next_trace_id <- trace_id + 1;
  add t s;
  s

let iter f t =
  let cap = Array.length t.buffer in
  let start = (t.next - t.stored + cap) mod cap in
  for i = 0 to t.stored - 1 do
    match t.buffer.((start + i) mod cap) with
    | Some s -> f s
    | None -> assert false
  done

let spans t =
  let acc = ref [] in
  iter (fun s -> acc := s :: !acc) t;
  List.rev !acc

let total t = t.total

(* Ring-buffer overwrites are otherwise silent: this is the span-loss
   signal samplers publish as the [trace_dropped] counter. *)
let dropped t = t.total - t.stored

let count ?name ?trace t =
  let n = ref 0 in
  iter
    (fun (s : Span.t) ->
      if
        (match name with Some x -> String.equal s.Span.name x | None -> true)
        && match trace with Some id -> s.Span.trace_id = id | None -> true
      then incr n)
    t;
  !n

let clear t =
  Array.fill t.buffer 0 (Array.length t.buffer) None;
  t.next <- 0;
  t.stored <- 0;
  t.total <- 0

(* --- reassembly --------------------------------------------------------- *)

let span_order (a : Span.t) (b : Span.t) =
  match Float.compare a.Span.start b.Span.start with
  | 0 -> Int.compare a.Span.span_id b.Span.span_id
  | c -> c

let by_trace t =
  let tbl : (int, Span.t list ref) Hashtbl.t = Hashtbl.create 64 in
  iter
    (fun (s : Span.t) ->
      match Hashtbl.find_opt tbl s.Span.trace_id with
      | Some cell -> cell := s :: !cell
      | None -> Hashtbl.replace tbl s.Span.trace_id (ref [ s ]))
    t;
  tbl

let trace_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) (by_trace t) []
  |> List.sort Int.compare

let trace_spans t id =
  match Hashtbl.find_opt (by_trace t) id with
  | Some cell -> List.sort span_order !cell
  | None -> []

let traces t =
  Hashtbl.fold (fun id cell acc -> (id, List.sort span_order !cell) :: acc)
    (by_trace t) []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

type tree = { span : Span.t; children : tree list }

let forest span_list =
  let present = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.t) -> Hashtbl.replace present s.Span.span_id ())
    span_list;
  let children : (int, Span.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let roots = ref [] in
  List.iter
    (fun (s : Span.t) ->
      match s.Span.parent with
      | Some p when Hashtbl.mem present p -> (
          match Hashtbl.find_opt children p with
          | Some cell -> cell := s :: !cell
          | None -> Hashtbl.replace children p (ref [ s ]))
      | Some _ | None -> roots := s :: !roots)
    span_list;
  let rec build (s : Span.t) =
    let kids =
      match Hashtbl.find_opt children s.Span.span_id with
      | Some cell -> List.sort span_order !cell
      | None -> []
    in
    { span = s; children = List.map build kids }
  in
  List.map build (List.sort span_order !roots)

let trees t id = forest (trace_spans t id)

let is_connected span_list =
  match forest span_list with [ _ ] -> true | _ -> false

(* --- exports ------------------------------------------------------------ *)

let to_jsonl t =
  let buf = Buffer.create 4096 in
  iter
    (fun s ->
      Buffer.add_string buf (Json.to_string (Span.to_json s));
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let chrome_event (s : Span.t) =
  Json.Obj
    [
      ("name", Json.String s.Span.name);
      ("cat", Json.String "mail");
      ("ph", Json.String "X");
      ("ts", Json.Float s.Span.start);
      ( "dur",
        Json.Float
          (match s.Span.finish with Some f -> f -. s.Span.start | None -> 0.) );
      ("pid", Json.Int 1);
      ("tid", Json.Int s.Span.trace_id);
      ( "args",
        Json.Obj
          (("span", Json.Int s.Span.span_id)
          :: ( "parent",
               match s.Span.parent with Some p -> Json.Int p | None -> Json.Null
             )
          :: List.map (fun (k, v) -> (k, Json.String v)) s.Span.attrs) );
    ]

let to_chrome t =
  let events = ref [] in
  iter (fun s -> events := chrome_event s :: !events) t;
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (List.rev !events));
    ]

let pp ppf t =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline Span.pp ppf (spans t)
