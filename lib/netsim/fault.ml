(* Deterministic fault campaigns: node crash/restart processes with
   configurable repair distributions, link cuts, region partitions and
   correlated burst failures — the one way a node or link goes down.

   A campaign is a pure value; [compile] expands it against a concrete
   topology into a [schedule] of timed down/up windows using only the
   campaign's own seeded RNG stream, so the same campaign on the same
   graph always produces the same faults.  [apply] arms the windows on
   a live network, and [availability] measures what they cost. *)

type repair = Fixed of float | Exp_mean of float

type fault =
  | Crashes of { rate : float; repair : repair }
  | Link_cuts of { rate : float; repair : repair }
  | Partition of { region : string; start : float option; duration : float option }
  | Burst of { fraction : float; at : float option; duration : float option }

type campaign = { seed : int; faults : fault list }

type target = Node of Graph.node | Link of Graph.node * Graph.node

type window = { target : target; kind : string; start : float; duration : float }

type schedule = { windows : window list; horizon : float }

let default_repair_mean = 150.

(* --- compile --- *)

let draw_repair rng = function
  | Fixed d -> d
  | Exp_mean m -> Dsim.Rng.exponential rng (1. /. m)

(* Poisson-process fault starts on one target, each lasting a draw of
   the repair law. *)
let poisson_windows rng ~rate ~repair ~horizon ~kind target =
  if rate <= 0. then []
  else begin
    let rec gen t acc =
      let t = t +. Dsim.Rng.exponential rng rate in
      if t >= horizon then List.rev acc
      else
        let duration = draw_repair rng repair in
        gen t ({ target; kind; start = t; duration } :: acc)
    in
    gen 0. []
  end

let boundary_edges graph region =
  List.filter
    (fun (u, v, _) ->
      let ru = Graph.region graph u = region and rv = Graph.region graph v = region in
      ru <> rv)
    (Graph.edges graph)

let compile ?(salt = 0) ~graph ~servers ~horizon campaign =
  if horizon <= 0. then invalid_arg "Fault.compile: horizon must be positive";
  (* A window opening at or after the horizon would fire during the
     post-heal drain, outside what the run measures. *)
  let before_horizon what start =
    if start >= horizon then
      invalid_arg
        (Printf.sprintf "Fault.compile: %s start %g is not before the horizon %g" what
           start horizon)
  in
  let rng = Dsim.Rng.create (campaign.seed lxor (salt * 0x9e3779b9)) in
  let expand fault =
    match fault with
    | Crashes { rate; repair } ->
        List.concat_map
          (fun node -> poisson_windows rng ~rate ~repair ~horizon ~kind:"crash" (Node node))
          servers
    | Link_cuts { rate; repair } ->
        List.concat_map
          (fun (u, v, _) ->
            poisson_windows rng ~rate ~repair ~horizon ~kind:"link" (Link (u, v)))
          (Graph.edges graph)
    | Partition { region; start; duration } ->
        if not (List.mem region (Graph.regions graph)) then
          invalid_arg (Printf.sprintf "Fault.compile: unknown region %S" region);
        let start = Option.value start ~default:(horizon /. 3.) in
        before_horizon "partition" start;
        let duration = Option.value duration ~default:(horizon /. 4.) in
        List.map
          (fun (u, v, _) -> { target = Link (u, v); kind = "partition"; start; duration })
          (boundary_edges graph region)
    | Burst { fraction; at; duration } ->
        let at = Option.value at ~default:(horizon /. 2.) in
        before_horizon "burst" at;
        let duration = Option.value duration ~default:(horizon /. 10.) in
        let pool = Array.of_list servers in
        Dsim.Rng.shuffle rng pool;
        let k =
          if fraction <= 0. then 0
          else
            Int.min (Array.length pool)
              (Int.max 1 (int_of_float (ceil (fraction *. float_of_int (Array.length pool)))))
        in
        List.init k (fun i ->
            { target = Node pool.(i); kind = "burst"; start = at; duration })
  in
  let windows = List.concat_map expand campaign.faults in
  { windows; horizon }

(* --- availability --- *)

(* The node's windows clipped to [0, horizon], sorted, with overlaps
   merged into disjoint intervals — exactly the time [apply]'s depth
   count keeps the node down. *)
let down_intervals sched node =
  let horizon = sched.horizon in
  let mine =
    List.filter_map
      (fun w ->
        match w.target with
        | Node v when v = node -> Some (w.start, Float.min horizon (w.start +. w.duration))
        | Node _ | Link _ -> None)
      sched.windows
    |> List.filter (fun (s, e) -> s < horizon && e > s)
    |> List.sort (fun (s1, e1) (s2, e2) ->
           match Float.compare s1 s2 with 0 -> Float.compare e1 e2 | c -> c)
  in
  let rec merge acc = function
    | [] -> List.rev acc
    | (s, e) :: rest ->
        let rec absorb e = function
          | (s', e') :: more when s' <= e -> absorb (Float.max e e') more
          | more -> (e, more)
        in
        let e, more = absorb e rest in
        merge ((s, e) :: acc) more
  in
  merge [] mine

let measure intervals = List.fold_left (fun acc (s, e) -> acc +. (e -. s)) 0. intervals

let availability sched ~node =
  let horizon = sched.horizon in
  if horizon <= 0. then 1.
  else (horizon -. measure (down_intervals sched node)) /. horizon

(* Intersection of two sorted disjoint interval lists. *)
let intersect a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (s1, e1) :: ra, (s2, e2) :: rb ->
        let s = Float.max s1 s2 and e = Float.min e1 e2 in
        let acc = if s < e then (s, e) :: acc else acc in
        if e1 <= e2 then go acc ra b else go acc a rb
  in
  go [] a b

let group_availability sched ~nodes =
  let horizon = sched.horizon in
  if horizon <= 0. then 1.
  else
    match nodes with
    | [] -> 0.
    | first :: rest ->
        (* The group is down only while every member is down: intersect
           the members' downtime interval sets. *)
        let all_down =
          List.fold_left
            (fun acc node -> if acc = [] then [] else intersect acc (down_intervals sched node))
            (down_intervals sched first) rest
        in
        (horizon -. measure all_down) /. horizon

(* --- apply --- *)

(* Overlapping windows on one target are nested with a depth count so
   the target only comes back up when the *last* covering window ends
   (plain idempotent flips would resurrect it at the first end). *)
let apply ?on_event net sched =
  let engine = Net.engine net in
  let depth : (target, int ref) Hashtbl.t = Hashtbl.create 32 in
  let counter_of tgt =
    match Hashtbl.find_opt depth tgt with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace depth tgt r;
        r
  in
  let fire w status =
    match on_event with
    | Some f -> f ~time:(Dsim.Engine.now engine) w status
    | None -> ()
  in
  let down w =
    let r = counter_of w.target in
    incr r;
    if !r = 1 then begin
      (match w.target with
      | Node v -> Net.set_down net v
      | Link (u, v) -> Net.set_link_down net u v);
      fire w false
    end
  in
  let up w =
    let r = counter_of w.target in
    if !r > 0 then begin
      decr r;
      if !r = 0 then begin
        (match w.target with
        | Node v -> Net.set_up net v
        | Link (u, v) -> Net.set_link_up net u v);
        fire w true
      end
    end
  in
  let windows = Array.of_list sched.windows in
  Array.iter
    (fun w ->
      if w.start < 0. || w.duration < 0. then
        invalid_arg "Fault.apply: negative time in window")
    windows;
  (* Flip [2i] takes window [i] down and flip [2i + 1] brings it back
     up.  They are pushed in stable time order, so they ride the
     engine's "fault" lane instead of its heap.  The whole batch takes
     consecutive sequence numbers either way, and the stable sort keeps
     equal-time flips in window order, so the run executes them exactly
     as pushing them in window order would. *)
  let times = Array.make (2 * Array.length windows) 0. in
  Array.iteri
    (fun i w ->
      times.(2 * i) <- w.start;
      times.((2 * i) + 1) <- w.start +. w.duration)
    windows;
  let flips = Array.init (Array.length times) Fun.id in
  Array.stable_sort (fun a b -> Float.compare times.(a) times.(b)) flips;
  let cat = Dsim.Engine.category engine "fault" in
  Array.iter
    (fun k ->
      let w = windows.(k / 2) in
      let flip = if k land 1 = 0 then fun () -> down w else fun () -> up w in
      Dsim.Engine.schedule_at_cat engine cat times.(k) flip)
    flips

let heal net sched =
  List.iter
    (fun w ->
      match w.target with
      | Node v -> Net.set_up net v
      | Link (u, v) -> Net.set_link_up net u v)
    sched.windows

(* --- the flag DSL --- *)

let bad fmt = Printf.ksprintf invalid_arg ("Fault.parse: " ^^ fmt)

let float_arg what s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f && f >= 0. -> f
  | _ -> bad "bad %s %S" what s

(* "RATE", "RATE/MEAN" (exponential repair) or "RATE/=D" (fixed). *)
let rate_repair spec =
  match String.split_on_char '/' spec with
  | [ r ] -> (float_arg "rate" r, Exp_mean default_repair_mean)
  | [ r; rep ] ->
      let repair =
        if String.length rep > 0 && rep.[0] = '=' then
          Fixed (float_arg "repair" (String.sub rep 1 (String.length rep - 1)))
        else Exp_mean (float_arg "repair" rep)
      in
      (float_arg "rate" r, repair)
  | _ -> bad "bad rate spec %S" spec

(* "X@START+DURATION" or bare "X". *)
let at_window spec =
  match String.split_on_char '@' spec with
  | [ x ] -> (x, None, None)
  | [ x; win ] -> (
      match String.split_on_char '+' win with
      | [ s; d ] -> (x, Some (float_arg "start" s), Some (float_arg "duration" d))
      | _ -> bad "bad window %S (expected START+DURATION)" win)
  | _ -> bad "bad spec %S" spec

let parse s =
  let items =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if items = [] then bad "empty campaign %S" s;
  let seed = ref 0 in
  let faults =
    List.filter_map
      (fun item ->
        match String.index_opt item ':' with
        | None -> bad "%S (expected KIND:SPEC)" item
        | Some i ->
            let kind = String.sub item 0 i in
            let spec = String.sub item (i + 1) (String.length item - i - 1) in
            (match kind with
            | "seed" -> (
                match int_of_string_opt spec with
                | Some n ->
                    seed := n;
                    None
                | None -> bad "bad seed %S" spec)
            | "crash" ->
                let rate, repair = rate_repair spec in
                Some (Crashes { rate; repair })
            | "link" ->
                let rate, repair = rate_repair spec in
                Some (Link_cuts { rate; repair })
            | "partition" ->
                let region, start, duration = at_window spec in
                if region = "" then bad "empty region in %S" item;
                Some (Partition { region; start; duration })
            | "burst" ->
                let frac, at, duration = at_window spec in
                let fraction = float_arg "fraction" frac in
                if fraction > 1. then bad "burst fraction %g > 1" fraction;
                Some (Burst { fraction; at; duration })
            | _ -> bad "unknown fault kind %S" kind))
      items
  in
  { seed = !seed; faults }

let string_of_repair = function
  | Exp_mean m -> Printf.sprintf "/%g" m
  | Fixed d -> Printf.sprintf "/=%g" d

let string_of_window = function
  | Some s, Some d -> Printf.sprintf "@%g+%g" s d
  | _ -> ""

let to_string c =
  let items =
    List.map
      (function
        | Crashes { rate; repair } ->
            Printf.sprintf "crash:%g%s" rate (string_of_repair repair)
        | Link_cuts { rate; repair } ->
            Printf.sprintf "link:%g%s" rate (string_of_repair repair)
        | Partition { region; start; duration } ->
            Printf.sprintf "partition:%s%s" region (string_of_window (start, duration))
        | Burst { fraction; at; duration } ->
            Printf.sprintf "burst:%g%s" fraction (string_of_window (at, duration)))
      c.faults
  in
  let items = if c.seed <> 0 then Printf.sprintf "seed:%d" c.seed :: items else items in
  String.concat "," items

let pp ppf c = Format.pp_print_string ppf (to_string c)

let standard = parse "seed:5,crash:0.002/150,link:0.0008,partition:r1@1500+600,burst:0.25"
