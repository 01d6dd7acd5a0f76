(* Tests for the discrete-event engine. *)

let test_runs_in_time_order () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Dsim.Engine.schedule_at e 3. (note "c"));
  ignore (Dsim.Engine.schedule_at e 1. (note "a"));
  ignore (Dsim.Engine.schedule_at e 2. (note "b"));
  Dsim.Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "executed" 3 (Dsim.Engine.events_executed e)

let test_fifo_simultaneous () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Dsim.Engine.schedule_at e 5. (fun () -> log := i :: !log))
  done;
  Dsim.Engine.run e;
  Alcotest.(check (list int)) "FIFO" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_clock_advances () =
  let e = Dsim.Engine.create () in
  let seen = ref [] in
  ignore (Dsim.Engine.schedule_at e 2.5 (fun () -> seen := Dsim.Engine.now e :: !seen));
  ignore (Dsim.Engine.schedule_at e 7.5 (fun () -> seen := Dsim.Engine.now e :: !seen));
  Dsim.Engine.run e;
  Alcotest.(check (list (float 1e-9))) "now at event times" [ 2.5; 7.5 ] (List.rev !seen);
  Alcotest.(check (float 1e-9)) "final clock" 7.5 (Dsim.Engine.now e)

let test_schedule_in_past_rejected () =
  let e = Dsim.Engine.create () in
  ignore (Dsim.Engine.schedule_at e 5. (fun () -> ()));
  Dsim.Engine.run e;
  (try
     ignore (Dsim.Engine.schedule_at e 1. (fun () -> ()));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Dsim.Engine.schedule_after e (-1.) (fun () -> ()));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_run_until () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  ignore (Dsim.Engine.schedule_at e 1. (fun () -> log := 1 :: !log));
  ignore (Dsim.Engine.schedule_at e 10. (fun () -> log := 10 :: !log));
  Dsim.Engine.run ~until:5. e;
  Alcotest.(check (list int)) "only early event" [ 1 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at horizon" 5. (Dsim.Engine.now e);
  Dsim.Engine.run e;
  Alcotest.(check (list int)) "late event later" [ 1; 10 ] (List.rev !log)

let test_event_at_horizon_runs () =
  let e = Dsim.Engine.create () in
  let fired = ref false in
  ignore (Dsim.Engine.schedule_at e 5. (fun () -> fired := true));
  Dsim.Engine.run ~until:5. e;
  Alcotest.(check bool) "inclusive horizon" true !fired

let test_cascading_events () =
  let e = Dsim.Engine.create () in
  let count = ref 0 in
  let rec chain n () =
    incr count;
    if n > 0 then ignore (Dsim.Engine.schedule_after e 1. (chain (n - 1)))
  in
  ignore (Dsim.Engine.schedule_at e 0. (chain 9));
  Dsim.Engine.run e;
  Alcotest.(check int) "all chained events ran" 10 !count;
  Alcotest.(check (float 1e-9)) "clock" 9. (Dsim.Engine.now e)

let test_step () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  ignore (Dsim.Engine.schedule_at e 1. (fun () -> log := "a" :: !log));
  ignore (Dsim.Engine.schedule_at e 2. (fun () -> log := "b" :: !log));
  Alcotest.(check bool) "step 1" true (Dsim.Engine.step e);
  Alcotest.(check (list string)) "only first" [ "a" ] (List.rev !log);
  Alcotest.(check bool) "step 2" true (Dsim.Engine.step e);
  Alcotest.(check bool) "exhausted" false (Dsim.Engine.step e)

let prop_random_schedules_run_sorted =
  QCheck.Test.make ~name:"random schedules execute in nondecreasing time" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range 0. 1000.))
    (fun times ->
      let e = Dsim.Engine.create () in
      let seen = ref [] in
      List.iter
        (fun t -> ignore (Dsim.Engine.schedule_at e t (fun () -> seen := t :: !seen)))
        times;
      Dsim.Engine.run e;
      let order = List.rev !seen in
      order = List.sort Float.compare times
      || (* stable among equal keys: compare as multisets + sortedness *)
      List.sort Float.compare order = List.sort Float.compare times
      && List.for_all2 ( <= )
           (List.filteri (fun i _ -> i < List.length order - 1) order)
           (List.tl order))

let test_next_time () =
  let e = Dsim.Engine.create () in
  Alcotest.(check (float 0.)) "empty queue" infinity (Dsim.Engine.next_time e);
  Dsim.Engine.schedule_at e 3. ignore;
  Alcotest.(check (float 0.)) "heap head" 3. (Dsim.Engine.next_time e);
  let lane = Dsim.Engine.category e "lane" in
  Dsim.Engine.schedule_at_cat e lane 1. ignore;
  Alcotest.(check (float 0.)) "earlier lane head" 1. (Dsim.Engine.next_time e);
  Alcotest.(check int) "two pending" 2 (Dsim.Engine.pending e);
  Alcotest.(check bool) "step" true (Dsim.Engine.step e);
  Alcotest.(check (float 0.)) "heap head again" 3. (Dsim.Engine.next_time e);
  Alcotest.(check int) "one pending" 1 (Dsim.Engine.pending e);
  Dsim.Engine.run e;
  Alcotest.(check (float 0.)) "drained" infinity (Dsim.Engine.next_time e);
  Alcotest.(check int) "none pending" 0 (Dsim.Engine.pending e);
  Alcotest.(check int) "both ran" 2 (Dsim.Engine.events_executed e)

let test_advance () =
  let e = Dsim.Engine.create () in
  let cat = Dsim.Engine.category e "sweep" in
  ignore (Dsim.Engine.schedule_at e 5. ignore);
  Dsim.Engine.advance e cat 2.;
  Alcotest.(check (float 0.)) "clock set" 2. (Dsim.Engine.now e);
  Alcotest.(check int) "counted as executed" 1 (Dsim.Engine.events_executed e);
  Alcotest.(check (list (pair string int))) "counted in its category"
    [ ("sweep", 1) ] (Dsim.Engine.profile e);
  Alcotest.(check int) "queue untouched" 1 (Dsim.Engine.pending e);
  (try
     Dsim.Engine.advance e cat 1.;
     Alcotest.fail "advance before now accepted"
   with Invalid_argument _ -> ());
  Alcotest.(check (float 0.)) "clock kept after the refusal" 2. (Dsim.Engine.now e);
  Dsim.Engine.run e;
  Alcotest.(check int) "queued event ran too" 2 (Dsim.Engine.events_executed e);
  Alcotest.(check (list (pair string int))) "profile"
    [ ("event", 1); ("sweep", 1) ] (Dsim.Engine.profile e)

(* --- the heap + lanes queue against a one-list reference ------------

   A schedule is a tree of operations: the top level runs at time 0
   before [run], and each queued event runs its children when it fires.
   Categories 1-3 have lanes: 1 is a fixed-delay timer, 2 draws small
   delays (many equal-time ties), 3 draws wide delays (out-of-order
   pushes into its own lane); 0 is the default category (heap only).
   [Inline] is the scenario sweep's pattern — run inline when strictly
   before [next_time], otherwise queue.  The reference keeps
   every pending event in one list sorted by (time, push index): the
   order one heap holding everything pops in. *)

type op =
  | Push of { cat : int; delay : int; kids : op list }
  | Inline of { cat : int; delay : int; kids : op list }

let op_delay cat delay = if cat = 1 then 2. else float_of_int delay

let rec pp_op = function
  | Push { cat; delay; kids } ->
      Printf.sprintf "Push(%d,%d,[%s])" cat delay (String.concat ";" (List.map pp_op kids))
  | Inline { cat; delay; kids } ->
      Printf.sprintf "Inline(%d,%d,[%s])" cat delay
        (String.concat ";" (List.map pp_op kids))

let gen_ops =
  let open QCheck.Gen in
  let rec op depth =
    let kids = if depth = 0 then return [] else list_size (int_range 0 3) (op (depth - 1)) in
    let delay cat = if cat = 3 then int_range 0 40 else int_range 0 5 in
    frequency
      [
        ( 6,
          int_range 0 3 >>= fun cat ->
          delay cat >>= fun delay ->
          kids >|= fun kids -> Push { cat; delay; kids } );
        ( 2,
          int_range 1 3 >>= fun cat ->
          delay cat >>= fun delay ->
          kids >|= fun kids -> Inline { cat; delay; kids } );
      ]
  in
  list_size (int_range 1 25) (op 3)

let cat_names = [| "event"; "timer"; "ties"; "wide" |]

(* What one run observed: each execution as (time, category, push
   index or -1 inline, pending at entry), then the final counts. *)
type observed = {
  log : (float * int * int * int) list;
  final_pending : int;
  profile : (string * int) list;
  executed : int;
}

let run_engine ops =
  let e = Dsim.Engine.create ~capacity:4 () in
  let cats = Array.map (Dsim.Engine.category e) cat_names in
  let pushed = ref 0 and log = ref [] in
  let record cat label = log := (Dsim.Engine.now e, cat, label, Dsim.Engine.pending e) :: !log in
  let rec exec_ops ops = List.iter exec_op ops
  and push cat at kids =
    let k = !pushed in
    Dsim.Engine.schedule_at_cat e cats.(cat) at (fun () ->
        record cat k;
        exec_ops kids);
    incr pushed
  and exec_op = function
    | Push { cat; delay; kids } -> push cat (Dsim.Engine.now e +. op_delay cat delay) kids
    | Inline { cat; delay; kids } ->
        let at = Dsim.Engine.now e +. op_delay cat delay in
        if at < Dsim.Engine.next_time e then begin
          Dsim.Engine.advance e cats.(cat) at;
          record cat (-1);
          exec_ops kids
        end
        else push cat at kids
  in
  exec_ops ops;
  Dsim.Engine.run e;
  {
    log = List.rev !log;
    final_pending = Dsim.Engine.pending e;
    profile = Dsim.Engine.profile e;
    executed = Dsim.Engine.events_executed e;
  }

let run_reference ops =
  (* pending: (time, push index, category, kids), sorted *)
  let queue = ref [] and pushed = ref 0 and clock = ref 0. and log = ref [] in
  let counts = Array.make (Array.length cat_names) 0 in
  let before (t1, k1, _, _) (t2, k2, _, _) = t1 < t2 || (t1 = t2 && k1 < k2) in
  let rec insert x = function
    | [] -> [ x ]
    | y :: tl as l -> if before x y then x :: l else y :: insert x tl
  in
  let record cat label =
    counts.(cat) <- counts.(cat) + 1;
    log := (!clock, cat, label, List.length !queue) :: !log
  in
  let rec exec_ops ops = List.iter exec_op ops
  and push cat at kids =
    queue := insert (at, !pushed, cat, kids) !queue;
    incr pushed
  and exec_op = function
    | Push { cat; delay; kids } -> push cat (!clock +. op_delay cat delay) kids
    | Inline { cat; delay; kids } ->
        let at = !clock +. op_delay cat delay in
        let next = match !queue with (t, _, _, _) :: _ -> t | [] -> infinity in
        if at < next then begin
          clock := at;
          record cat (-1);
          exec_ops kids
        end
        else push cat at kids
  in
  exec_ops ops;
  let rec drain () =
    match !queue with
    | [] -> ()
    | (at, k, cat, kids) :: rest ->
        queue := rest;
        clock := at;
        record cat k;
        exec_ops kids;
        drain ()
  in
  drain ();
  let profile =
    Array.to_list (Array.mapi (fun i n -> (cat_names.(i), n)) counts)
    |> List.filter (fun (_, n) -> n > 0)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    log = List.rev !log;
    final_pending = 0;
    profile;
    executed = Array.fold_left ( + ) 0 counts;
  }

let prop_lanes_match_one_queue =
  QCheck.Test.make ~name:"heap + lanes run in one-queue (time, seq) order" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops)) gen_ops)
    (fun ops -> run_engine ops = run_reference ops)

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "time order" `Quick test_runs_in_time_order;
        Alcotest.test_case "FIFO for simultaneous events" `Quick test_fifo_simultaneous;
        Alcotest.test_case "clock advances" `Quick test_clock_advances;
        Alcotest.test_case "past scheduling rejected" `Quick test_schedule_in_past_rejected;
        Alcotest.test_case "run until horizon" `Quick test_run_until;
        Alcotest.test_case "event exactly at horizon" `Quick test_event_at_horizon_runs;
        Alcotest.test_case "cascading events" `Quick test_cascading_events;
        Alcotest.test_case "single stepping" `Quick test_step;
        QCheck_alcotest.to_alcotest prop_random_schedules_run_sorted;
        Alcotest.test_case "next_time" `Quick test_next_time;
        Alcotest.test_case "advance" `Quick test_advance;
        QCheck_alcotest.to_alcotest prop_lanes_match_one_queue;
      ] );
  ]
