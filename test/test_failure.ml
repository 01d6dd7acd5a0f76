(* Tests for node outages: fixed and Poisson crash windows of
   {!Netsim.Fault}, armed on a net and measured by its availability. *)

type msg = unit

let crash ?(node = 0) start duration =
  { Netsim.Fault.target = Netsim.Fault.Node node; kind = "crash"; start; duration }

let schedule windows = { Netsim.Fault.windows; horizon = 100. }

let test_outage_flips_status () =
  let g = Netsim.Topology.line ~n:2 ~weight:1. in
  let engine = Dsim.Engine.create () in
  let net : msg Netsim.Net.t = Netsim.Net.create ~engine g in
  Netsim.Fault.apply net (schedule [ crash ~node:1 5. 3. ]);
  let probes = ref [] in
  List.iter
    (fun t ->
      ignore
        (Dsim.Engine.schedule_at engine t (fun () ->
             probes := (t, Netsim.Net.is_up net 1) :: !probes)))
    [ 4.; 6.; 9. ];
  Dsim.Engine.run engine;
  Alcotest.(check (list (pair (float 1e-9) bool)))
    "up/down/up"
    [ (4., true); (6., false); (9., true) ]
    (List.rev !probes)

let test_negative_rejected () =
  let g = Netsim.Topology.line ~n:2 ~weight:1. in
  let engine = Dsim.Engine.create () in
  let net : msg Netsim.Net.t = Netsim.Net.create ~engine g in
  Alcotest.check_raises "negative"
    (Invalid_argument "Fault.apply: negative time in window") (fun () ->
      Netsim.Fault.apply net (schedule [ crash (-1.) 1. ]))

let crash_windows ~rate ~servers ~horizon =
  let graph = Netsim.Topology.line ~n:3 ~weight:1. in
  let campaign =
    {
      Netsim.Fault.seed = 42;
      faults = [ Netsim.Fault.Crashes { rate; repair = Netsim.Fault.Exp_mean 5. } ];
    }
  in
  (Netsim.Fault.compile ~graph ~servers ~horizon campaign).Netsim.Fault.windows

let test_random_crash_rate () =
  let windows = crash_windows ~rate:0.01 ~servers:[ 0; 1; 2 ] ~horizon:10000. in
  (* Expect roughly 100 crash starts per node. *)
  let per_node n =
    List.length
      (List.filter (fun (w : Netsim.Fault.window) -> w.target = Netsim.Fault.Node n) windows)
  in
  List.iter
    (fun n ->
      let c = per_node n in
      if c < 60 || c > 140 then Alcotest.failf "node %d outage count suspicious: %d" n c)
    [ 0; 1; 2 ];
  (* All within the horizon. *)
  List.iter
    (fun (w : Netsim.Fault.window) ->
      if w.start < 0. || w.start >= 10000. then Alcotest.fail "outage outside horizon")
    windows

let test_zero_rate_empty () =
  Alcotest.(check int) "no outages" 0
    (List.length (crash_windows ~rate:0. ~servers:[ 0; 1 ] ~horizon:100.))

let test_availability () =
  let sched =
    schedule
      [
        crash ~node:0 10. 10.;
        crash ~node:0 15. 10.;
        (* overlaps the first; union is [10, 25] *)
        crash ~node:1 0. 50.;
      ]
  in
  Alcotest.(check (float 1e-9)) "merged downtime" 0.85
    (Netsim.Fault.availability sched ~node:0);
  Alcotest.(check (float 1e-9)) "half down" 0.5 (Netsim.Fault.availability sched ~node:1);
  Alcotest.(check (float 1e-9)) "unaffected node" 1.0
    (Netsim.Fault.availability sched ~node:2)

let test_availability_clips_horizon () =
  Alcotest.(check (float 1e-9)) "clipped" 0.9
    (Netsim.Fault.availability (schedule [ crash 90. 100. ]) ~node:0)

(* A group is down only while every member is: node 0 is down over
   [10, 30] and node 1 over the union [20, 55], so the pair is down
   over [20, 30]. *)
let test_group_availability () =
  let sched = schedule [ crash ~node:0 10. 20.; crash ~node:1 20. 20.; crash ~node:1 25. 30. ] in
  Alcotest.(check (float 1e-9)) "both down 10 of 100" 0.9
    (Netsim.Fault.group_availability sched ~nodes:[ 0; 1 ]);
  Alcotest.(check (float 1e-9)) "one member is its availability"
    (Netsim.Fault.availability sched ~node:1)
    (Netsim.Fault.group_availability sched ~nodes:[ 1 ]);
  Alcotest.(check (float 0.)) "no member never serves" 0.
    (Netsim.Fault.group_availability sched ~nodes:[])

let prop_availability_in_unit_interval =
  QCheck.Test.make ~name:"availability always lies in [0,1]" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 20) (pair (float_range 0. 100.) (float_range 0. 50.)))
    (fun specs ->
      let sched = schedule (List.map (fun (start, duration) -> crash start duration) specs) in
      let a = Netsim.Fault.availability sched ~node:0 in
      a >= -1e-9 && a <= 1. +. 1e-9)

let suite =
  [
    ( "failure",
      [
        Alcotest.test_case "outage flips status" `Quick test_outage_flips_status;
        Alcotest.test_case "negative times rejected" `Quick test_negative_rejected;
        Alcotest.test_case "random outage rate" `Quick test_random_crash_rate;
        Alcotest.test_case "zero rate" `Quick test_zero_rate_empty;
        Alcotest.test_case "availability with overlaps" `Quick test_availability;
        Alcotest.test_case "availability clips at horizon" `Quick
          test_availability_clips_horizon;
        QCheck_alcotest.to_alcotest prop_availability_in_unit_interval;
        Alcotest.test_case "group availability intersects members" `Quick
          test_group_availability;
      ] );
  ]
