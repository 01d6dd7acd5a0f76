(* The harness checked against the program it measures, on tiny
   versions of the four workloads built by the same constructors. *)

open Perfbench

let tiny = List.map Workload.tiny Workload.all
let seed = Workload.default_seed
let traced_runs = lazy (List.map (fun w -> Harness.measure w ~seed ~seconds:0. ~trace:true) tiny)

let for_each_run f () =
  List.iter (fun (r : Harness.result) -> f r.workload r) (Lazy.force traced_runs)

let brackets_match_counters (w : Workload.t) (r : Harness.result) =
  let x = List.hd r.traced in
  let p = Option.get x.probe and count = Harness.count x in
  let name what = Printf.sprintf "%s %s" w.name what in
  Alcotest.(check int)
    (name "checks bracket = checks - logins")
    (count "user_agent.checks" - count "location_system.logins")
    (Harness.calls p.check);
  Alcotest.(check int) (name "injections = mail_count") w.mail_count (Harness.count_of p.inject);
  match w.design with
  | Workload.Syntax ->
      Alcotest.(check int) (name "no logins") 0 (count "location_system.logins");
      Alcotest.(check int)
        (name "fetches = polls - failed_polls")
        (count "user_agent.polls" - count "user_agent.failed_polls")
        (Harness.calls p.fetch)
  | Workload.Location _ ->
      Alcotest.(check bool) (name "logins happen") true (count "location_system.logins" > 0)

let traced_equals_untraced (w : Workload.t) (r : Harness.result) =
  let vt x =
    Harness.(x.deliver_n, x.deliver_p50, x.deliver_p99, x.availability, x.polls_per_check)
  in
  List.iter
    (fun x ->
      Alcotest.(check bool) (w.name ^ " virtual-time metrics") true (vt x = vt r.cold);
      Alcotest.(check int)
        (w.name ^ " engine events")
        (Harness.count r.cold "engine.events")
        (Harness.count x "engine.events");
      Alcotest.(check bool) (w.name ^ " every count") true (x.counts = r.cold.counts))
    (r.untraced @ r.traced);
  Alcotest.(check (list string)) (w.name ^ " no problems") [] (Report.problems r)

let per_layer_complete (w : Workload.t) (r : Harness.result) =
  let names = List.map (fun (x : Report.metric) -> x.name) (Report.per_layer r) in
  Alcotest.(check int) (w.name ^ " distinct names") (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (x : Report.metric) ->
      Alcotest.(check bool) (w.name ^ " " ^ x.name ^ " finite") true (Float.is_finite x.value))
    (Report.per_layer r)

let d2_matches_scenario () =
  let w = Workload.tiny Workload.d2_roam in
  let roam = match w.design with Workload.Location { roam } -> roam | Syntax -> assert false in
  let bench = Harness.run_rep w ~seed in
  let lib =
    Mail.Scenario.run_location ~config:(Workload.location_config w) ~roam_probability:roam
      (Workload.site w) (Workload.spec w ~seed)
  in
  Alcotest.(check bool) "ledger verdict" true (bench.verdict = lib.Mail.Scenario.ledger);
  Alcotest.(check (float 0.)) "availability" lib.Mail.Scenario.availability bench.availability;
  Alcotest.(check (float 0.))
    "polls per check" lib.Mail.Scenario.final_polls_per_check bench.polls_per_check

(* Every fetched copy vanishes before the agent sees it. *)
let lossy =
  {
    Harness.wrap =
      (fun (type s) (m : (module Mail.System.S with type t = s)) ->
        let module M = (val m) in
        (module struct
          include M

          let view t =
            let v = M.view t in
            {
              v with
              Mail.User_agent.fetch =
                (fun node ~uid name ~at ->
                  ignore (v.Mail.User_agent.fetch node ~uid name ~at);
                  []);
            }
        end : Mail.System.S
          with type t = s));
  }

let violation_fails () =
  let r = Harness.measure ~wrap:lossy (Workload.tiny Workload.d1_calm) ~seed ~seconds:0. ~trace:false in
  Alcotest.(check bool) "ledger not ok" false r.cold.verdict.Mail.Ledger.ok;
  Alcotest.(check int) "exit code" 1 (Report.exit_code r);
  Alcotest.(check bool) "summary says incorrect" true
    (Telemetry.Json.member "correct" (Report.summary r) = Some (Telemetry.Json.Bool false))

let fault_schedules () =
  List.iter
    (fun (w : Workload.t) ->
      let site = Workload.site w in
      let compile ~seed =
        Option.map
          (Netsim.Fault.compile ~salt:seed ~graph:site.Netsim.Topology.graph
             ~servers:site.Netsim.Topology.servers ~horizon:Workload.duration)
          (Workload.campaign w ~seed)
      in
      let held_out = Workload.held_out_seed in
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s campaign unchanged at seed %d" w.name s)
            true
            (Workload.campaign w ~seed:s = w.faults))
        [ seed; held_out ];
      let reference = compile ~seed in
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d compiles the default schedule" w.name s)
            true
            (compile ~seed:s = reference))
        [ 1; 2; 1000 ];
      Alcotest.(check bool)
        (w.name ^ " the held-out seed compiles its own schedule")
        (Option.is_some w.faults)
        (compile ~seed:held_out <> reference))
    tiny

let quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  Alcotest.(check (float 0.)) "median" 5.5 (Stats.median (Array.init 10 (fun i -> float_of_int (i + 1))));
  let s = Array.init 2000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p99 nearest rank" 1980. (Stats.percentile_sorted s 0.99)

let verdicts () =
  let b = { Compare.metric = "run_s"; lower_better = true; bound = 0.1 } in
  let verdict ?(failed = (0, 0)) parent change =
    (Compare.judge b ~parent ~change ~failed).Compare.verdict
  in
  let parent = Array.init 10 (fun i -> 10. +. (0.1 *. float_of_int i)) in
  let faster = Array.map (fun x -> x -. 2.) in
  Alcotest.(check string) "faster everywhere" "improved" (verdict parent (faster parent));
  Alcotest.(check string) "same runs" "unchanged" (verdict parent parent);
  Alcotest.(check string) "slower by 20%" "worse" (verdict parent (Array.map (fun x -> x *. 1.2) parent));
  let noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 8. else 12.) in
  Alcotest.(check string) "spread wider than bound" "unresolved" (verdict noisy (Array.map (fun x -> x *. 1.05) noisy));
  let one = [| 10. |] in
  Alcotest.(check string) "faster on one pair" "unresolved" (verdict one (faster one));
  let nine = Array.sub parent 0 9 in
  Alcotest.(check string) "faster on nine pairs" "unresolved" (verdict nine (faster nine));
  Alcotest.(check string) "faster but failing more" "unresolved"
    (verdict ~failed:(0, 1) parent (faster parent));
  Alcotest.(check string) "faster and failing less" "improved"
    (verdict ~failed:(2, 1) parent (faster parent))

let () =
  Alcotest.run "perf"
    [
      ( "perf",
        [
          Alcotest.test_case "bracket counts equal program counters" `Quick
            (for_each_run brackets_match_counters);
          Alcotest.test_case "traced and untraced runs agree" `Quick
            (for_each_run traced_equals_untraced);
          Alcotest.test_case "every per-layer metric is reported" `Quick
            (for_each_run per_layer_complete);
          Alcotest.test_case "d2-roam matches Scenario.run_location" `Quick d2_matches_scenario;
          Alcotest.test_case "a ledger violation fails the run" `Quick violation_fails;
          Alcotest.test_case "fault schedule: the held-out seed's own, else the default's" `Quick
            fault_schedules;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick quartiles;
          Alcotest.test_case "compare verdicts" `Quick verdicts;
        ] );
    ]
