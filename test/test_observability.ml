(* Observability layer: snapshot iteration, span-loss accounting, the
   recurring engine event, windowed timeseries, monitor rules (DSL,
   thresholds, absence, SLO burn) and their scenario wiring. *)

module R = Telemetry.Registry
module Ts = Telemetry.Timeseries
module M = Telemetry.Monitor

(* --- Registry.iter_sorted ----------------------------------------------- *)

let test_iter_sorted_order_and_volatile () =
  let reg = R.create () in
  R.incr ~by:3 (R.counter reg "zeta");
  R.set_gauge (R.gauge reg "alpha") 1.5;
  R.observe (R.histogram ~lo:0. ~hi:10. ~buckets:5 reg "mid") 4.;
  R.set_gauge (R.gauge reg "wall_seconds") 123.;
  R.mark_volatile reg "wall_seconds";
  let seen = ref [] in
  R.iter_sorted (fun name _ _ -> seen := name :: !seen) reg;
  Alcotest.(check (list string))
    "sorted, volatile excluded"
    [ "alpha"; "mid"; "zeta" ] (List.rev !seen);
  let kinds = ref [] in
  R.iter_sorted ~include_volatile:true
    (fun name _ v ->
      let k =
        match v with
        | R.Counter_value c -> Printf.sprintf "%s=C%d" name c
        | R.Gauge_value g -> Printf.sprintf "%s=G%g" name g
        | R.Histogram_value h -> Printf.sprintf "%s=H%d" name (R.hist_count h)
      in
      kinds := k :: !kinds)
    reg;
  Alcotest.(check (list string))
    "typed values, volatile included"
    [ "alpha=G1.5"; "mid=H1"; "wall_seconds=G123"; "zeta=C3" ]
    (List.rev !kinds)

(* --- Tracer.dropped ------------------------------------------------------ *)

let test_tracer_overflow_counts_drops () =
  let tracer = Telemetry.Tracer.create ~capacity:4 () in
  for i = 0 to 9 do
    ignore
      (Telemetry.Tracer.span tracer ~name:"s"
         ~start:(float_of_int i)
         ~finish:(float_of_int i +. 1.)
         ())
  done;
  Alcotest.(check int) "total counts everything" 10
    (Telemetry.Tracer.total tracer);
  Alcotest.(check int) "four retained" 4
    (List.length (Telemetry.Tracer.spans tracer));
  Alcotest.(check int) "dropped = total - retained" 6
    (Telemetry.Tracer.dropped tracer);
  let t2 = Telemetry.Tracer.create ~capacity:4 () in
  ignore (Telemetry.Tracer.span t2 ~name:"only" ~start:0. ());
  Alcotest.(check int) "no overflow, no drops" 0 (Telemetry.Tracer.dropped t2)

(* --- Engine.every -------------------------------------------------------- *)

let test_engine_every () =
  let e = Dsim.Engine.create () in
  let fired = ref [] in
  Dsim.Engine.every e ~period:10. ~until:35. (fun () ->
      fired := Dsim.Engine.now e :: !fired);
  Dsim.Engine.run e;
  Alcotest.(check (list (float 1e-9)))
    "fires at period multiples up to until" [ 10.; 20.; 30. ]
    (List.rev !fired);
  (* inclusive bound: a firing landing exactly on [until] runs *)
  let e2 = Dsim.Engine.create () in
  let n = ref 0 in
  Dsim.Engine.every e2 ~period:10. ~until:30. (fun () -> incr n);
  Dsim.Engine.run e2;
  Alcotest.(check int) "until inclusive" 3 !n;
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Engine.every: period must be positive") (fun () ->
      Dsim.Engine.every e2 ~period:0. ~until:10. (fun () -> ()))

(* --- Timeseries ---------------------------------------------------------- *)

let test_timeseries_delta_encoding () =
  let reg = R.create () in
  let c = R.counter reg "events" in
  let g = R.gauge reg "depth" in
  R.incr ~by:5 c;
  R.set_gauge g 2.;
  let ts = Ts.create ~resolution:50. () in
  let w0 = Ts.sample ts ~at:50. reg in
  Alcotest.(check int) "baseline carries every metric" 2
    (List.length w0.Ts.samples);
  (* only the counter moves *)
  R.incr ~by:3 c;
  let w1 = Ts.sample ts ~at:100. reg in
  (match w1.Ts.samples with
  | [ { Ts.name = "events"; point = Ts.Counter { value; delta }; _ } ] ->
      Alcotest.(check int) "cumulative value" 8 value;
      Alcotest.(check int) "window delta" 3 delta
  | _ -> Alcotest.fail "expected exactly the changed counter");
  (* nothing moves: empty window *)
  let w2 = Ts.sample ts ~at:150. reg in
  Alcotest.(check int) "quiet window is empty" 0 (List.length w2.Ts.samples);
  (* a metric created mid-run appears with a full baseline *)
  R.observe (R.histogram ~lo:0. ~hi:10. ~buckets:5 reg "lat") 3.;
  let w3 = Ts.sample ts ~at:200. reg in
  (match w3.Ts.samples with
  | [ { Ts.name = "lat"; point = Ts.Hist { count; delta; p50; _ }; _ } ] ->
      Alcotest.(check int) "hist count" 1 count;
      Alcotest.(check int) "hist delta" 1 delta;
      Alcotest.(check bool) "single-sample p50 finite" true
        (Float.is_finite p50)
  | _ -> Alcotest.fail "expected exactly the new histogram");
  Alcotest.(check int) "four windows recorded" 4 (Ts.window_count ts);
  Alcotest.check_raises "resolution must be positive"
    (Invalid_argument "Timeseries.create: resolution must be positive")
    (fun () -> ignore (Ts.create ~resolution:0. ()))

let test_timeseries_excludes_volatile () =
  let reg = R.create () in
  R.set_gauge (R.gauge reg "wall") 9.;
  R.mark_volatile reg "wall";
  R.incr (R.counter reg "ok");
  let ts = Ts.create ~resolution:1. () in
  let w = Ts.sample ts ~at:1. reg in
  Alcotest.(check (list string))
    "volatile never sampled" [ "ok" ]
    (List.map (fun s -> s.Ts.name) w.Ts.samples);
  match Ts.to_json ts with
  | Telemetry.Json.Obj fields ->
      Alcotest.(check bool) "schema tagged" true
        (List.mem_assoc "schema" fields)
  | _ -> Alcotest.fail "to_json must be an object"

(* --- Monitor DSL --------------------------------------------------------- *)

let test_monitor_dsl_roundtrip () =
  let dsl =
    "backlog=pipeline_pending>500,p99=delivery_latency.p99~250/10/0.5,stall=deposits!20,neg=chain_health<0.5,ev=system_events{event=purge}.delta>9"
  in
  let rules = M.parse dsl in
  Alcotest.(check int) "five rules" 5 (List.length rules);
  Alcotest.(check string) "round-trip" dsl (M.to_string rules);
  let burn = List.nth rules 1 in
  (match burn.M.condition with
  | M.Burn { threshold; window; budget } ->
      Alcotest.(check (float 1e-9)) "threshold" 250. threshold;
      Alcotest.(check int) "window" 10 window;
      Alcotest.(check (float 1e-9)) "budget" 0.5 budget
  | _ -> Alcotest.fail "expected a burn condition");
  let labelled = List.nth rules 4 in
  Alcotest.(check (list (pair string string)))
    "labels parsed"
    [ ("event", "purge") ]
    labelled.M.labels;
  Alcotest.(check bool) "selector parsed" true
    (labelled.M.selector = M.Delta);
  Alcotest.(check string) "standard round-trips" M.standard_dsl
    (M.to_string M.standard);
  let bad s =
    match M.parse s with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing condition rejected" true (bad "a=m");
  Alcotest.(check bool) "empty name rejected" true (bad "=m>1");
  Alcotest.(check bool) "bad burn rejected" true (bad "a=m~1/2");
  Alcotest.(check bool) "bad selector rejected" true (bad "a=m.p42>1")

let test_monitor_threshold_and_counters () =
  let reg = R.create () in
  let g = R.gauge reg "depth" in
  let mon = M.create ~registry:reg (M.parse "deep=depth>10,shallow=depth<1") in
  Alcotest.(check int) "alert counters registered eagerly" 0
    (R.get_counter ~labels:[ ("rule", "deep") ] reg "alert_fired");
  R.set_gauge g 5.;
  Alcotest.(check int) "no fire inside bounds" 0
    (List.length (M.eval mon ~time:50. reg));
  R.set_gauge g 12.;
  (match M.eval mon ~time:100. reg with
  | [ a ] ->
      Alcotest.(check string) "rule name" "deep" a.M.a_rule;
      Alcotest.(check int) "window index" 1 a.M.a_window;
      Alcotest.(check (float 1e-9)) "offending value" 12. a.M.a_value
  | _ -> Alcotest.fail "expected one alert");
  R.set_gauge g 0.5;
  ignore (M.eval mon ~time:150. reg);
  Alcotest.(check int) "per-rule counter" 1
    (R.get_counter ~labels:[ ("rule", "deep") ] reg "alert_fired");
  Alcotest.(check int) "shallow fired too" 1
    (R.get_counter ~labels:[ ("rule", "shallow") ] reg "alert_fired");
  Alcotest.(check int) "total" 2 (R.get_counter reg "alert_total");
  Alcotest.(check bool) "fired" true (M.fired mon);
  Alcotest.(check bool) "no burn rule, no slo violation" false
    (M.slo_violated mon);
  let s = List.hd (M.summary mon) in
  Alcotest.(check int) "deep fires once" 1 s.M.fires;
  Alcotest.(check int) "worst window" 1 s.M.worst_window

let test_monitor_delta_absent_burn () =
  let reg = R.create () in
  let c = R.counter reg "retries" in
  let g = R.gauge reg "p99ish" in
  let mon =
    M.create (M.parse "burst=retries.delta>5,stall=retries!3,slo=p99ish~10/4/0.5")
  in
  let step v dv t =
    R.set_gauge g v;
    R.incr ~by:dv c;
    M.eval mon ~time:t reg
  in
  (* w0: delta 3 — quiet.  w1: delta 7 — burst fires. *)
  Alcotest.(check int) "w0 quiet" 0 (List.length (step 0. 3 50.));
  let w1 = step 0. 7 100. in
  Alcotest.(check (list string))
    "burst fires on delta" [ "burst" ]
    (List.map (fun a -> a.M.a_rule) w1);
  (* three unchanged windows trip the absence rule *)
  ignore (step 0. 0 150.);
  ignore (step 0. 0 200.);
  let w4 = step 0. 0 250. in
  Alcotest.(check (list string))
    "stall fires after 3 static windows" [ "stall" ]
    (List.map (fun a -> a.M.a_rule) w4);
  (* burn: violations accumulate in a 4-window sliding window; budget
     0.5 means it fires at the 3rd violation (burn 0.75 > 0.5). *)
  Alcotest.(check bool) "one violation: no slo" true
    (List.for_all (fun a -> a.M.a_rule <> "slo") (step 20. 1 300.));
  Alcotest.(check bool) "two violations: burn = budget, no fire" true
    (List.for_all (fun a -> a.M.a_rule <> "slo") (step 20. 1 350.));
  let w7 = step 20. 1 400. in
  Alcotest.(check bool) "three violations: slo fires" true
    (List.exists (fun a -> a.M.a_rule = "slo") w7);
  Alcotest.(check bool) "slo violation recorded" true (M.slo_violated mon);
  let slo_summary =
    List.find (fun s -> s.M.s_rule.M.rule_name = "slo") (M.summary mon)
  in
  Alcotest.(check (float 1e-9)) "final burn fraction" 0.75
    slo_summary.M.burn_fraction

(* --- Critical_path edge cases ------------------------------------------- *)

let test_critical_path_edges () =
  let open Telemetry in
  (* empty tracer *)
  let empty = Critical_path.analyze (Tracer.create ()) in
  Alcotest.(check int) "no traces" 0 empty.Critical_path.traces;
  Alcotest.(check int) "no stages" 0 (List.length empty.Critical_path.stages);
  (* single-sample percentiles: every percentile is that sample *)
  let tracer = Tracer.create () in
  let root = Tracer.span tracer ~name:"message" ~start:0. ~finish:10. () in
  ignore (Tracer.span tracer ~parent:root ~name:"submit" ~start:0. ~finish:4. ());
  let r = Critical_path.analyze tracer in
  let submit =
    List.find (fun s -> s.Critical_path.stage = "submit") r.Critical_path.stages
  in
  Alcotest.(check (float 1e-9)) "p50 = sample" 4. submit.Critical_path.p50;
  Alcotest.(check (float 1e-9)) "p99 = sample" 4. submit.Critical_path.p99;
  Alcotest.(check (float 1e-9)) "max = sample" 4. submit.Critical_path.max;
  (* a stage missing from one trace is summarised over the traces that
     contain it, not padded with zeros *)
  let root2 = Tracer.span tracer ~name:"message" ~start:20. ~finish:40. () in
  ignore
    (Tracer.span tracer ~parent:root2 ~name:"retry" ~start:20. ~finish:30. ());
  let r2 = Critical_path.analyze tracer in
  Alcotest.(check int) "both traces seen" 2 r2.Critical_path.traces;
  let retry =
    List.find (fun s -> s.Critical_path.stage = "retry") r2.Critical_path.stages
  in
  Alcotest.(check int) "retry present in one trace" 1
    retry.Critical_path.traces;
  Alcotest.(check (float 1e-9)) "not diluted by the other trace" 10.
    retry.Critical_path.p50;
  (* unfinished root: counted as a trace but not complete *)
  ignore (Tracer.span tracer ~name:"message" ~start:50. ());
  let r3 = Critical_path.analyze tracer in
  Alcotest.(check int) "three traces" 3 r3.Critical_path.traces;
  Alcotest.(check int) "two complete" 2 r3.Critical_path.complete

(* --- Scenario integration ------------------------------------------------ *)

let sampled_spec =
  {
    Mail.Scenario.default_spec with
    seed = 3;
    duration = 1500.;
    mail_count = 40;
    faults = Some (Netsim.Fault.parse "seed:5,crash:0.004/200");
    sampling = Some 100.;
    monitors = M.parse "chains-degraded=replica_chains_degraded>0";
  }

let test_scenario_sampling_and_alerts () =
  let o = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) sampled_spec in
  let ts =
    match o.Mail.Scenario.timeseries with
    | Some ts -> ts
    | None -> Alcotest.fail "sampling on but no timeseries"
  in
  (* 15 periodic windows plus the final post-drain one *)
  Alcotest.(check int) "windows" 16 (Ts.window_count ts);
  let mon =
    match o.Mail.Scenario.monitor with
    | Some m -> m
    | None -> Alcotest.fail "sampling on but no monitor"
  in
  Alcotest.(check int) "monitor saw every window" 16
    (M.windows_evaluated mon);
  (* the campaign crashes servers, so the chain gauge must have tripped *)
  Alcotest.(check bool) "chains-degraded fired" true (M.fired mon);
  Alcotest.(check int) "alert counters in the registry"
    (List.length (M.alerts mon))
    (R.get_counter o.Mail.Scenario.metrics "alert_total");
  (* health gauges exist after the run *)
  Alcotest.(check bool) "chain_health gauge present" true
    (Float.is_finite (R.get_gauge o.Mail.Scenario.metrics "chain_health"));
  Alcotest.(check bool) "queue_depth gauge present" true
    (Float.is_finite (R.get_gauge o.Mail.Scenario.metrics "queue_depth"))

let test_scenario_timeseries_deterministic () =
  let run () =
    let o =
      Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) sampled_spec
    in
    match o.Mail.Scenario.timeseries with
    | Some ts -> Telemetry.Json.to_string (Ts.to_json ts)
    | None -> Alcotest.fail "no timeseries"
  in
  Alcotest.(check string) "byte-identical across identical runs" (run ())
    (run ())

let suite =
  [
    ( "observability",
      [
        Alcotest.test_case "iter_sorted order and volatility" `Quick
          test_iter_sorted_order_and_volatile;
        Alcotest.test_case "tracer overflow counts drops" `Quick
          test_tracer_overflow_counts_drops;
        Alcotest.test_case "engine recurring event" `Quick test_engine_every;
        Alcotest.test_case "timeseries delta encoding" `Quick
          test_timeseries_delta_encoding;
        Alcotest.test_case "timeseries excludes volatile" `Quick
          test_timeseries_excludes_volatile;
        Alcotest.test_case "monitor DSL round-trip" `Quick
          test_monitor_dsl_roundtrip;
        Alcotest.test_case "monitor thresholds and counters" `Quick
          test_monitor_threshold_and_counters;
        Alcotest.test_case "monitor delta, absence, burn" `Quick
          test_monitor_delta_absent_burn;
        Alcotest.test_case "critical-path edge cases" `Quick
          test_critical_path_edges;
        Alcotest.test_case "scenario sampling and alerts" `Quick
          test_scenario_sampling_and_alerts;
        Alcotest.test_case "scenario timeseries deterministic" `Quick
          test_scenario_timeseries_deterministic;
      ] );
  ]
