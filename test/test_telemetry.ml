(* Telemetry registry, histogram percentile edge cases, and JSON
   round-tripping. *)

module R = Telemetry.Registry
module J = Telemetry.Json

let test_counter_create_incr () =
  let reg = R.create () in
  let c = R.counter reg "polls" in
  R.incr c;
  R.incr ~by:4 c;
  Alcotest.(check int) "lookup by name" 5 (R.get_counter reg "polls");
  (* find-or-create memoises: same handle again *)
  R.incr (R.counter reg "polls");
  Alcotest.(check int) "same handle" 6 (R.get_counter reg "polls");
  Alcotest.(check int) "absent counter reads 0" 0 (R.get_counter reg "nope")

let test_labels_distinguish_and_normalise () =
  let reg = R.create () in
  R.incr (R.counter ~labels:[ ("design", "syntax") ] reg "polls");
  R.incr ~by:2 (R.counter ~labels:[ ("design", "location") ] reg "polls");
  Alcotest.(check int) "label set 1" 1
    (R.get_counter ~labels:[ ("design", "syntax") ] reg "polls");
  Alcotest.(check int) "label set 2" 2
    (R.get_counter ~labels:[ ("design", "location") ] reg "polls");
  (* label order is irrelevant *)
  R.incr (R.counter ~labels:[ ("b", "2"); ("a", "1") ] reg "x");
  Alcotest.(check int) "sorted lookup" 1
    (R.get_counter ~labels:[ ("a", "1"); ("b", "2") ] reg "x");
  Alcotest.check_raises "duplicate label keys rejected"
    (Invalid_argument "Registry: duplicate label key \"a\"") (fun () ->
      ignore (R.counter ~labels:[ ("a", "1"); ("a", "2") ] reg "y"))

let test_kind_clash_rejected () =
  let reg = R.create () in
  ignore (R.counter reg "m");
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Registry: \"m\" already registered as a counter") (fun () ->
      ignore (R.gauge reg "m"))

let test_histogram_empty () =
  let reg = R.create () in
  let h = R.histogram reg "lat" in
  Alcotest.(check int) "count" 0 (R.hist_count h);
  Alcotest.(check bool) "p50 nan" true (Float.is_nan (R.percentile h 50.));
  Alcotest.(check bool) "mean nan" true (Float.is_nan (R.hist_mean h));
  Alcotest.(check bool) "min nan" true (Float.is_nan (R.hist_min h));
  Alcotest.(check bool) "max nan" true (Float.is_nan (R.hist_max h))

let test_histogram_single_sample () =
  let reg = R.create () in
  let h = R.histogram reg "lat" in
  R.observe h 42.;
  Alcotest.(check int) "count" 1 (R.hist_count h);
  (* every percentile of a single sample is that sample *)
  List.iter
    (fun p -> Alcotest.(check (float 1e-9)) "percentile" 42. (R.percentile h p))
    [ 0.; 50.; 90.; 99.; 100. ];
  Alcotest.(check (float 1e-9)) "mean" 42. (R.hist_mean h);
  Alcotest.(check (float 1e-9)) "min" 42. (R.hist_min h);
  Alcotest.(check (float 1e-9)) "max" 42. (R.hist_max h)

let test_percentiles_interpolate () =
  let reg = R.create () in
  let h = R.histogram reg "lat" in
  for i = 1 to 100 do
    R.observe h (float_of_int i)
  done;
  Alcotest.(check bool) "p50 near median" true
    (Float.abs (R.percentile h 50. -. 50.5) < 1.);
  Alcotest.(check bool) "p90 near 90" true (Float.abs (R.percentile h 90. -. 90.) < 1.5);
  Alcotest.(check bool) "p99 near 99" true (Float.abs (R.percentile h 99. -. 99.) < 1.5);
  Alcotest.(check bool) "order" true
    (R.percentile h 50. < R.percentile h 90. && R.percentile h 90. < R.percentile h 99.)

let test_json_round_trip () =
  let reg = R.create ~labels:[ ("design", "syntax") ] () in
  R.incr ~by:7 (R.counter reg "polls");
  R.incr (R.counter ~labels:[ ("event", "gossip") ] reg "system_events");
  R.set_gauge (R.gauge reg "availability") 0.975;
  let h = R.histogram reg "lat" in
  List.iter (R.observe h) [ 1.; 2.; 3.; 4.; 15. ];
  let json = R.to_json reg in
  let round = J.of_string (J.to_string json) in
  Alcotest.(check bool) "compact round-trip" true (J.equal json round);
  let round2 = J.of_string (J.to_string ~indent:2 json) in
  Alcotest.(check bool) "indented round-trip" true (J.equal json round2);
  (* spot-check shape *)
  (match J.member "counters" json with
  | Some (J.List cs) -> Alcotest.(check int) "two counters" 2 (List.length cs)
  | _ -> Alcotest.fail "counters missing");
  match J.member "histograms" json with
  | Some (J.List [ J.Obj fields ]) ->
      Alcotest.(check bool) "has p99" true (List.mem_assoc "p99" fields);
      Alcotest.(check bool) "max recorded" true
        (List.assoc "max" fields = J.Float 15.)
  | _ -> Alcotest.fail "histograms missing"

let test_json_non_finite_and_escapes () =
  let json =
    J.Obj
      [
        ("nan", J.Float nan);
        ("inf", J.Float infinity);
        ("text", J.String "a\"b\\c\n\t\x01");
        ("neg", J.Int (-3));
        ("e", J.List []);
      ]
  in
  let s = J.to_string json in
  let round = J.of_string s in
  (* non-finite floats degrade to null — everything else survives *)
  Alcotest.(check bool) "nan -> null" true (J.member "nan" round = Some J.Null);
  Alcotest.(check bool) "inf -> null" true (J.member "inf" round = Some J.Null);
  Alcotest.(check bool) "escaped string" true
    (J.member "text" round = Some (J.String "a\"b\\c\n\t\x01"));
  Alcotest.(check bool) "negative int" true (J.member "neg" round = Some (J.Int (-3)))

let test_engine_probe () =
  let reg = R.create () in
  let engine = Dsim.Engine.create () in
  Telemetry.Probe.attach_engine reg engine;
  ignore (Dsim.Engine.schedule_after ~category:"tick" engine 1. (fun () -> ()));
  ignore (Dsim.Engine.schedule_after ~category:"tick" engine 2. (fun () -> ()));
  ignore (Dsim.Engine.schedule_after engine 3. (fun () -> ()));
  Dsim.Engine.run engine;
  (* Counters flow through the batched profile flush, not a per-event
     callback. *)
  Telemetry.Probe.sync_engine_profile reg engine;
  Alcotest.(check int) "tick events" 2
    (R.get_counter ~labels:[ ("category", "tick") ] reg "engine_events");
  Alcotest.(check int) "default category" 1
    (R.get_counter ~labels:[ ("category", "event") ] reg "engine_events");
  Alcotest.(check bool) "handler time gauge exists" true
    (R.get_gauge reg "engine_handler_seconds" >= 0.)

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "counter create/incr/lookup" `Quick test_counter_create_incr;
        Alcotest.test_case "labels distinguish and normalise" `Quick
          test_labels_distinguish_and_normalise;
        Alcotest.test_case "kind clash rejected" `Quick test_kind_clash_rejected;
        Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
        Alcotest.test_case "histogram: single sample" `Quick
          test_histogram_single_sample;
        Alcotest.test_case "histogram: p50/p90/p99 interpolation" `Quick
          test_percentiles_interpolate;
        Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
        Alcotest.test_case "JSON non-finite and escapes" `Quick
          test_json_non_finite_and_escapes;
        Alcotest.test_case "engine probe" `Quick test_engine_probe;
      ] );
  ]
