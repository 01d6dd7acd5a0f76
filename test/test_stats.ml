(* Tests for Dsim.Stats accumulators. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

module Summary = struct
  let test_basic () =
    let s = Dsim.Stats.Summary.create () in
    List.iter (Dsim.Stats.Summary.add s) [ 1.; 2.; 3.; 4. ];
    Alcotest.(check int) "count" 4 (Dsim.Stats.Summary.count s);
    Alcotest.(check bool) "mean" true (feq (Dsim.Stats.Summary.mean s) 2.5);
    Alcotest.(check bool) "variance" true
      (feq (Dsim.Stats.Summary.variance s) (5. /. 3.));
    Alcotest.(check bool) "min" true (feq (Dsim.Stats.Summary.min s) 1.);
    Alcotest.(check bool) "max" true (feq (Dsim.Stats.Summary.max s) 4.);
    Alcotest.(check bool) "total" true (feq (Dsim.Stats.Summary.total s) 10.)

  let test_empty () =
    let s = Dsim.Stats.Summary.create () in
    Alcotest.(check bool) "mean nan" true (Float.is_nan (Dsim.Stats.Summary.mean s));
    Alcotest.(check bool) "variance 0" true (Dsim.Stats.Summary.variance s = 0.)

  let prop_matches_direct =
    QCheck.Test.make ~name:"summary matches direct two-pass computation" ~count:200
      QCheck.(list_of_size (Gen.int_range 2 100) (float_range (-100.) 100.))
      (fun xs ->
        let s = Dsim.Stats.Summary.create () in
        List.iter (Dsim.Stats.Summary.add s) xs;
        let n = float_of_int (List.length xs) in
        let mean = List.fold_left ( +. ) 0. xs /. n in
        let var =
          List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)
        in
        feq ~eps:1e-6 (Dsim.Stats.Summary.mean s) mean
        && feq ~eps:1e-6 (Dsim.Stats.Summary.variance s) var)
end

module Counter = struct
  let test_basic () =
    let c = Dsim.Stats.Counter.create () in
    Dsim.Stats.Counter.incr c "a";
    Dsim.Stats.Counter.incr ~by:5 c "a";
    Dsim.Stats.Counter.incr c "b";
    Alcotest.(check int) "a" 6 (Dsim.Stats.Counter.get c "a");
    Alcotest.(check int) "b" 1 (Dsim.Stats.Counter.get c "b");
    Alcotest.(check int) "missing" 0 (Dsim.Stats.Counter.get c "zzz");
    Alcotest.(check (list (pair string int)))
      "to_list sorted"
      [ ("a", 6); ("b", 1) ]
      (Dsim.Stats.Counter.to_list c)
end

module Log_histogram = struct
  module H = Dsim.Stats.Log_histogram

  let of_list xs =
    let h = H.create () in
    List.iter (H.add h) xs;
    h

  (* Exact nearest-rank percentile for an integer percent: the value
     of rank ceil(p * n / 100), at least 1, in the sorted sample. *)
  let nearest_rank xs p =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    a.(max 1 (((p * n) + 99) / 100) - 1)

  let within_1pct exact v = Float.abs (v -. exact) <= 0.01 *. Float.abs exact

  let test_buckets () =
    (* 64 linear buckets per power of two: 1 and 1 + 1/64 start
       adjacent buckets, each read at its midpoint; ranks 1 and n read
       the exact min and max; zeros share one bucket read as 0. *)
    let h = of_list [ 0.5; 1.; 1.015625; 1.02; 3. ] in
    Alcotest.(check (float 0.)) "rank 1 is min" 0.5 (H.percentile h 20.);
    Alcotest.(check (float 0.)) "bucket [1, 1+1/64)" 1.0078125 (H.percentile h 40.);
    Alcotest.(check (float 0.)) "bucket [1+1/64, 1+2/64)" 1.0234375
      (H.percentile h 60.);
    Alcotest.(check (float 0.)) "same bucket" 1.0234375 (H.percentile h 80.);
    Alcotest.(check (float 0.)) "rank n is max" 3. (H.percentile h 100.);
    let z = of_list [ 0.; 0.; -0.; 7.; 9. ] in
    Alcotest.(check (float 0.)) "zero bucket" 0. (H.percentile z 60.);
    Alcotest.(check int) "count" 5 (H.count z);
    Alcotest.(check (float 0.)) "sum" 16. (H.sum z)

  let test_exact_fields () =
    let one = of_list [ 0.3 ] in
    List.iter
      (fun p -> Alcotest.(check (float 0.)) "single sample" 0.3 (H.percentile one p))
      [ 0.; 50.; 99.; 100. ];
    let h = of_list [ 3.7; 0.001; 12345.6789; 42.; 42.5 ] in
    Alcotest.(check (float 0.)) "p0 = min" 0.001 (H.percentile h 0.);
    Alcotest.(check (float 0.)) "p100 = max" 12345.6789 (H.percentile h 100.);
    Alcotest.(check (float 0.)) "min" 0.001 (H.min h);
    Alcotest.(check (float 0.)) "max" 12345.6789 (H.max h)

  let test_empty () =
    let h = H.create () in
    Alcotest.(check int) "count" 0 (H.count h);
    Alcotest.(check bool) "percentile, mean, min and max read nan" true
      (List.for_all Float.is_nan [ H.percentile h 50.; H.mean h; H.min h; H.max h ]);
    Alcotest.(check int) "empty window" 0 (H.count (H.diff h (H.copy h)))

  (* Latency-like values over many octaves, with exact zeros. *)
  let value =
    QCheck.Gen.(
      frequency
        [
          (1, return 0.);
          (3, map (fun e -> 2. ** e) (float_range (-12.) 20.));
          (3, float_range 0. 1000.);
        ])

  let prop_window =
    QCheck.Test.make ~name:"window percentiles within 1% of exact nearest rank"
      ~count:300
      QCheck.(
        make
          ~print:Print.(pair (list float) (list float))
          Gen.(pair (list_size (int_range 0 200) value) (list_size (int_range 1 200) value)))
      (fun (first, second) ->
        let h = of_list first in
        let earlier = H.copy h in
        List.iter (H.add h) second;
        let w = H.diff h earlier in
        H.count w = List.length second
        && List.for_all
             (fun p -> within_1pct (nearest_rank second p) (H.percentile w (float_of_int p)))
             [ 0; 1; 10; 50; 90; 99; 100 ]
        && within_1pct (nearest_rank (first @ second) 99) (H.percentile h 99.))
end

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "summary basic" `Quick Summary.test_basic;
        Alcotest.test_case "summary empty" `Quick Summary.test_empty;
        QCheck_alcotest.to_alcotest Summary.prop_matches_direct;
        Alcotest.test_case "counter" `Quick Counter.test_basic;
        Alcotest.test_case "histogram buckets" `Quick Log_histogram.test_buckets;
        Alcotest.test_case "histogram single sample" `Quick
          Log_histogram.test_exact_fields;
        Alcotest.test_case "histogram empty" `Quick Log_histogram.test_empty;
        QCheck_alcotest.to_alcotest Log_histogram.prop_window;
      ] );
  ]
