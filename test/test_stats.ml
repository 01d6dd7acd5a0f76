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

  let prop_merge =
    QCheck.Test.make ~name:"merged summary equals summary of concatenation" ~count:200
      QCheck.(
        pair
          (list_of_size (Gen.int_range 1 50) (float_range (-10.) 10.))
          (list_of_size (Gen.int_range 1 50) (float_range (-10.) 10.)))
      (fun (xs, ys) ->
        let sa = Dsim.Stats.Summary.create ()
        and sb = Dsim.Stats.Summary.create ()
        and sc = Dsim.Stats.Summary.create () in
        List.iter (Dsim.Stats.Summary.add sa) xs;
        List.iter (Dsim.Stats.Summary.add sb) ys;
        List.iter (Dsim.Stats.Summary.add sc) (xs @ ys);
        let m = Dsim.Stats.Summary.merge sa sb in
        feq ~eps:1e-6 (Dsim.Stats.Summary.mean m) (Dsim.Stats.Summary.mean sc)
        && feq ~eps:1e-6 (Dsim.Stats.Summary.variance m) (Dsim.Stats.Summary.variance sc)
        && Dsim.Stats.Summary.count m = Dsim.Stats.Summary.count sc)
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

module Histogram = struct
  let test_buckets () =
    let h = Dsim.Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:5 in
    List.iter (Dsim.Stats.Histogram.add h) [ -1.; 0.; 1.9; 2.; 9.99; 10.; 100. ];
    Alcotest.(check int) "count" 7 (Dsim.Stats.Histogram.count h);
    Alcotest.(check int) "underflow" 1 (Dsim.Stats.Histogram.underflow h);
    Alcotest.(check int) "overflow" 2 (Dsim.Stats.Histogram.overflow h);
    let buckets = Dsim.Stats.Histogram.bucket_counts h in
    let counts = Array.map (fun (_, _, c) -> c) buckets in
    Alcotest.(check (array int)) "bucket counts" [| 2; 1; 0; 0; 1 |] counts

  let test_bad_args () =
    Alcotest.check_raises "0 buckets"
      (Invalid_argument "Histogram.create: buckets must be positive") (fun () ->
        ignore (Dsim.Stats.Histogram.create ~lo:0. ~hi:1. ~buckets:0))
end

module Reservoir = struct
  let test_small_exact () =
    let r = Dsim.Stats.Reservoir.create ~capacity:100 (Dsim.Rng.create 1) in
    List.iter (Dsim.Stats.Reservoir.add r) [ 1.; 2.; 3.; 4.; 5. ];
    Alcotest.(check bool) "median" true (feq (Dsim.Stats.Reservoir.median r) 3.);
    Alcotest.(check bool) "p0" true (feq (Dsim.Stats.Reservoir.percentile r 0.) 1.);
    Alcotest.(check bool) "p100" true (feq (Dsim.Stats.Reservoir.percentile r 100.) 5.)

  let test_sampling_is_representative () =
    let r = Dsim.Stats.Reservoir.create ~capacity:500 (Dsim.Rng.create 2) in
    for i = 1 to 100000 do
      Dsim.Stats.Reservoir.add r (float_of_int i)
    done;
    Alcotest.(check int) "seen" 100000 (Dsim.Stats.Reservoir.count r);
    let med = Dsim.Stats.Reservoir.median r in
    Alcotest.(check bool) "median near 50000" true
      (med > 40000. && med < 60000.)

  let test_empty () =
    let r = Dsim.Stats.Reservoir.create (Dsim.Rng.create 3) in
    Alcotest.(check bool) "nan" true (Float.is_nan (Dsim.Stats.Reservoir.median r))
end

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "summary basic" `Quick Summary.test_basic;
        Alcotest.test_case "summary empty" `Quick Summary.test_empty;
        QCheck_alcotest.to_alcotest Summary.prop_matches_direct;
        QCheck_alcotest.to_alcotest Summary.prop_merge;
        Alcotest.test_case "counter" `Quick Counter.test_basic;
        Alcotest.test_case "histogram buckets" `Quick Histogram.test_buckets;
        Alcotest.test_case "histogram bad args" `Quick Histogram.test_bad_args;
        Alcotest.test_case "reservoir exact small" `Quick Reservoir.test_small_exact;
        Alcotest.test_case "reservoir representative" `Slow
          Reservoir.test_sampling_is_representative;
        Alcotest.test_case "reservoir empty" `Quick Reservoir.test_empty;
      ] );
  ]
