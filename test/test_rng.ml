(* Tests for Dsim.Rng: determinism, ranges, distribution sanity. *)

let test_determinism () =
  let a = Dsim.Rng.create 42 and b = Dsim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Dsim.Rng.bits64 a) (Dsim.Rng.bits64 b)
  done

let test_different_seeds () =
  let a = Dsim.Rng.create 1 and b = Dsim.Rng.create 2 in
  Alcotest.(check bool) "diverge" false (Dsim.Rng.bits64 a = Dsim.Rng.bits64 b)

let test_copy_independent () =
  let a = Dsim.Rng.create 5 in
  let b = Dsim.Rng.copy a in
  let x = Dsim.Rng.bits64 a in
  let y = Dsim.Rng.bits64 b in
  Alcotest.(check int64) "copy resumes identically" x y

let test_split_independent () =
  let a = Dsim.Rng.create 5 in
  let b = Dsim.Rng.split a in
  Alcotest.(check bool) "split diverges" false (Dsim.Rng.bits64 a = Dsim.Rng.bits64 b)

let test_float_range () =
  let g = Dsim.Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Dsim.Rng.float g 10. in
    if x < 0. || x >= 10. then Alcotest.failf "float out of range: %f" x
  done

let test_float_bad_bound () =
  let g = Dsim.Rng.create 3 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.float: bound must be positive and finite") (fun () ->
      ignore (Dsim.Rng.float g 0.))

let test_int_range () =
  let g = Dsim.Rng.create 4 in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    let x = Dsim.Rng.int g 7 in
    if x < 0 || x >= 7 then Alcotest.failf "int out of range: %d" x;
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_int_bad_bound () =
  let g = Dsim.Rng.create 4 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Dsim.Rng.int g 0))

let test_bernoulli_extremes () =
  let g = Dsim.Rng.create 9 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0" false (Dsim.Rng.bernoulli g 0.);
    Alcotest.(check bool) "p=1" true (Dsim.Rng.bernoulli g 1.)
  done

let test_exponential_mean () =
  let g = Dsim.Rng.create 10 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Dsim.Rng.exponential g 2.0
  done;
  let mean = !sum /. float_of_int n in
  (* Exp(2) has mean 0.5; loose 5% tolerance. *)
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.025)

let test_zipf_range () =
  let g = Dsim.Rng.create 14 in
  for _ = 1 to 2000 do
    let x = Dsim.Rng.zipf g ~n:50 ~s:1.1 in
    if x < 1 || x > 50 then Alcotest.failf "zipf out of range: %d" x
  done

let test_zipf_skew () =
  let g = Dsim.Rng.create 15 in
  let counts = Array.make 51 0 in
  for _ = 1 to 10000 do
    let x = Dsim.Rng.zipf g ~n:50 ~s:1.2 in
    counts.(x) <- counts.(x) + 1
  done;
  Alcotest.(check bool) "rank 1 most frequent" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "strong head" true (counts.(1) > 10000 / 10)

let test_zipf_n1 () =
  let g = Dsim.Rng.create 16 in
  Alcotest.(check int) "n=1 always 1" 1 (Dsim.Rng.zipf g ~n:1 ~s:1.0)

let test_choice_and_shuffle () =
  let g = Dsim.Rng.create 17 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 100 do
    let x = Dsim.Rng.choice g arr in
    if not (Array.exists (( = ) x) arr) then Alcotest.failf "choice invalid: %d" x
  done;
  let arr2 = Array.init 20 Fun.id in
  Dsim.Rng.shuffle g arr2;
  let sorted = Array.copy arr2 in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 20 Fun.id) sorted

let prop_uniform_in_interval =
  QCheck.Test.make ~name:"uniform stays inside its interval" ~count:500
    QCheck.(pair (float_range (-100.) 100.) (float_range 0.1 50.))
    (fun (lo, width) ->
      let g = Dsim.Rng.create 99 in
      let x = Dsim.Rng.uniform g lo (lo +. width) in
      x >= lo && x < lo +. width)

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_different_seeds;
        Alcotest.test_case "copy" `Quick test_copy_independent;
        Alcotest.test_case "split" `Quick test_split_independent;
        Alcotest.test_case "float range" `Quick test_float_range;
        Alcotest.test_case "float bad bound" `Quick test_float_bad_bound;
        Alcotest.test_case "int range covers all residues" `Quick test_int_range;
        Alcotest.test_case "int bad bound" `Quick test_int_bad_bound;
        Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
        Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
        Alcotest.test_case "zipf range" `Quick test_zipf_range;
        Alcotest.test_case "zipf skew" `Slow test_zipf_skew;
        Alcotest.test_case "zipf n=1" `Quick test_zipf_n1;
        Alcotest.test_case "choice and shuffle" `Quick test_choice_and_shuffle;
        QCheck_alcotest.to_alcotest prop_uniform_in_interval;
      ] );
  ]
