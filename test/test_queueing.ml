(* Tests for the analytic queueing models, including an empirical
   validation of the M/M/1 formulas against a simulation built on the
   event engine — evidence the substrate reproduces textbook queueing
   behaviour, which the paper's cost model (§3.1.1) relies on. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

let test_paper_q () =
  Alcotest.(check (float 1e-9)) "rho=0" 0. (Queueing.Mm1.paper_q 0.);
  Alcotest.(check (float 1e-9)) "rho=0.5" 1. (Queueing.Mm1.paper_q 0.5);
  Alcotest.(check bool) "rho=0.9" true (feq (Queueing.Mm1.paper_q 0.9) 9.);
  Alcotest.(check (float 1e-9)) "cap at 0.99" 1e6 (Queueing.Mm1.paper_q 0.99);
  Alcotest.(check (float 1e-9)) "cap beyond 1" 1e6 (Queueing.Mm1.paper_q 1.5);
  Alcotest.(check (float 1e-9)) "custom cap" 123. (Queueing.Mm1.paper_q ~cap:123. 1.2);
  Alcotest.(check (float 1e-9)) "negative clamped" 0. (Queueing.Mm1.paper_q (-0.3))

let test_mm1_formulas () =
  let lambda = 2. and mu = 5. in
  Alcotest.(check (float 1e-9)) "rho" 0.4
    (Queueing.Mm1.utilization ~arrival_rate:lambda ~service_rate:mu);
  Alcotest.(check bool) "Wq = rho/(mu-lambda)" true
    (feq (Queueing.Mm1.mean_waiting_time ~arrival_rate:lambda ~service_rate:mu) (0.4 /. 3.));
  Alcotest.(check bool) "W = 1/(mu-lambda)" true
    (feq (Queueing.Mm1.mean_sojourn_time ~arrival_rate:lambda ~service_rate:mu) (1. /. 3.));
  Alcotest.(check bool) "L" true (feq (Queueing.Mm1.mean_queue_length ~rho:0.4) (2. /. 3.));
  Alcotest.(check (float 1e-12)) "P(N=0)" 0.6 (Queueing.Mm1.prob_n_customers ~rho:0.4 0);
  Alcotest.(check bool) "unstable" true
    (Queueing.Mm1.mean_waiting_time ~arrival_rate:6. ~service_rate:5. = infinity)

let test_prob_wait () =
  let p = Queueing.Mm1.prob_wait_exceeds ~arrival_rate:2. ~service_rate:5. 0. in
  Alcotest.(check (float 1e-9)) "t=0" 1. p;
  let p1 = Queueing.Mm1.prob_wait_exceeds ~arrival_rate:2. ~service_rate:5. 1. in
  Alcotest.(check bool) "decays" true (feq p1 (exp (-3.)))

let test_workload_generators () =
  let rng = Dsim.Rng.create 3 in
  let arr = Queueing.Workload.poisson_arrivals ~rng ~rate:0.5 ~horizon:1000. in
  let sorted = List.sort Float.compare arr in
  Alcotest.(check bool) "ascending" true (arr = sorted);
  Alcotest.(check bool) "rate plausible" true
    (List.length arr > 350 && List.length arr < 650);
  List.iter (fun t -> if t < 0. || t >= 1000. then Alcotest.fail "outside horizon") arr;
  let uni = Queueing.Workload.uniform_arrivals ~rng ~count:50 ~horizon:10. in
  Alcotest.(check int) "uniform count" 50 (List.length uni);
  Alcotest.(check bool) "uniform sorted" true (uni = List.sort Float.compare uni);
  let per = Queueing.Workload.periodic_arrivals ~period:2.5 ~horizon:10. in
  Alcotest.(check (list (float 1e-9))) "periodic" [ 2.5; 5.; 7.5 ] per

let test_population_picks () =
  let rng = Dsim.Rng.create 4 in
  let pop = { Queueing.Workload.size = 100; skew = 1.0 } in
  for _ = 1 to 500 do
    let s = Queueing.Workload.pick_sender ~rng pop in
    if s < 0 || s >= 100 then Alcotest.failf "sender out of range: %d" s;
    let r = Queueing.Workload.pick_recipient ~rng pop ~sender:s ~locality:0.8 ~regions:4 in
    if r < 0 || r >= 100 then Alcotest.failf "recipient out of range: %d" r;
    if r = s then Alcotest.fail "recipient equals sender"
  done

(* Empirical M/M/1: a single-server FIFO queue driven by the event
   engine; the measured mean wait must match rho/(mu-lambda). *)
let test_mm1_empirical () =
  let lambda = 1.0 and mu = 2.0 in
  let rng = Dsim.Rng.create 777 in
  let engine = Dsim.Engine.create () in
  let waits = Dsim.Stats.Summary.create () in
  let queue = Queue.create () in
  let busy = ref false in
  let rec start_service () =
    match Queue.take_opt queue with
    | None -> busy := false
    | Some arrival_time ->
        busy := true;
        Dsim.Stats.Summary.add waits (Dsim.Engine.now engine -. arrival_time);
        let service = Dsim.Rng.exponential rng mu in
        ignore (Dsim.Engine.schedule_after engine service start_service)
  in
  let horizon = 200000. in
  let rec arrive () =
    let gap = Dsim.Rng.exponential rng lambda in
    ignore
      (Dsim.Engine.schedule_after engine gap (fun () ->
           if Dsim.Engine.now engine < horizon then begin
             Queue.add (Dsim.Engine.now engine) queue;
             if not !busy then start_service ();
             arrive ()
           end))
  in
  arrive ();
  Dsim.Engine.run engine;
  let expected = Queueing.Mm1.mean_waiting_time ~arrival_rate:lambda ~service_rate:mu in
  let measured = Dsim.Stats.Summary.mean waits in
  if Float.abs (measured -. expected) > 0.05 *. expected then
    Alcotest.failf "empirical wait %f vs analytic %f" measured expected

let suite =
  [
    ( "queueing",
      [
        Alcotest.test_case "paper Q(rho)" `Quick test_paper_q;
        Alcotest.test_case "M/M/1 formulas" `Quick test_mm1_formulas;
        Alcotest.test_case "P(wait > t)" `Quick test_prob_wait;
        Alcotest.test_case "workload generators" `Quick test_workload_generators;
        Alcotest.test_case "population picks" `Quick test_population_picks;
        Alcotest.test_case "M/M/1 empirical validation" `Slow test_mm1_empirical;
      ] );
  ]
