(* Edge-case sweep across modules: behaviours not covered by the
   per-module suites. *)

(* --- engine ---------------------------------------------------------- *)

let test_cancel_from_within_run () =
  let e = Dsim.Engine.create () in
  let fired = ref false in
  let late = Dsim.Engine.schedule_at e 10. (fun () -> fired := true) in
  ignore (Dsim.Engine.schedule_at e 1. (fun () -> Dsim.Engine.cancel e late));
  Dsim.Engine.run e;
  Alcotest.(check bool) "cancelled mid-run" false !fired

let test_step_then_run () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  ignore (Dsim.Engine.schedule_at e 1. (fun () -> log := 1 :: !log));
  ignore (Dsim.Engine.schedule_at e 2. (fun () -> log := 2 :: !log));
  ignore (Dsim.Engine.step e);
  Dsim.Engine.run e;
  Alcotest.(check (list int)) "mixing step and run" [ 1; 2 ] (List.rev !log)

let test_run_until_twice () =
  let e = Dsim.Engine.create () in
  Dsim.Engine.run ~until:5. e;
  Dsim.Engine.run ~until:3. e;
  (* horizon in the past: clock must not go backwards *)
  Alcotest.(check (float 1e-9)) "clock monotone" 5. (Dsim.Engine.now e)

(* --- balancer caps ---------------------------------------------------- *)

let test_balancer_max_passes_cap () =
  let problem = Loadbalance.Assignment.problem_of_site (Netsim.Topology.paper_fig1 ()) in
  let t = Loadbalance.Balancer.initialize problem in
  let stats = Loadbalance.Balancer.balance ~max_passes:1 problem t in
  Alcotest.(check bool) "not converged in one pass" false
    stats.Loadbalance.Balancer.converged;
  Alcotest.(check int) "passes capped" 1 stats.Loadbalance.Balancer.passes

(* --- mm1 extras -------------------------------------------------------- *)

let test_mm1_distribution_sums () =
  let rho = 0.6 in
  let total = ref 0. in
  for n = 0 to 200 do
    total := !total +. Queueing.Mm1.prob_n_customers ~rho n
  done;
  Alcotest.(check bool) "P(N=n) sums to ~1" true (Float.abs (!total -. 1.) < 1e-9)

let test_prob_wait_monotone () =
  let p t = Queueing.Mm1.prob_wait_exceeds ~arrival_rate:1. ~service_rate:2. t in
  Alcotest.(check bool) "decreasing in t" true (p 0.5 > p 1.0 && p 1.0 > p 2.0)

(* --- workload striping -------------------------------------------------- *)

let test_recipient_locality_striping () =
  let rng = Dsim.Rng.create 5 in
  let pop = { Queueing.Workload.size = 120; skew = 0. } in
  (* locality 1.0: recipient always shares the sender's stripe *)
  for _ = 1 to 300 do
    let sender = Dsim.Rng.int rng 120 in
    let r =
      Queueing.Workload.pick_recipient ~rng pop ~sender ~locality:1.0 ~regions:4
    in
    if r mod 4 <> sender mod 4 then
      Alcotest.failf "recipient %d not in sender %d's region" r sender
  done

(* --- graph edge cases --------------------------------------------------- *)

let test_subgraph_ignores_unknown_and_duplicates () =
  let g = Netsim.Topology.line ~n:3 ~weight:1. in
  let sub, mapping = Netsim.Graph.subgraph g [ 0; 0; 1; 99 ] in
  Alcotest.(check int) "two nodes" 2 (Netsim.Graph.node_count sub);
  Alcotest.(check int) "one edge" 1 (Netsim.Graph.edge_count sub);
  Alcotest.(check bool) "unknown unmapped" true (mapping 99 = None)

(* --- evaluation for design 2 ---------------------------------------------- *)

let test_evaluation_of_location () =
  let rng = Dsim.Rng.create 3 in
  let g = Netsim.Topology.hierarchical ~rng Netsim.Topology.default_hierarchy in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  let site =
    { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }
  in
  let sys = Mail.Location_system.create site in
  let users = Mail.Location_system.users sys in
  ignore
    (Mail.Location_system.submit sys ~sender:(List.nth users 0)
       ~recipient:(List.nth users 50) ());
  Mail.Location_system.quiesce sys;
  ignore (Mail.Location_system.check_mail sys (List.nth users 50));
  let r = Mail.Evaluation.of_location sys in
  Alcotest.(check int) "deposited" 1 r.Mail.Evaluation.deposited;
  Alcotest.(check int) "retrieved" 1 r.Mail.Evaluation.retrieved

(* --- heap stress ------------------------------------------------------------ *)

let test_heap_interleaved_push_pop () =
  let h = Dsim.Heap.create () in
  let rng = Dsim.Rng.create 9 in
  let reference = ref [] in
  for _ = 1 to 500 do
    if Dsim.Rng.bool rng || !reference = [] then begin
      let p = Dsim.Rng.float rng 100. in
      Dsim.Heap.push h p p;
      reference := p :: !reference
    end
    else begin
      let expected = List.fold_left Float.min infinity !reference in
      match Dsim.Heap.pop h with
      | Some (p, _) ->
          if Float.abs (p -. expected) > 1e-12 then
            Alcotest.failf "pop %f expected %f" p expected;
          let rec remove_one x = function
            | [] -> []
            | y :: tl -> if y = x then tl else y :: remove_one x tl
          in
          reference := remove_one expected !reference
      | None -> Alcotest.fail "empty heap with non-empty reference"
    end
  done

let suite =
  [
    ( "misc",
      [
        Alcotest.test_case "cancel from within run" `Quick test_cancel_from_within_run;
        Alcotest.test_case "step then run" `Quick test_step_then_run;
        Alcotest.test_case "run_until with past horizon" `Quick test_run_until_twice;
        Alcotest.test_case "balancer max_passes cap" `Quick test_balancer_max_passes_cap;
        Alcotest.test_case "M/M/1 distribution sums" `Quick test_mm1_distribution_sums;
        Alcotest.test_case "P(wait) monotone" `Quick test_prob_wait_monotone;
        Alcotest.test_case "recipient locality striping" `Quick
          test_recipient_locality_striping;
        Alcotest.test_case "subgraph odd inputs" `Quick
          test_subgraph_ignores_unknown_and_duplicates;
        Alcotest.test_case "evaluation of design 2" `Quick test_evaluation_of_location;
        Alcotest.test_case "heap interleaved stress" `Quick test_heap_interleaved_push_pop;
      ] );
  ]
