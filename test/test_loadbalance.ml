(* Tests for the §3.1.1 load-balancing algorithm: cost model,
   assignment bookkeeping, and the initialization + balancing loop on
   the paper's Figure 1 example (Tables 1 and 2). *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

let fig1_problem () =
  Loadbalance.Assignment.problem_of_site (Netsim.Topology.paper_fig1 ())

(* --- cost model --- *)

let test_paper_params () =
  let p = Loadbalance.Cost.paper_params in
  Alcotest.(check (float 1e-9)) "W1" 4. p.Loadbalance.Cost.w_comm;
  Alcotest.(check (float 1e-9)) "W2" 1. p.Loadbalance.Cost.w_proc;
  Alcotest.(check (float 1e-9)) "z" 0.5 p.Loadbalance.Cost.processing_time

let test_connection_cost_formula () =
  let p = Loadbalance.Cost.paper_params in
  (* TC = C*W1 + (Q(rho) + z)*W2 with Q(0.5) = 1. *)
  let tc = Loadbalance.Cost.connection_cost p ~comm:2. ~rho:0.5 in
  Alcotest.(check bool) "formula" true (feq tc ((2. *. 4.) +. ((1. +. 0.5) *. 1.)));
  (* overload hits the large constant *)
  let tc_over = Loadbalance.Cost.connection_cost p ~comm:0. ~rho:1.2 in
  Alcotest.(check bool) "B dominates" true (tc_over > 1e5)

(* --- assignment --- *)

let test_problem_of_site () =
  let p = fig1_problem () in
  Alcotest.(check int) "hosts" 6 (Array.length p.Loadbalance.Assignment.hosts);
  Alcotest.(check int) "servers" 3 (Array.length p.Loadbalance.Assignment.servers);
  Alcotest.(check (array int)) "capacities" [| 100; 100; 100 |]
    p.Loadbalance.Assignment.capacities;
  (* C for H1 (index 0): adjacent to S1 (1), S2 via S1 (2), S3 via S1,S2 (3) *)
  Alcotest.(check (float 1e-9)) "C(H1,S1)" 1. p.Loadbalance.Assignment.comm.(0).(0);
  Alcotest.(check (float 1e-9)) "C(H1,S2)" 2. p.Loadbalance.Assignment.comm.(0).(1);
  Alcotest.(check (float 1e-9)) "C(H1,S3)" 3. p.Loadbalance.Assignment.comm.(0).(2);
  (* prose fact: C(H2,S1) = 2 *)
  Alcotest.(check (float 1e-9)) "C(H2,S1)" 2. p.Loadbalance.Assignment.comm.(1).(0)

let test_assignment_bookkeeping () =
  let p = fig1_problem () in
  let t = Loadbalance.Assignment.empty p in
  Loadbalance.Assignment.set t ~host:0 ~server:0 30;
  Loadbalance.Assignment.set t ~host:1 ~server:0 20;
  Alcotest.(check int) "load" 50 (Loadbalance.Assignment.load t 0);
  Alcotest.(check int) "host assigned" 30 (Loadbalance.Assignment.assigned_of_host t 0);
  Loadbalance.Assignment.move t ~host:0 ~from_server:0 ~to_server:2 10;
  Alcotest.(check int) "after move src" 40 (Loadbalance.Assignment.load t 0);
  Alcotest.(check int) "after move dst" 10 (Loadbalance.Assignment.load t 2);
  Alcotest.(check int) "host total stable" 30
    (Loadbalance.Assignment.assigned_of_host t 0);
  (try
     Loadbalance.Assignment.move t ~host:0 ~from_server:0 ~to_server:1 100;
     Alcotest.fail "overdraw accepted"
   with Invalid_argument _ -> ());
  try
    Loadbalance.Assignment.set t ~host:0 ~server:0 (-1);
    Alcotest.fail "negative accepted"
  with Invalid_argument _ -> ()

let test_utilization_and_overload () =
  let p = fig1_problem () in
  let t = Loadbalance.Assignment.empty p in
  Loadbalance.Assignment.set t ~host:0 ~server:0 150;
  Alcotest.(check (float 1e-9)) "rho" 1.5 (Loadbalance.Assignment.utilization p t 0);
  Alcotest.(check (list int)) "overloaded" [ 0 ] (Loadbalance.Assignment.overloaded p t)

let test_copy_independent () =
  let p = fig1_problem () in
  let t = Loadbalance.Assignment.empty p in
  Loadbalance.Assignment.set t ~host:0 ~server:0 10;
  let t2 = Loadbalance.Assignment.copy t in
  Loadbalance.Assignment.set t2 ~host:0 ~server:0 99;
  Alcotest.(check int) "original untouched" 10
    (Loadbalance.Assignment.get t ~host:0 ~server:0)

(* --- Table 1: initialization --- *)

let test_table1_initial_assignment () =
  let p = fig1_problem () in
  let t = Loadbalance.Balancer.initialize p in
  (* nearest server per host: S1, S2, S1, S2, S2, S3 *)
  Alcotest.(check (array int)) "initial loads (Table 1)" [| 100; 150; 20 |]
    (Loadbalance.Assignment.loads t);
  Alcotest.(check bool) "complete" true (Loadbalance.Assignment.is_complete p t);
  Alcotest.(check (list int)) "S2 overloaded" [ 1 ]
    (Loadbalance.Assignment.overloaded p t)

(* --- Table 2: balancing --- *)

let test_table2_balanced () =
  let p = fig1_problem () in
  let t = Loadbalance.Balancer.initialize p in
  let stats = Loadbalance.Balancer.balance p t in
  Alcotest.(check bool) "converged" true stats.Loadbalance.Balancer.converged;
  Alcotest.(check bool) "cost strictly improved" true
    (stats.Loadbalance.Balancer.cost_after < stats.Loadbalance.Balancer.cost_before);
  Alcotest.(check bool) "complete" true (Loadbalance.Assignment.is_complete p t);
  Alcotest.(check int) "all users assigned" 270
    (Array.fold_left ( + ) 0 (Loadbalance.Assignment.loads t));
  Alcotest.(check (list int)) "no overload" [] (Loadbalance.Assignment.overloaded p t);
  Alcotest.(check bool) "well balanced" true
    (Loadbalance.Balancer.load_imbalance p t < 0.15);
  (* Table 2's observation: users of one host end up split over
     several servers. *)
  let split_hosts = ref 0 in
  for i = 0 to 5 do
    let used = ref 0 in
    for j = 0 to 2 do
      if Loadbalance.Assignment.get t ~host:i ~server:j > 0 then incr used
    done;
    if !used > 1 then incr split_hosts
  done;
  Alcotest.(check bool) "some host split across servers" true (!split_hosts > 0)

let test_batch_matches_single () =
  let p = fig1_problem () in
  let t1 = Loadbalance.Balancer.initialize p in
  let s1 = Loadbalance.Balancer.balance p t1 in
  let t2 = Loadbalance.Balancer.initialize p in
  let s2 = Loadbalance.Balancer.balance ~batch:true p t2 in
  Alcotest.(check bool) "batch converges" true s2.Loadbalance.Balancer.converged;
  Alcotest.(check bool) "batch needs fewer or equal passes" true
    (s2.Loadbalance.Balancer.passes <= s1.Loadbalance.Balancer.passes);
  (* The bulk moves may settle in a slightly different local optimum
     (the M/M/1 term makes the objective non-convex in single moves);
     the paper presents batching purely as a speed-up, so we assert
     the quality gap stays small rather than zero.  Bench C5 measures
     the trade-off. *)
  let ca = s1.Loadbalance.Balancer.cost_after and cb = s2.Loadbalance.Balancer.cost_after in
  Alcotest.(check bool) "similar quality" true (Float.abs (ca -. cb) < 0.10 *. ca);
  Alcotest.(check (list int)) "batch leaves no overload" []
    (Loadbalance.Assignment.overloaded p t2)

let test_table3_degenerate_start () =
  let p =
    Loadbalance.Assignment.problem_of_site (Netsim.Topology.paper_table3 ())
  in
  let t = Loadbalance.Balancer.initialize p in
  Alcotest.(check (array int)) "initial loads (Table 3)" [| 100; 100; 20 |]
    (Loadbalance.Assignment.loads t);
  let _ = Loadbalance.Balancer.balance p t in
  Alcotest.(check (list int)) "balanced" [] (Loadbalance.Assignment.overloaded p t)

let test_assign_remaining () =
  let p = fig1_problem () in
  let t = Loadbalance.Assignment.empty p in
  let placed = Loadbalance.Balancer.assign_remaining p t in
  Alcotest.(check int) "placed everyone" 270 placed;
  Alcotest.(check bool) "complete" true (Loadbalance.Assignment.is_complete p t)

let prop_move_delta_exact =
  QCheck.Test.make ~name:"move_delta equals total_cost difference" ~count:200
    QCheck.(triple (int_range 0 5) (pair (int_range 0 2) (int_range 0 2)) (int_range 1 20))
    (fun (host, (from_server, to_server), count) ->
      QCheck.assume (from_server <> to_server);
      let p = fig1_problem () in
      let t = Loadbalance.Balancer.initialize p in
      let available = Loadbalance.Assignment.get t ~host ~server:from_server in
      QCheck.assume (available >= count);
      let before = Loadbalance.Assignment.total_cost p t in
      let delta =
        Loadbalance.Assignment.move_delta p t ~host ~from_server ~to_server ~count
      in
      Loadbalance.Assignment.move t ~host ~from_server ~to_server count;
      let after = Loadbalance.Assignment.total_cost p t in
      Float.abs (after -. before -. delta) < 1e-6 *. (1. +. Float.abs delta))

let prop_balancing_invariants =
  QCheck.Test.make ~name:"balancing preserves populations and never increases cost"
    ~count:25
    QCheck.(pair (int_range 2 12) (int_range 2 6))
    (fun (hosts, servers) ->
      let rng = Dsim.Rng.create ((hosts * 31) + servers) in
      let site =
        Netsim.Topology.random_mail_site ~rng ~hosts ~servers ~users_per_host:(5, 60)
          ~extra_edges:hosts
      in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 site.Netsim.Topology.hosts in
      let capacity _ = 1 + (total / servers) in
      let p = Loadbalance.Assignment.problem_of_site ~capacity site in
      let t, stats = Loadbalance.Balancer.run p in
      Loadbalance.Assignment.is_complete p t
      && stats.Loadbalance.Balancer.cost_after
         <= stats.Loadbalance.Balancer.cost_before +. 1e-6
      && stats.Loadbalance.Balancer.converged
      && Array.fold_left ( + ) 0 (Loadbalance.Assignment.loads t) = total)

(* [problem_of_site] runs the flat Dijkstra over one compiled
   adjacency; its [comm] matrix must hold exactly the floats the
   list-based [dijkstra] gives, on a generated multi-region site with
   distinct continuous weights. *)
let test_comm_matches_list_dijkstra () =
  let site =
    Netsim.Topology.scale_site ~rng:(Dsim.Rng.create 7) ~users_per_host:3
      (Netsim.Topology.sized_hierarchy ~regions:4 ~hosts_per_region:6
         ~servers_per_region:2 ~degree:6.0 ())
  in
  let p = Loadbalance.Assignment.problem_of_site site in
  Alcotest.(check int) "every host has a row" (List.length site.Netsim.Topology.hosts)
    (Array.length p.Loadbalance.Assignment.comm);
  Array.iteri
    (fun i h ->
      let tree = Netsim.Shortest_path.dijkstra site.Netsim.Topology.graph h in
      Array.iteri
        (fun j s ->
          let expected = Netsim.Shortest_path.distance tree s in
          let got = p.Loadbalance.Assignment.comm.(i).(j) in
          if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got))
          then Alcotest.failf "C(host %d, server %d): %h, list-based %h" h s got expected)
        p.Loadbalance.Assignment.servers)
    p.Loadbalance.Assignment.hosts

let test_pp_table_smoke () =
  let p = fig1_problem () in
  let t = Loadbalance.Balancer.initialize p in
  let s = Format.asprintf "%a" (Loadbalance.Assignment.pp_table p) t in
  Alcotest.(check bool) "mentions hosts" true (String.length s > 50)

let suite =
  [
    ( "loadbalance",
      [
        Alcotest.test_case "paper parameters" `Quick test_paper_params;
        Alcotest.test_case "connection cost formula" `Quick test_connection_cost_formula;
        Alcotest.test_case "problem from Fig.1" `Quick test_problem_of_site;
        Alcotest.test_case "assignment bookkeeping" `Quick test_assignment_bookkeeping;
        Alcotest.test_case "utilization and overload" `Quick
          test_utilization_and_overload;
        Alcotest.test_case "copy independence" `Quick test_copy_independent;
        Alcotest.test_case "Table 1: initial assignment" `Quick
          test_table1_initial_assignment;
        Alcotest.test_case "Table 2: balanced assignment" `Quick test_table2_balanced;
        Alcotest.test_case "batch variant" `Quick test_batch_matches_single;
        Alcotest.test_case "Table 3 variant" `Quick test_table3_degenerate_start;
        Alcotest.test_case "assign_remaining" `Quick test_assign_remaining;
        QCheck_alcotest.to_alcotest prop_move_delta_exact;
        QCheck_alcotest.to_alcotest prop_balancing_invariants;
        Alcotest.test_case "pp_table smoke" `Quick test_pp_table_smoke;
        Alcotest.test_case "comm matches list-based Dijkstra" `Quick
          test_comm_matches_list_dijkstra;
      ] );
  ]
