(* Benchmark and experiment harness.

   Regenerates every table and figure of the paper (T1-T3, F1, F2) and
   the quantitative experiments its prose claims (C1-C8), then runs
   Bechamel micro-benchmarks of the computational kernels
   ([--skip-micro] skips them).  [--scale quick|mid|full] instead times
   one Mail.Scale run and enforces its throughput ratchet.  See
   DESIGN.md for the experiment index and EXPERIMENTS.md for the
   recorded paper-vs-measured outcomes. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

let write_json file json =
  let oc = open_out file in
  output_string oc (Telemetry.Json.to_string ~indent:2 json);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* T1/T2: the Figure 1 worked example (Tables 1 and 2).               *)
(* ------------------------------------------------------------------ *)

let table_t1_t2 () =
  section "T1/T2: server assignment on the Figure 1 example (Tables 1-2)";
  let site = Netsim.Topology.paper_fig1 () in
  let problem = Loadbalance.Assignment.problem_of_site site in
  let t = Loadbalance.Balancer.initialize problem in
  Printf.printf "\nTable 1 — initial assignment (nearest server, zero-load):\n";
  Format.printf "%a@." (Loadbalance.Assignment.pp_table problem) t;
  let stats = Loadbalance.Balancer.balance problem t in
  Printf.printf "\nTable 2 — final distribution after balancing:\n";
  Format.printf "%a@." (Loadbalance.Assignment.pp_table problem) t;
  Format.printf "\nbalancing: %a@." Loadbalance.Balancer.pp_stats stats;
  (* ablation: batch moves *)
  let tb = Loadbalance.Balancer.initialize problem in
  let sb = Loadbalance.Balancer.balance ~batch:true problem tb in
  Format.printf "batch variant: %a@." Loadbalance.Balancer.pp_stats sb

let table_t3 () =
  section "T3: the three-host variant (Table 3)";
  let problem =
    Loadbalance.Assignment.problem_of_site (Netsim.Topology.paper_table3 ())
  in
  let t = Loadbalance.Balancer.initialize problem in
  Printf.printf "\ninitial assignment:\n";
  Format.printf "%a@." (Loadbalance.Assignment.pp_table problem) t;
  let stats = Loadbalance.Balancer.balance problem t in
  Printf.printf "\nafter balancing:\n";
  Format.printf "%a@." (Loadbalance.Assignment.pp_table problem) t;
  Format.printf "\nbalancing: %a@." Loadbalance.Balancer.pp_stats stats

(* ------------------------------------------------------------------ *)
(* F1: the Figure 1 topology.                                          *)
(* ------------------------------------------------------------------ *)

let figure_f1 () =
  section "F1: Figure 1 topology";
  let site = Netsim.Topology.paper_fig1 () in
  Format.printf "%a@." Netsim.Graph.pp site.Netsim.Topology.graph;
  Printf.printf "host populations: %s\n"
    (String.concat ", "
       (List.map
          (fun (h, n) ->
            Printf.sprintf "%s=%d" (Netsim.Graph.label site.Netsim.Topology.graph h) n)
          site.Netsim.Topology.hosts))

(* ------------------------------------------------------------------ *)
(* F2: backbone MST + local MSTs (Figure 2).                           *)
(* ------------------------------------------------------------------ *)

let figure_f2 () =
  section "F2: backbone MST and local MSTs (Figure 2)";
  let rng = Dsim.Rng.create 2024 in
  let g = Netsim.Topology.hierarchical ~rng Netsim.Topology.default_hierarchy in
  let bb = Mst.Backbone.build g in
  Format.printf "%a@." (Mst.Backbone.pp g) bb;
  let flat = Mst.Backbone.flat_mst g in
  Printf.printf
    "\nablation — flat global MST weight %.3f vs backbone+locals %.3f (+%.1f%%)\n"
    flat.Mst.Kruskal.total_weight bb.Mst.Backbone.total_weight
    (100.
    *. (bb.Mst.Backbone.total_weight -. flat.Mst.Kruskal.total_weight)
    /. flat.Mst.Kruskal.total_weight);
  Printf.printf "distributed construction used %d GHS messages\n"
    bb.Mst.Backbone.messages

(* ------------------------------------------------------------------ *)
(* C1: polls per retrieval vs server availability.                     *)
(* ------------------------------------------------------------------ *)

(* Random server crashes: [rate] per server per unit time, each
   repaired after an exponential time of mean 150. *)
let crashes rate =
  Some
    { Netsim.Fault.seed = 0; faults = [ Netsim.Fault.Crashes { rate; repair = Exp_mean 150. } ] }

let experiment_c1 () =
  section "C1: GetMail polls per retrieval vs failure rate (§5 claim: ~1)";
  Printf.printf "%10s %12s %12s %12s %12s %12s\n" "fail-rate" "availability"
    "polls/check" "failed-polls" "undelivered" "unretrieved";
  List.iter
    (fun rate ->
      let spec =
        {
          Mail.Scenario.default_spec with
          faults = crashes rate;
          seed = 42;
          duration = 5000.;
          mail_count = 300;
        }
      in
      let o = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) spec in
      let r = o.Mail.Scenario.report in
      Printf.printf "%10.4f %12.3f %12.3f %12d %12d %12d\n" rate
        o.Mail.Scenario.availability o.Mail.Scenario.final_polls_per_check
        r.Mail.Evaluation.failed_polls r.Mail.Evaluation.undelivered
        r.Mail.Evaluation.unretrieved)
    [ 0.0; 0.0002; 0.0005; 0.001; 0.002; 0.005; 0.01 ];
  subsection "dispersion across 5 seeds (polls/check, mean +/- sd)";
  List.iter
    (fun rate ->
      let spec =
        {
          Mail.Scenario.default_spec with
          faults = crashes rate;
          seed = 100;
          duration = 5000.;
          mail_count = 300;
        }
      in
      let est =
        Mail.Scenario.replicate ~runs:5
          (Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()))
          spec
          (fun o -> o.Mail.Scenario.final_polls_per_check)
      in
      Printf.printf "rate %6.4f: %.3f +/- %.3f\n" rate est.Mail.Scenario.mean
        est.Mail.Scenario.stddev)
    [ 0.0; 0.002; 0.01 ]

(* ------------------------------------------------------------------ *)
(* C2: retrieval-policy comparison.                                    *)
(* ------------------------------------------------------------------ *)

let experiment_c2 () =
  section "C2: GetMail vs poll-all vs naive retrieval (failure rate 0.002)";
  Printf.printf "%10s %12s %12s %12s %12s\n" "policy" "polls/check" "undelivered"
    "unretrieved" "inbox";
  List.iter
    (fun (label, mode) ->
      let spec =
        {
          Mail.Scenario.default_spec with
          faults = crashes 0.002;
          seed = 7;
          retrieval = mode;
          duration = 5000.;
          mail_count = 300;
        }
      in
      let o = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) spec in
      let r = o.Mail.Scenario.report in
      Printf.printf "%10s %12.3f %12d %12d %12d\n" label
        o.Mail.Scenario.final_polls_per_check r.Mail.Evaluation.undelivered
        r.Mail.Evaluation.unretrieved o.Mail.Scenario.inbox_total)
    [
      ("getmail", Mail.Scenario.Get_mail);
      ("poll-all", Mail.Scenario.Poll_all);
      ("naive", Mail.Scenario.Naive);
    ]

(* ------------------------------------------------------------------ *)
(* C3: MST broadcast vs flooding.                                      *)
(* ------------------------------------------------------------------ *)

let experiment_c3 () =
  section "C3: MST broadcast vs naive flooding traffic";
  Printf.printf "%8s %8s %10s %10s %12s %12s %10s\n" "nodes" "edges" "mst-msgs"
    "flood-msgs" "mst-links" "flood-links" "saving";
  List.iter
    (fun n ->
      let rng = Dsim.Rng.create (n + 5) in
      let g =
        Netsim.Topology.random_connected ~rng ~n ~extra_edges:(2 * n) ~min_weight:1.
          ~max_weight:5.
      in
      let tree = (Mst.Kruskal.run g).Mst.Kruskal.edges in
      let b = Mst.Broadcast.broadcast g ~tree ~root:0 in
      let f = Mst.Broadcast.flood g ~root:0 in
      Printf.printf "%8d %8d %10d %10d %12d %12d %9.1f%%\n" n
        (Netsim.Graph.edge_count g) b.Mst.Broadcast.messages f.Mst.Broadcast.messages
        b.Mst.Broadcast.link_crossings f.Mst.Broadcast.link_crossings
        (100.
        *. float_of_int (f.Mst.Broadcast.messages - b.Mst.Broadcast.messages)
        /. float_of_int f.Mst.Broadcast.messages))
    [ 30; 60; 120; 240 ];
  subsection "multi-region: backbone+locals broadcast vs flooding";
  Printf.printf "%8s %10s %10s %12s %12s\n" "regions" "mst-msgs" "flood-msgs"
    "mst-links" "flood-links";
  List.iter
    (fun regions ->
      let rng = Dsim.Rng.create (regions * 17) in
      let spec = { Netsim.Topology.default_hierarchy with regions } in
      let g = Netsim.Topology.hierarchical ~rng spec in
      let bb = Mst.Backbone.build ~distributed:false g in
      let tree = bb.Mst.Backbone.backbone @ List.concat_map snd bb.Mst.Backbone.locals in
      let b = Mst.Broadcast.broadcast g ~tree ~root:0 in
      let f = Mst.Broadcast.flood g ~root:0 in
      Printf.printf "%8d %10d %10d %12d %12d\n" regions b.Mst.Broadcast.messages
        f.Mst.Broadcast.messages b.Mst.Broadcast.link_crossings
        f.Mst.Broadcast.link_crossings)
    [ 2; 3; 5; 8 ]

(* ------------------------------------------------------------------ *)
(* C4: the §3.3.B cost table.                                          *)
(* ------------------------------------------------------------------ *)

let experiment_c4 () =
  section "C4: broadcast cost table and flow control (§3.3.B)";
  let rng = Dsim.Rng.create 99 in
  let spec = { Netsim.Topology.default_hierarchy with regions = 5 } in
  let g = Netsim.Topology.hierarchical ~rng spec in
  let bb = Mst.Backbone.build ~distributed:false g in
  let ct = Mst.Cost_table.build bb ~source:"r0" in
  Format.printf "%a@." Mst.Cost_table.pp ct;
  subsection "affordable region sets by budget";
  List.iter
    (fun budget ->
      let regions = Mst.Cost_table.affordable ct ~budget in
      Printf.printf "budget %8.1f -> {%s} (cost %.2f)\n" budget
        (String.concat ", " regions)
        (Mst.Cost_table.estimate ct ~regions))
    [ 10.; 25.; 50.; 100.; 200. ]

(* ------------------------------------------------------------------ *)
(* C5: balancing sweeps and ablations.                                 *)
(* ------------------------------------------------------------------ *)

let experiment_c5 () =
  section "C5: balancing convergence sweep (random sites)";
  Printf.printf "%8s %8s %8s %10s %12s %12s %10s %10s\n" "hosts" "servers" "users"
    "passes" "cost-before" "cost-after" "imbalance" "max-util";
  List.iter
    (fun (hosts, servers) ->
      let rng = Dsim.Rng.create ((hosts * 7) + servers) in
      let site =
        Netsim.Topology.random_mail_site ~rng ~hosts ~servers ~users_per_host:(20, 60)
          ~extra_edges:hosts
      in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 site.Netsim.Topology.hosts in
      let capacity _ = 1 + (total * 5 / (4 * servers)) in
      let problem = Loadbalance.Assignment.problem_of_site ~capacity site in
      let t, stats = Loadbalance.Balancer.run problem in
      Printf.printf "%8d %8d %8d %10d %12.1f %12.1f %10.3f %10.3f\n" hosts servers
        total stats.Loadbalance.Balancer.passes stats.Loadbalance.Balancer.cost_before
        stats.Loadbalance.Balancer.cost_after
        (Loadbalance.Balancer.load_imbalance problem t)
        (Loadbalance.Balancer.max_utilization problem t))
    [ (10, 3); (20, 5); (50, 8); (100, 10); (200, 20); (400, 40) ];
  subsection "ablation: single-move vs batch-move";
  Printf.printf "%8s %8s %14s %14s %12s %12s\n" "hosts" "servers" "single-passes"
    "batch-passes" "single-cost" "batch-cost";
  List.iter
    (fun (hosts, servers) ->
      let rng = Dsim.Rng.create ((hosts * 13) + servers) in
      let site =
        Netsim.Topology.random_mail_site ~rng ~hosts ~servers ~users_per_host:(20, 60)
          ~extra_edges:hosts
      in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 site.Netsim.Topology.hosts in
      let capacity _ = 1 + (total * 5 / (4 * servers)) in
      let problem = Loadbalance.Assignment.problem_of_site ~capacity site in
      let _, s1 = Loadbalance.Balancer.run problem in
      let _, s2 = Loadbalance.Balancer.run ~batch:true problem in
      Printf.printf "%8d %8d %14d %14d %12.1f %12.1f\n" hosts servers
        s1.Loadbalance.Balancer.passes s2.Loadbalance.Balancer.passes
        s1.Loadbalance.Balancer.cost_after s2.Loadbalance.Balancer.cost_after)
    [ (20, 5); (50, 8); (100, 10) ];
  subsection "ablation: disabling the M/M/1 queueing feedback (W2 = 0)";
  Printf.printf "%8s %8s %16s %16s\n" "hosts" "servers" "imbalance(W2=1)"
    "imbalance(W2=0)";
  List.iter
    (fun (hosts, servers) ->
      let rng = Dsim.Rng.create ((hosts * 19) + servers) in
      let site =
        Netsim.Topology.random_mail_site ~rng ~hosts ~servers ~users_per_host:(20, 60)
          ~extra_edges:hosts
      in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 site.Netsim.Topology.hosts in
      let capacity _ = 1 + (total * 5 / (4 * servers)) in
      let with_q = Loadbalance.Assignment.problem_of_site ~capacity site in
      let no_q =
        Loadbalance.Assignment.problem_of_site
          ~params:{ Loadbalance.Cost.paper_params with Loadbalance.Cost.w_proc = 0. }
          ~capacity site
      in
      let t1, _ = Loadbalance.Balancer.run with_q in
      let t2, _ = Loadbalance.Balancer.run no_q in
      Printf.printf "%8d %8d %16.3f %16.3f\n" hosts servers
        (Loadbalance.Balancer.load_imbalance with_q t1)
        (Loadbalance.Balancer.load_imbalance no_q t2))
    [ (20, 5); (50, 8) ]

(* ------------------------------------------------------------------ *)
(* C6: design-2 roaming overhead.                                      *)
(* ------------------------------------------------------------------ *)

let hier_site seed regions =
  let rng = Dsim.Rng.create seed in
  let spec = { Netsim.Topology.default_hierarchy with regions } in
  let g = Netsim.Topology.hierarchical ~rng spec in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }

let experiment_c6 () =
  section "C6: location-independent access — roaming overhead (§3.2)";
  Printf.printf "%8s %10s %12s %12s %12s %12s\n" "roam-p" "messages" "loc-updates"
    "gossip" "undelivered" "unretrieved";
  List.iter
    (fun roam ->
      let spec =
        { Mail.Scenario.default_spec with seed = 5; mail_count = 200; duration = 4000. }
      in
      let o = Mail.Scenario.run_location ~roam_probability:roam (hier_site 3 3) spec in
      let r = o.Mail.Scenario.report in
      let ev key =
        Telemetry.Registry.get_counter ~labels:[ ("event", key) ]
          o.Mail.Scenario.metrics "system_events"
      in
      Printf.printf "%8.2f %10d %12d %12d %12d %12d\n" roam
        r.Mail.Evaluation.messages_sent
        (ev "location_updates")
        (ev "location_gossip")
        r.Mail.Evaluation.undelivered r.Mail.Evaluation.unretrieved)
    [ 0.0; 0.1; 0.3; 0.6 ];
  subsection "retrieval communication cost vs roaming (direct drive)";
  Printf.printf "%8s %16s %16s\n" "roam-p" "mean-cost" "max-cost";
  List.iter
    (fun roam ->
      let site = hier_site 3 3 in
      let sys = Mail.Location_system.create site in
      let g = Mail.Location_system.graph sys in
      let rng = Dsim.Rng.create 77 in
      let hosts_of r =
        List.filter (fun v -> Netsim.Graph.kind g v = Netsim.Graph.Host)
          (Netsim.Graph.nodes_in_region g r)
      in
      List.iter
        (fun u ->
          for _ = 1 to 5 do
            Mail.Location_system.run_until sys (Mail.Location_system.now sys +. 1.);
            if Dsim.Rng.bernoulli rng roam then begin
              let hosts = Array.of_list (hosts_of (Naming.Name.region u)) in
              ignore (Mail.Location_system.login sys u ~host:(Dsim.Rng.choice rng hosts))
            end
            else ignore (Mail.Location_system.check_mail sys u)
          done)
        (Mail.Location_system.users sys);
      let stats = Mail.Location_system.retrieval_cost_stats sys in
      Printf.printf "%8.2f %16.3f %16.3f\n" roam
        (Dsim.Stats.Summary.mean stats) (Dsim.Stats.Summary.max stats))
    [ 0.0; 0.3; 0.8 ]

(* ------------------------------------------------------------------ *)
(* C7: convergecast under failures.                                    *)
(* ------------------------------------------------------------------ *)

let experiment_c7 () =
  section "C7: convergecast response collection under node failures (§3.3.A)";
  let rng = Dsim.Rng.create 31 in
  let g =
    Netsim.Topology.random_connected ~rng ~n:60 ~extra_edges:60 ~min_weight:1.
      ~max_weight:4.
  in
  let tree = (Mst.Kruskal.run g).Mst.Kruskal.edges in
  Printf.printf "%10s %10s %10s %12s %12s\n" "failed" "responded" "total"
    "timeouts" "messages";
  List.iter
    (fun k ->
      let failed = List.init k (fun i -> ((i + 1) * 7) mod 59 + 1) |> List.sort_uniq compare in
      let r = Mst.Broadcast.convergecast ~failed g ~tree ~root:0 ~value:(fun _ -> 1) in
      Printf.printf "%10d %10d %10d %12d %12d\n" (List.length failed)
        r.Mst.Broadcast.responded r.Mst.Broadcast.total
        r.Mst.Broadcast.timed_out_children r.Mst.Broadcast.g_messages)
    [ 0; 1; 3; 6; 12 ]

(* ------------------------------------------------------------------ *)
(* C8: GHS distributed MST vs centralised baselines.                   *)
(* ------------------------------------------------------------------ *)

let experiment_c8 () =
  section "C8: distributed GHS vs Kruskal (correctness and message complexity)";
  Printf.printf "%8s %8s %10s %12s %10s %10s %8s %12s\n" "nodes" "edges" "same-tree"
    "ghs-msgs" "bound" "ratio" "levels" "finish-time";
  List.iter
    (fun n ->
      let rng = Dsim.Rng.create (n * 3) in
      let g =
        Netsim.Topology.random_connected ~rng ~n ~extra_edges:(2 * n) ~min_weight:1.
          ~max_weight:8.
      in
      let k = Mst.Kruskal.run g in
      let d = Mst.Ghs.run g in
      let bound = Mst.Ghs.message_bound g in
      Printf.printf "%8d %8d %10b %12d %10d %10.2f %8d %12.1f\n" n
        (Netsim.Graph.edge_count g)
        (k.Mst.Kruskal.edges = d.Mst.Ghs.edges)
        d.Mst.Ghs.messages bound
        (float_of_int d.Mst.Ghs.messages /. float_of_int bound)
        d.Mst.Ghs.max_level d.Mst.Ghs.finish_time)
    [ 16; 32; 64; 128; 256 ];
  subsection "on the historical ARPANET backbone (~1977)";
  let g = Netsim.Topology.arpanet () in
  let k = Mst.Kruskal.run g in
  let d = Mst.Ghs.run g in
  Printf.printf
    "ARPANET: %d sites, %d links; MST weight %.1f; GHS = Kruskal: %b; %d messages (bound %d)\n"
    (Netsim.Graph.node_count g) (Netsim.Graph.edge_count g) k.Mst.Kruskal.total_weight
    (k.Mst.Kruskal.edges = d.Mst.Ghs.edges)
    d.Mst.Ghs.messages (Mst.Ghs.message_bound g);
  let tree = k.Mst.Kruskal.edges in
  let b = Mst.Broadcast.broadcast g ~tree ~root:0 in
  let f = Mst.Broadcast.flood g ~root:0 in
  Printf.printf "ARPANET broadcast: MST %d msgs vs flooding %d msgs\n"
    b.Mst.Broadcast.messages f.Mst.Broadcast.messages

(* ------------------------------------------------------------------ *)
(* C9: name-service organisation trade-offs (§2).                      *)
(* ------------------------------------------------------------------ *)

let experiment_c9 () =
  section "C9: name-service organisations (§2 trade-offs)";
  Printf.printf "%-18s %14s %12s %12s %14s\n" "organisation" "storage/server"
    "lookup-msgs" "update-msgs" "availability";
  let show label org =
    let e =
      Naming.Organisation.estimate org ~servers:10 ~server_availability:0.95
        ~local_fraction:0.8
    in
    Printf.printf "%-18s %14.2f %12.2f %12.2f %14.6f\n" label
      e.Naming.Organisation.storage_fraction e.Naming.Organisation.lookup_messages
      e.Naming.Organisation.update_messages e.Naming.Organisation.availability
  in
  show "centralized" Naming.Organisation.Centralized;
  show "fully-replicated" Naming.Organisation.Fully_replicated;
  List.iter
    (fun r -> show (Printf.sprintf "partitioned r=%d" r) (Naming.Organisation.Partitioned r))
    [ 1; 2; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* C10: congestion-aware balancing (§3.1.1 final modification).        *)
(* ------------------------------------------------------------------ *)

let experiment_c10 () =
  section "C10: balancing with channel-utilisation delays";
  Printf.printf "%8s %8s %10s %18s %12s\n" "hosts" "servers" "round"
    "max-link-util" "cost";
  List.iter
    (fun (hosts, servers) ->
      let rng = Dsim.Rng.create ((hosts * 11) + servers) in
      let site =
        Netsim.Topology.random_mail_site ~rng ~hosts ~servers ~users_per_host:(20, 60)
          ~extra_edges:(hosts / 2)
      in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 site.Netsim.Topology.hosts in
      let capacity _ = 1 + (total * 5 / (4 * servers)) in
      let problem = Loadbalance.Assignment.problem_of_site ~capacity site in
      let _, rounds =
        Loadbalance.Channel.balance_with_congestion ~rounds:3 ~traffic_per_user:1.
          ~link_capacity:(float_of_int total /. 6.)
          problem
      in
      List.iter
        (fun r ->
          Printf.printf "%8d %8d %10d %18.3f %12.1f\n" hosts servers
            r.Loadbalance.Channel.round r.Loadbalance.Channel.max_link_utilisation
            r.Loadbalance.Channel.balancer.Loadbalance.Balancer.cost_after)
        rounds)
    [ (20, 5); (50, 8) ]

(* ------------------------------------------------------------------ *)
(* C11: secondary-server assignment (§3.1.1 extension).                *)
(* ------------------------------------------------------------------ *)

let experiment_c11 () =
  section "C11: secondary authority-server assignment";
  Printf.printf "%8s %8s %20s %22s\n" "hosts" "servers" "secondary-imbalance"
    "naive-nearest-imbalance";
  List.iter
    (fun (hosts, servers) ->
      let rng = Dsim.Rng.create ((hosts * 29) + servers) in
      let site =
        Netsim.Topology.random_mail_site ~rng ~hosts ~servers ~users_per_host:(20, 60)
          ~extra_edges:hosts
      in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 site.Netsim.Topology.hosts in
      let capacity _ = 1 + (total * 5 / (4 * servers)) in
      let problem = Loadbalance.Assignment.problem_of_site ~capacity site in
      let t, _ = Loadbalance.Balancer.run problem in
      let balanced = Loadbalance.Replicas.assign ~replication:3 problem t in
      (* naive baseline: first secondary = nearest other server,
         ignoring load. *)
      let naive_load = Array.make servers 0 in
      Array.iteri
        (fun i _ ->
          List.iter
            (fun j ->
              let count = Loadbalance.Assignment.get t ~host:i ~server:j in
              if count > 0 then begin
                let nearest =
                  List.init servers Fun.id
                  |> List.filter (fun k -> k <> j)
                  |> List.fold_left
                       (fun acc k ->
                         match acc with
                         | None -> Some k
                         | Some b ->
                             if
                               problem.Loadbalance.Assignment.comm.(i).(k)
                               < problem.Loadbalance.Assignment.comm.(i).(b)
                             then Some k
                             else acc)
                       None
                in
                match nearest with
                | Some k -> naive_load.(k) <- naive_load.(k) + count
                | None -> ()
              end)
            (List.init servers Fun.id))
        problem.Loadbalance.Assignment.hosts;
      let naive_imbalance =
        let lo = ref infinity and hi = ref neg_infinity in
        Array.iteri
          (fun j l ->
            let u =
              float_of_int l
              /. float_of_int (max 1 problem.Loadbalance.Assignment.capacities.(j))
            in
            if u < !lo then lo := u;
            if u > !hi then hi := u)
          naive_load;
        !hi -. !lo
      in
      Printf.printf "%8d %8d %20.3f %22.3f\n" hosts servers
        (Loadbalance.Replicas.secondary_imbalance problem balanced)
        naive_imbalance)
    [ (10, 3); (20, 5); (50, 8); (100, 10) ]

(* ------------------------------------------------------------------ *)
(* C12: resolution caching (§4.1).                                     *)
(* ------------------------------------------------------------------ *)

let experiment_c12 () =
  section "C12: name-resolution caching (§4.1) on cross-region traffic";
  Printf.printf "%12s %10s %14s %12s %12s\n" "cache" "messages" "forward-hops"
    "cache-hits" "unretrieved";
  List.iter
    (fun (label, capacity) ->
      let config = { Mail.Syntax_system.default_config with cache_capacity = capacity } in
      let spec =
        { Mail.Scenario.default_spec with seed = 21; mail_count = 300; duration = 4000. }
      in
      let o = Mail.Scenario.run_syntax ~config (hier_site 9 3) spec in
      Printf.printf "%12s %10d %14.3f %12d %12d\n" label
        o.Mail.Scenario.report.Mail.Evaluation.messages_sent
        o.Mail.Scenario.report.Mail.Evaluation.mean_forward_hops
        (Telemetry.Registry.get_counter
           ~labels:[ ("event", "resolution_cache_hits") ]
           o.Mail.Scenario.metrics "system_events")
        o.Mail.Scenario.report.Mail.Evaluation.unretrieved)
    [ ("off", None); ("lru-16", Some 16); ("lru-256", Some 256) ]

(* ------------------------------------------------------------------ *)
(* C13: multimedia mail under finite bandwidth (§5 conclusions).       *)
(* ------------------------------------------------------------------ *)

let experiment_c13 () =
  section "C13: multimedia mail delivery under finite link bandwidth (§5)";
  Printf.printf "%12s %12s %16s %16s\n" "bandwidth" "media" "mean-latency"
    "max-latency";
  let media =
    [
      ("text", []);
      ("voice-10s", [ Mail.Content.Voice { seconds = 10. } ]);
      ("fax-5pg", [ Mail.Content.Facsimile { pages = 5 } ]);
      ("image", [ Mail.Content.Image { width = 1024; height = 768 } ]);
    ]
  in
  List.iter
    (fun bw ->
      List.iter
        (fun (label, parts) ->
          let config =
            { Mail.Syntax_system.default_config with bandwidth = Some bw }
          in
          let sys = Mail.Syntax_system.create ~config (Netsim.Topology.paper_fig1 ()) in
          let users = Array.of_list (Mail.Syntax_system.users sys) in
          let lat = Dsim.Stats.Summary.create () in
          for i = 0 to 19 do
            let sender = users.(i) and rcpt = users.((i + 13) mod Array.length users) in
            ignore (Mail.Syntax_system.submit sys ~sender ~recipient:rcpt ~parts ())
          done;
          Mail.Syntax_system.quiesce sys;
          List.iter
            (fun m ->
              match Mail.Message.delivery_latency m with
              | Some l -> Dsim.Stats.Summary.add lat l
              | None -> ())
            (Mail.Syntax_system.submitted sys);
          Printf.printf "%12.0f %12s %16.2f %16.2f\n" bw label
            (Dsim.Stats.Summary.mean lat) (Dsim.Stats.Summary.max lat))
        media)
    [ 100_000.; 10_000. ]

(* ------------------------------------------------------------------ *)
(* C14: replicated name-database propagation (§2 / §4.2).              *)
(* ------------------------------------------------------------------ *)

let experiment_c14 () =
  section "C14: name-database update propagation and staleness";
  Printf.printf "%6s %10s %14s %12s %10s\n" "r" "writes" "update-msgs"
    "stale-reads" "resyncs";
  List.iter
    (fun r ->
      let g = Netsim.Topology.ring ~n:(max 3 r) ~weight:1. in
      let engine = Dsim.Engine.create () in
      let store =
        Mail.Name_store.create ~engine ~graph:g ~replicas:(List.init r Fun.id) ()
      in
      let rng = Dsim.Rng.create (r * 7) in
      let writes = 200 in
      (* interleave writes at random times with reads at random replicas,
         plus one outage on the last secondary *)
      for i = 0 to writes - 1 do
        let at = Dsim.Rng.float rng 1000. in
        Dsim.Engine.schedule_at engine at (fun () ->
            Mail.Name_store.register store
              (Naming.Name.make ~region:"r" ~host:"h"
                 ~user:(Printf.sprintf "u%d" (i mod 50)))
              [ i ])
      done;
      for _ = 1 to 400 do
        let at = Dsim.Rng.float rng 1100. in
        let replica = Dsim.Rng.int rng r in
        let user = Printf.sprintf "u%d" (Dsim.Rng.int rng 50) in
        Dsim.Engine.schedule_at engine at (fun () ->
            ignore
              (Mail.Name_store.lookup store ~at:replica
                 (Naming.Name.make ~region:"r" ~host:"h" ~user)))
      done;
      if r > 1 then
        Netsim.Fault.(
          apply (Mail.Name_store.net store)
            { windows = [ { target = Node (r - 1); kind = "crash"; start = 300.; duration = 200. } ];
              horizon = 1100. });
      Dsim.Engine.run engine;
      Printf.printf "%6d %10d %14d %12d %10d\n" r writes
        (Mail.Name_store.update_messages store)
        (Mail.Name_store.stale_reads store)
        (Mail.Name_store.resyncs store);
      assert (Mail.Name_store.converged store))
    [ 1; 2; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* C15: measured server queueing vs the cost model's M/M/1 term.       *)
(* ------------------------------------------------------------------ *)

let experiment_c15 () =
  section "C15: server queueing — measured wait vs the M/M/1 estimate";
  let single_server_site () =
    let g = Netsim.Graph.create () in
    let h1 = Netsim.Graph.add_node ~label:"H1" ~kind:Netsim.Graph.Host ~region:"r0" g in
    let h2 = Netsim.Graph.add_node ~label:"H2" ~kind:Netsim.Graph.Host ~region:"r0" g in
    let s1 = Netsim.Graph.add_node ~label:"S1" ~kind:Netsim.Graph.Server ~region:"r0" g in
    Netsim.Graph.add_edge g h1 s1 1.;
    Netsim.Graph.add_edge g h2 s1 1.;
    { Netsim.Topology.graph = g; hosts = [ (h1, 10); (h2, 10) ]; servers = [ s1 ] }
  in
  let mu = 1.0 in
  Printf.printf "%8s %12s %14s %14s %12s\n" "rho" "jobs" "measured-Wq"
    "analytic-Wq" "busy-frac";
  List.iter
    (fun rho ->
      let lambda = rho *. mu in
      let config =
        { Mail.Syntax_system.default_config with service_rate = Some mu }
      in
      let sys = Mail.Syntax_system.create ~config (single_server_site ()) in
      let users = Array.of_list (Mail.Syntax_system.users sys) in
      let rng = Dsim.Rng.create 2025 in
      let horizon = 20000. in
      let arrivals = Queueing.Workload.poisson_arrivals ~rng ~rate:lambda ~horizon in
      List.iteri
        (fun i at ->
          ignore
            (Mail.Syntax_system.submit_at sys ~at
               ~sender:users.(i mod 5)
               ~recipient:users.(5 + (i mod 5))
               ()))
        arrivals;
      Mail.Syntax_system.quiesce sys;
      let waits = Mail.Syntax_system.queue_wait_stats sys in
      let analytic =
        Queueing.Mm1.mean_waiting_time ~arrival_rate:lambda ~service_rate:mu
      in
      let server = List.hd (Mail.Syntax_system.server_nodes sys) in
      Printf.printf "%8.2f %12d %14.3f %14.3f %12.3f\n" rho
        (Dsim.Stats.Summary.count waits)
        (Dsim.Stats.Summary.mean waits)
        analytic
        (Mail.Syntax_system.server_utilisation sys server))
    [ 0.2; 0.4; 0.6; 0.8 ]

(* ------------------------------------------------------------------ *)
(* C16: random link loss absorbed by acknowledgements and retries.     *)
(* ------------------------------------------------------------------ *)

let experiment_c16 () =
  section "C16: reliability under random link loss (§4.2)";
  Printf.printf "%10s %10s %10s %12s %14s %12s\n" "loss-rate" "lost" "retries"
    "resubmits" "undelivered" "unretrieved";
  List.iter
    (fun loss_rate ->
      let config =
        {
          Mail.Syntax_system.default_config with
          loss_rate;
          retry_timeout = 20.;
          resubmit_timeout = 150.;
        }
      in
      let sys = Mail.Syntax_system.create ~config (Netsim.Topology.paper_fig1 ()) in
      let users = Array.of_list (Mail.Syntax_system.users sys) in
      for i = 0 to 199 do
        ignore
          (Mail.Syntax_system.submit_at sys
             ~at:(float_of_int i *. 10.)
             ~sender:users.(i mod 30)
             ~recipient:users.((i + 11) mod 30)
             ())
      done;
      Mail.Syntax_system.quiesce sys;
      Array.iter (fun u -> ignore (Mail.Syntax_system.check_mail sys u)) users;
      let r = Mail.Evaluation.of_syntax sys in
      Printf.printf "%10.2f %10d %10d %12d %14d %12d\n" loss_rate
        (Netsim.Net.messages_lost (Mail.Syntax_system.net sys))
        r.Mail.Evaluation.retries r.Mail.Evaluation.resubmissions
        r.Mail.Evaluation.undelivered r.Mail.Evaluation.unretrieved)
    [ 0.0; 0.05; 0.15; 0.3; 0.5 ]

(* ------------------------------------------------------------------ *)
(* SCALE: wall-clock throughput of Mail.Scale, with the exit-1 ratchet. *)
(* ------------------------------------------------------------------ *)

(* Throughput ratchets per size, asserted (exit 1) on every [--scale]
   run: an events/sec floor and a minor-words/event ceiling, the
   latter locking in the pooled-event / interned-name / hash-free
   check-path / check-sweep / event-lane wins.  The quick and mid pairs
   are derived in docs/PERF.md from measured runs with bench/perf's
   rule (bound = 1.5 x the widest quartile spread, capped at 0.25),
   taken below the slowest run.  For quick that is looser than 150k,
   so 150k stays; mid's widest spread is 10%, so its floor sits 15%
   below its slowest run (188k).  Minor words/event is fixed by the
   seed (76.5 quick, 78.1 mid in every run), so each ceiling sits 1%
   above.
   The full pair (~69k events/sec measured once at 1M, where the wall
   is mail-layer state and repair work under the fault campaign, not
   engine dispatch) keeps ~25% slack from that run. *)
let scale_ratchet size =
  match size with
  | "quick" -> Some (150_000., 77.3)
  | "mid" -> Some (160_000., 78.9)
  | "full" -> Some (55_000., 440.)
  | _ -> None

let bench_scale (spec : Mail.Scale.spec) =
  section
    (Printf.sprintf "SCALE: %s (%d messages) under the standard fault campaign"
       spec.size spec.messages);
  (* The full run pushes ~100 GB of allocation through the minor heap;
     with the default 256k-word nursery that is a minor collection
     every few thousand events, each scanning the remembered set of a
     very large live major heap.  A bigger nursery amortises that — a
     pure wall-clock knob, invisible to the simulation's virtual
     time. *)
  if String.equal spec.size "full" then
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 23 };
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let (r : Mail.Scale.result) = Mail.Scale.run spec in
  let wall = Unix.gettimeofday () -. t0 in
  let minor_words = (Gc.quick_stat ()).Gc.minor_words -. gc0.Gc.minor_words in
  let events = r.outcome.Mail.Scenario.engine_events in
  let per_wall v = if wall <= 0. then 0. else float_of_int v /. wall in
  let eps = per_wall events in
  let words_per_event = if events = 0 then 0. else minor_words /. float_of_int events in
  Format.printf "%a@." Mail.Scale.pp r;
  Printf.printf "wall: %.2fs  events/sec: %.0f  messages/sec: %.0f\n" wall eps
    (per_wall spec.messages);
  Printf.printf "gc: %.3e minor words (%.1f per event)\n" minor_words words_per_event;
  (match Mail.Scale.to_json ~include_volatile:true r with
  | Telemetry.Json.Obj fields ->
      let open Telemetry.Json in
      write_json "SCALE.json"
        (Obj
           (fields
           @ [
               ("wall_seconds", Float wall);
               ("events_per_sec", Float eps);
               ("messages_per_sec", Float (per_wall spec.messages));
               ("gc_minor_words", Float minor_words);
               ("gc_minor_words_per_event", Float words_per_event);
             ]))
  | _ -> assert false);
  Option.iter
    (fun ts -> write_json "TIMESERIES-scale.json" (Telemetry.Timeseries.to_json ts))
    r.outcome.Mail.Scenario.timeseries;
  Printf.printf "wrote SCALE.json and TIMESERIES-scale.json\n";
  if not r.outcome.Mail.Scenario.ledger.Mail.Ledger.ok then begin
    Printf.eprintf "delivery invariant violated\n";
    exit 1
  end;
  match scale_ratchet spec.size with
  | None -> Printf.printf "ratchet: none for size %s\n" spec.size
  | Some (floor, ceiling) ->
      if eps < floor || words_per_event > ceiling then begin
        Printf.eprintf
          "RATCHET FAIL (%s): events/sec %.0f (floor %.0f), %.1f minor words/event \
           (ceiling %.1f)\n"
          spec.size eps floor words_per_event ceiling;
        exit 1
      end;
      Printf.printf
        "ratchet: events/sec %.0f >= %.0f floor, %.1f minor words/event <= %.1f ceiling\n"
        eps floor words_per_event ceiling

(* ------------------------------------------------------------------ *)
(* BENCH.json: machine-readable telemetry for the three designs.       *)
(* ------------------------------------------------------------------ *)

let dump_bench_json () =
  section "BENCH.json: telemetry snapshot (one run per design)";
  (* One representative run per design on the same site and workload,
     with the service model and failures on so queue-wait and latency
     histograms have mass. *)
  let spec =
    {
      Mail.Scenario.default_spec with
      seed = 11;
      mail_count = 200;
      duration = 4000.;
      faults = crashes 0.002;
    }
  in
  let syntax =
    let config =
      { Mail.Syntax_system.default_config with service_rate = Some 1.0 }
    in
    Mail.Scenario.run_syntax ~config (hier_site 3 3) spec
  in
  let location =
    let config =
      { Mail.Location_system.default_config with service_rate = Some 1.0 }
    in
    Mail.Scenario.run_location ~config ~roam_probability:0.2 (hier_site 3 3) spec
  in
  let attribute =
    let config =
      { Mail.Location_system.default_config with service_rate = Some 1.0 }
    in
    Mail.Scenario.run_attribute ~config ~roam_probability:0.1 (hier_site 3 3) spec
  in
  let designs =
    [ ("syntax", syntax); ("location", location); ("attribute", attribute) ]
  in
  (* One deterministic fault campaign per design: crashes, link cuts, a
     region partition and a correlated burst, with the §3.1.2c ledger
     verdict recorded next to the availability it cost. *)
  let campaign = Netsim.Fault.standard in
  let fault_spec = { spec with faults = Some campaign } in
  let fault_runs =
    [
      ("syntax", Mail.Scenario.run_syntax (hier_site 3 3) fault_spec);
      ( "location",
        Mail.Scenario.run_location ~roam_probability:0.2 (hier_site 3 3) fault_spec );
      ( "attribute",
        Mail.Scenario.run_attribute ~roam_probability:0.1 (hier_site 3 3) fault_spec );
    ]
  in
  let json =
    Telemetry.Json.Obj
      [
        ("schema", Telemetry.Json.String "mailsys.bench/8");
        ( "designs",
          Telemetry.Json.Obj
            (List.map
               (fun (label, (o : Mail.Scenario.outcome)) ->
                 (label, Telemetry.Registry.to_json o.Mail.Scenario.metrics))
               designs) );
        ( "critical_path",
          Telemetry.Json.Obj
            (List.map
               (fun (label, (o : Mail.Scenario.outcome)) ->
                 ( label,
                   Telemetry.Critical_path.to_json
                     (Telemetry.Critical_path.analyze o.Mail.Scenario.tracer) ))
               designs) );
        ( "faults",
          Telemetry.Json.Obj
            (("campaign", Telemetry.Json.String (Netsim.Fault.to_string campaign))
            :: List.map
                 (fun (label, (o : Mail.Scenario.outcome)) ->
                   ( label,
                     Telemetry.Json.Obj
                       [
                         ( "availability",
                           Telemetry.Json.Float o.Mail.Scenario.availability );
                         ( "server_uptime",
                           Telemetry.Json.Float o.Mail.Scenario.server_uptime );
                         ( "replication_factor",
                           Telemetry.Json.Int o.Mail.Scenario.replication_factor );
                         ( "failovers",
                           Telemetry.Json.Int
                             (Telemetry.Registry.get_counter o.Mail.Scenario.metrics
                                "replica_failovers") );
                         ( "fault_windows",
                           Telemetry.Json.Float
                             (Telemetry.Registry.get_gauge o.Mail.Scenario.metrics
                                "fault_windows") );
                         ("ledger", Mail.Ledger.verdict_to_json o.Mail.Scenario.ledger);
                       ] ))
                 fault_runs) );
      ]
  in
  write_json "BENCH.json" json;
  (* Full span dump, one JSON object per line tagged with its design,
     for chrome://tracing-style offline analysis. *)
  let oc = open_out "TRACE.jsonl" in
  List.iter
    (fun (label, (o : Mail.Scenario.outcome)) ->
      List.iter
        (fun span ->
          let line =
            match Telemetry.Span.to_json span with
            | Telemetry.Json.Obj fields ->
                Telemetry.Json.Obj (("design", Telemetry.Json.String label) :: fields)
            | other -> other
          in
          output_string oc (Telemetry.Json.to_string line);
          output_char oc '\n')
        (Telemetry.Tracer.spans o.Mail.Scenario.tracer))
    designs;
  close_out oc;
  List.iter
    (fun (label, (o : Mail.Scenario.outcome)) ->
      Printf.printf "%-10s %d metric names, delivery p50/p90/p99 = %.2f/%.2f/%.2f\n"
        label
        (List.length (Telemetry.Registry.metric_names o.Mail.Scenario.metrics))
        (Telemetry.Registry.percentile
           (Telemetry.Registry.histogram o.Mail.Scenario.metrics "delivery_latency")
           50.)
        (Telemetry.Registry.percentile
           (Telemetry.Registry.histogram o.Mail.Scenario.metrics "delivery_latency")
           90.)
        (Telemetry.Registry.percentile
           (Telemetry.Registry.histogram o.Mail.Scenario.metrics "delivery_latency")
           99.);
      Format.printf "@[<v>%a@]@."
        Telemetry.Critical_path.pp
        (Telemetry.Critical_path.analyze o.Mail.Scenario.tracer))
    designs;
  Printf.printf "\nfault campaign: %s\n" (Netsim.Fault.to_string campaign);
  List.iter
    (fun (label, (o : Mail.Scenario.outcome)) ->
      Printf.printf "%-10s availability %.3f  " label o.Mail.Scenario.availability;
      Format.printf "%a@." Mail.Ledger.pp_verdict o.Mail.Scenario.ledger;
      assert o.Mail.Scenario.ledger.Mail.Ledger.ok)
    fault_runs;
  Printf.printf "wrote BENCH.json and TRACE.jsonl\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "micro-benchmarks (Bechamel)";
  let open Bechamel in
  let fig1_problem = Loadbalance.Assignment.problem_of_site (Netsim.Topology.paper_fig1 ()) in
  let big_site =
    let rng = Dsim.Rng.create 4242 in
    Netsim.Topology.random_mail_site ~rng ~hosts:100 ~servers:10 ~users_per_host:(20, 60)
      ~extra_edges:100
  in
  let big_problem =
    Loadbalance.Assignment.problem_of_site ~capacity:(fun _ -> 500) big_site
  in
  let ghs_graph =
    let rng = Dsim.Rng.create 7 in
    Netsim.Topology.random_connected ~rng ~n:64 ~extra_edges:128 ~min_weight:1.
      ~max_weight:8.
  in
  let dijkstra_graph =
    let rng = Dsim.Rng.create 8 in
    Netsim.Topology.random_connected ~rng ~n:200 ~extra_edges:400 ~min_weight:1.
      ~max_weight:8.
  in
  let directory =
    let d = Naming.Directory.create () in
    let rng = Dsim.Rng.create 9 in
    for i = 0 to 999 do
      let name = Naming.Name.make ~region:"r0" ~host:"h" ~user:(Printf.sprintf "u%d" i) in
      Naming.Directory.add d
        {
          Naming.Directory.name;
          attrs =
            [
              Naming.Attribute.text "org"
                (Dsim.Rng.choice rng [| "acme"; "globex"; "initech" |]);
              Naming.Attribute.number "exp" (float_of_int (Dsim.Rng.int rng 30));
            ];
        }
    done;
    d
  in
  let getmail_sys = Mail.Syntax_system.create (Netsim.Topology.paper_fig1 ()) in
  let getmail_user = List.hd (Mail.Syntax_system.users getmail_sys) in
  let tests =
    [
      (* T1/T2 kernel *)
      Test.make ~name:"t1-initialize-fig1"
        (Staged.stage (fun () -> Loadbalance.Balancer.initialize fig1_problem));
      Test.make ~name:"t2-balance-fig1"
        (Staged.stage (fun () -> Loadbalance.Balancer.run fig1_problem));
      Test.make ~name:"t3-balance-table3"
        (Staged.stage
           (let p = Loadbalance.Assignment.problem_of_site (Netsim.Topology.paper_table3 ()) in
            fun () -> Loadbalance.Balancer.run p));
      (* C5 kernel at scale *)
      Test.make ~name:"c5-balance-100x10"
        (Staged.stage (fun () -> Loadbalance.Balancer.run big_problem));
      (* F2/C8 kernels *)
      Test.make ~name:"c8-ghs-64" (Staged.stage (fun () -> Mst.Ghs.run ghs_graph));
      Test.make ~name:"c8-kruskal-64" (Staged.stage (fun () -> Mst.Kruskal.run ghs_graph));
      (* substrate kernels *)
      Test.make ~name:"dijkstra-200"
        (Staged.stage (fun () -> Netsim.Shortest_path.dijkstra dijkstra_graph 0));
      Test.make ~name:"c3-broadcast-64"
        (Staged.stage
           (let tree = (Mst.Kruskal.run ghs_graph).Mst.Kruskal.edges in
            fun () -> Mst.Broadcast.broadcast ghs_graph ~tree ~root:0));
      (* C1 kernel *)
      Test.make ~name:"c1-getmail-round"
        (Staged.stage (fun () -> Mail.Syntax_system.check_mail getmail_sys getmail_user));
      (* directory query *)
      Test.make ~name:"c4-directory-query-1000"
        (Staged.stage (fun () ->
             Naming.Directory.query directory ~viewer:Naming.Attribute.anyone
               (Naming.Attribute.Eq ("org", Naming.Attribute.Text "acme"))));
      Test.make ~name:"fuzzy-lookup-1000"
        (Staged.stage (fun () ->
             Naming.Directory.fuzzy_query directory ~viewer:Naming.Attribute.anyone
               ~key:"org" "initech"));
      Test.make ~name:"c10-congestion-balance"
        (Staged.stage (fun () ->
             Loadbalance.Channel.balance_with_congestion ~rounds:2 fig1_problem));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  Printf.printf "%-28s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "%-28s %16.1f\n" name ns
          | Some _ | None -> Printf.printf "%-28s %16s\n" name "n/a")
        analysis)
    tests

let () =
  let rec scale_size = function
    | "--scale" :: size :: _ -> Some size
    | _ :: rest -> scale_size rest
    | [] -> None
  in
  match scale_size (Array.to_list Sys.argv) with
  | Some size -> (
      match Mail.Scale.of_size size with
      | Some spec -> bench_scale spec
      | None ->
          Printf.eprintf "bench: unknown --scale size %S (quick, mid or full)\n" size;
          exit 2)
  | None ->
      List.iter
        (fun experiment -> experiment ())
        [ table_t1_t2; table_t3; figure_f1; figure_f2; experiment_c1; experiment_c2;
          experiment_c3; experiment_c4; experiment_c5; experiment_c6; experiment_c7;
          experiment_c8; experiment_c9; experiment_c10; experiment_c11; experiment_c12;
          experiment_c13; experiment_c14; experiment_c15; experiment_c16;
          dump_bench_json ];
      if not (Array.exists (String.equal "--skip-micro") Sys.argv) then
        micro_benchmarks ();
      Printf.printf "\nall experiments complete.\n"
