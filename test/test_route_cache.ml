(* Tests for Netsim.Net's route cache: trees keep serving across link
   flips that cannot touch them, a routed send repairs its tree only
   when a pending flip can change its path, [first_hop], agreement
   with a fresh Dijkstra, the recompute saving over whole-cache
   invalidation under an outage/repair process like the standard
   campaign's, and the counters a faulted scenario run must publish. *)

(* Diamond: 0-1-2-3 unit chain plus a heavy 0-3 chord, so the chord is
   on nobody's shortest-path tree until the chain is cut. *)
let diamond () =
  let g = Netsim.Graph.create () in
  for _ = 0 to 3 do
    ignore (Netsim.Graph.add_node g)
  done;
  Netsim.Graph.add_edge g 0 1 1.;
  Netsim.Graph.add_edge g 1 2 1.;
  Netsim.Graph.add_edge g 2 3 1.;
  Netsim.Graph.add_edge g 0 3 10.;
  g

let make g =
  let engine = Dsim.Engine.create () in
  (Netsim.Net.create ~engine g : unit Netsim.Net.t)

let test_unused_link_cut_keeps_cache () =
  let net = make (diamond ()) in
  Alcotest.(check int) "hops before" 3 (Netsim.Net.hops net 0 3);
  let recomputes = Netsim.Net.route_recomputes net in
  (* The 0-3 chord is not on source 0's tree: cutting it must leave
     the cached tree alone. *)
  Netsim.Net.set_link_down net 0 3;
  Alcotest.(check int) "no invalidation" 0 (Netsim.Net.route_invalidations net);
  Alcotest.(check int) "hops unchanged" 3 (Netsim.Net.hops net 0 3);
  Alcotest.(check int) "answered from cache" recomputes
    (Netsim.Net.route_recomputes net)

let test_used_link_cut_drops_dependents () =
  let net = make (diamond ()) in
  ignore (Netsim.Net.hops net 0 3);
  ignore (Netsim.Net.hops net 3 0);
  (* Both trees route over 1-2.  Repair is lazy: the cut alone logs a
     flip, and each dependent tree is repaired on its next query. *)
  Netsim.Net.set_link_down net 1 2;
  Alcotest.(check int) "cut alone repairs nothing" 0
    (Netsim.Net.route_invalidations net);
  Alcotest.(check int) "rerouted over the chord" 1 (Netsim.Net.hops net 0 3);
  Alcotest.(check (float 1e-9)) "detour distance" 10. (Netsim.Net.distance net 0 3);
  ignore (Netsim.Net.hops net 3 0);
  Alcotest.(check int) "both repaired once queried" 2
    (Netsim.Net.route_invalidations net)

let test_restore_improvement_check () =
  let net = make (diamond ()) in
  ignore (Netsim.Net.hops net 0 3);
  (* Cutting and restoring the unused chord is invisible both ways:
     restoring an edge that cannot shorten anything keeps the cache. *)
  Netsim.Net.set_link_down net 0 3;
  Netsim.Net.set_link_up net 0 3;
  Alcotest.(check int) "chord restore keeps cache" 0
    (Netsim.Net.route_invalidations net);
  (* Force the detour, then restore the chain link: now the restored
     edge strictly improves the cached route and must drop it. *)
  Netsim.Net.set_link_down net 1 2;
  Alcotest.(check int) "detour" 1 (Netsim.Net.hops net 0 3);
  let drops = Netsim.Net.route_invalidations net in
  Netsim.Net.set_link_up net 1 2;
  Alcotest.(check int) "short route back" 3 (Netsim.Net.hops net 0 3);
  Alcotest.(check bool) "improving restore repaired on query" true
    (Netsim.Net.route_invalidations net > drops)

let test_first_hop () =
  let net = make (diamond ()) in
  Alcotest.(check (option int)) "via chain" (Some 1)
    (Netsim.Net.first_hop net ~src:0 ~dst:3);
  Alcotest.(check (option int)) "self" None (Netsim.Net.first_hop net ~src:0 ~dst:0);
  Netsim.Net.set_link_down net 1 2;
  Alcotest.(check (option int)) "via chord after cut" (Some 3)
    (Netsim.Net.first_hop net ~src:0 ~dst:3);
  Netsim.Net.set_link_down net 0 3;
  Alcotest.(check (option int)) "unreachable" None
    (Netsim.Net.first_hop net ~src:0 ~dst:3)

(* Path-scoped repair: a send reads its stale tree unless a pending
   flip can change its path. *)

let send net src dst = Netsim.Net.send_timed net ~src ~dst ()
let repairs = Netsim.Net.route_invalidations

let test_send_avoiding_cut () =
  let net = make (diamond ()) in
  ignore (send net 0 3);
  Netsim.Net.set_link_down net 2 3;
  Alcotest.(check (option (float 0.))) "0-1 latency" (Some 1.) (send net 0 1);
  Alcotest.(check int) "no repair pass" 0 (repairs net);
  Alcotest.(check int) "no node re-settled" 0 (Netsim.Net.route_repair_nodes net)

let test_send_across_cut () =
  let net = make (diamond ()) in
  ignore (send net 0 3);
  Netsim.Net.set_link_down net 2 3;
  Alcotest.(check (option (float 0.))) "detour over the chord" (Some 10.) (send net 0 3);
  Alcotest.(check int) "one repair pass" 1 (repairs net);
  Alcotest.(check bool) "nodes re-settled" true (Netsim.Net.route_repair_nodes net > 0)

let test_near_restore_repairs () =
  let net = make (diamond ()) in
  Netsim.Net.set_link_down net 1 2;
  Alcotest.(check (option (float 0.))) "detour" (Some 10.) (send net 0 3);
  (* Restoring 1-2 offers a path of length dist 1 + 1 = 2: a leaf
     nearer than that keeps its stale answer, a farther one repairs. *)
  Netsim.Net.set_link_up net 1 2;
  Alcotest.(check (option (float 0.))) "near leaf" (Some 1.) (send net 0 1);
  Alcotest.(check int) "near leaf repairs nothing" 0 (repairs net);
  Alcotest.(check (option (float 0.))) "short route back" (Some 3.) (send net 0 3);
  Alcotest.(check int) "far leaf repairs" 1 (repairs net)

let test_cut_restored_tree_edge () =
  let net = make (diamond ()) in
  ignore (send net 0 3);
  Netsim.Net.set_link_down net 2 3;
  Netsim.Net.set_link_up net 2 3;
  Alcotest.(check (option (float 0.))) "same route" (Some 3.) (send net 0 3);
  Alcotest.(check int) "send repairs nothing" 0 (repairs net);
  Alcotest.(check int) "whole-tree catch-up neither" 3 (Netsim.Net.hops net 0 3);
  Alcotest.(check int) "still no repair pass" 0 (repairs net)

(* Dense scale topology: the scoped/full recompute ratio converges to
   roughly E/(n-1) — the chance a cut link sits on a given tree — so
   the saving needs average degree comfortably above 2x the target
   ratio. *)
let scale_graph () =
  let rng = Dsim.Rng.create 4242 in
  let spec =
    Netsim.Topology.sized_hierarchy ~regions:4 ~hosts_per_region:16
      ~servers_per_region:3 ~degree:16.0 ()
  in
  (Netsim.Topology.scale_site ~rng spec).Netsim.Topology.graph

(* Replay one deterministic flip/query trace against a net and return
   (answers, recomputes). *)
let replay trace net =
  let answers = ref [] in
  List.iter
    (fun step ->
      match step with
      | `Down (u, v) -> Netsim.Net.set_link_down net u v
      | `Up (u, v) -> Netsim.Net.set_link_up net u v
      | `Query (src, dst) -> answers := Netsim.Net.hops net src dst :: !answers)
    trace;
  (List.rev !answers, Netsim.Net.route_recomputes net)

(* The answers with no cache to go stale: after each flip, a new net
   with the same links down answers the queries up to the next one, so
   every tree it consults is a fresh Dijkstra over the current links. *)
let reference_answers g trace =
  let down = ref [] and net = ref None in
  List.filter_map
    (fun step ->
      match step with
      | `Down l ->
          down := l :: !down;
          net := None;
          None
      | `Up l ->
          down := List.filter (fun d -> d <> l) !down;
          net := None;
          None
      | `Query (src, dst) ->
          let fresh =
            match !net with
            | Some fresh -> fresh
            | None ->
                let fresh = make g in
                List.iter (fun (u, v) -> Netsim.Net.set_link_down fresh u v) !down;
                net := Some fresh;
                fresh
          in
          Some (Netsim.Net.hops fresh src dst))
    trace

(* Whole-cache invalidation's Dijkstra count for a trace: every flip
   drops every tree, so a query recomputes exactly when its source has
   not been queried since the last flip. *)
let full_invalidation_recomputes trace =
  let warm = Hashtbl.create 16 in
  List.fold_left
    (fun n step ->
      match step with
      | `Down _ | `Up _ ->
          Hashtbl.reset warm;
          n
      | `Query (src, _) ->
          if Hashtbl.mem warm src then n
          else begin
            Hashtbl.replace warm src ();
            n + 1
          end)
    0 trace

(* Cut/restore windows (at most [concurrent] links down at once, like
   a real outage process) interleaved with queries from a handful of
   hot sources — the access pattern scoped invalidation is built for. *)
let make_trace g ~steps ~hot ~seed ~concurrent =
  let rng = Dsim.Rng.create seed in
  let edges = Array.of_list (Netsim.Graph.edges g) in
  let n = Netsim.Graph.node_count g in
  let down = Queue.create () in
  let is_down = Hashtbl.create 16 in
  let trace = ref [] in
  for _ = 1 to steps do
    if Queue.length down >= concurrent then begin
      let u, v = Queue.pop down in
      Hashtbl.remove is_down (u, v);
      trace := `Up (u, v) :: !trace
    end
    else begin
      let u, v, _ = edges.(Dsim.Rng.int rng (Array.length edges)) in
      if not (Hashtbl.mem is_down (u, v)) then begin
        Hashtbl.replace is_down (u, v) ();
        Queue.push (u, v) down;
        trace := `Down (u, v) :: !trace
      end
    end;
    List.iter
      (fun src -> trace := `Query (src, Dsim.Rng.int rng n) :: !trace)
      hot
  done;
  List.rev !trace

let test_scoped_equals_full () =
  let g = scale_graph () in
  let trace = make_trace g ~steps:300 ~hot:[ 0; 17; 33; 50; 71 ] ~seed:97 ~concurrent:3 in
  let scoped, _ = replay trace (make g) in
  Alcotest.(check (list int)) "identical routing answers"
    (reference_answers g trace) scoped

let test_recompute_saving () =
  (* The tentpole claim: on the scale topology, with per-source query
     traffic dense relative to link flips, scoped invalidation redoes
     at least 5x less Dijkstra work than whole-cache invalidation
     would for the same trace. *)
  let g = scale_graph () in
  let trace = make_trace g ~steps:400 ~hot:[ 3; 21; 40; 58; 66 ] ~seed:2024 ~concurrent:3 in
  let answers, scoped = replay trace (make g) in
  Alcotest.(check (list int)) "same answers" (reference_answers g trace) answers;
  let full = full_invalidation_recomputes trace in
  Alcotest.(check bool)
    (Printf.sprintf "scoped %d vs full %d recomputes (need 5x)" scoped full)
    true
    (scoped * 5 <= full)

let test_counters_exposed_via_registry () =
  (* End-to-end: a faulted scenario run must surface the route-cache
     counters through the telemetry registry. *)
  let rng = Dsim.Rng.create 8 in
  let site =
    Netsim.Topology.scale_site ~rng
      (Netsim.Topology.sized_hierarchy ~regions:3 ~hosts_per_region:4
         ~servers_per_region:2 ())
  in
  let spec =
    {
      Mail.Scenario.default_spec with
      seed = 3;
      mail_count = 60;
      duration = 2000.;
      faults = Some Netsim.Fault.standard;
    }
  in
  let o = Mail.Scenario.run_syntax site spec in
  let counter = Telemetry.Registry.get_counter o.Mail.Scenario.metrics in
  Alcotest.(check bool) "recomputes counted" true (counter "route_tree_recompute" > 0);
  Alcotest.(check bool) "hits counted" true (counter "route_cache_hit" > 0);
  Alcotest.(check bool) "invalidations counted" true (counter "route_invalidation" > 0);
  Alcotest.(check bool) "repair nodes counted" true (counter "route_repair_node" > 0);
  Alcotest.(check bool) "engine events counted" true
    (o.Mail.Scenario.engine_events > 0)

let suite =
  [
    ( "route_cache",
      [
        Alcotest.test_case "unused link cut keeps cache" `Quick
          test_unused_link_cut_keeps_cache;
        Alcotest.test_case "used link cut drops dependents" `Quick
          test_used_link_cut_drops_dependents;
        Alcotest.test_case "restore improvement check" `Quick
          test_restore_improvement_check;
        Alcotest.test_case "first hop" `Quick test_first_hop;
        Alcotest.test_case "send avoiding a cut repairs nothing" `Quick
          test_send_avoiding_cut;
        Alcotest.test_case "send across a cut repairs" `Quick test_send_across_cut;
        Alcotest.test_case "restore nearer than the leaf repairs" `Quick
          test_near_restore_repairs;
        Alcotest.test_case "cut-then-restored tree edge repairs nothing" `Quick
          test_cut_restored_tree_edge;
        Alcotest.test_case "scoped equals full" `Quick test_scoped_equals_full;
        Alcotest.test_case "5x fewer recomputes" `Quick test_recompute_saving;
        Alcotest.test_case "counters in registry" `Quick
          test_counters_exposed_via_registry;
      ] );
  ]
