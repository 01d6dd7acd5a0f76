(* Tests for Netsim.Shortest_path. *)

let line5 () = Netsim.Topology.line ~n:5 ~weight:2.

let test_line_distances () =
  let g = line5 () in
  let t = Netsim.Shortest_path.dijkstra g 0 in
  List.iteri
    (fun i expected ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "dist 0->%d" i)
        expected
        (Netsim.Shortest_path.distance t i))
    [ 0.; 2.; 4.; 6.; 8. ]

let test_path_extraction () =
  let g = line5 () in
  let t = Netsim.Shortest_path.dijkstra g 0 in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3; 4 ])
    (Netsim.Shortest_path.path t 4);
  Alcotest.(check (option (list int))) "self path" (Some [ 0 ])
    (Netsim.Shortest_path.path t 0);
  Alcotest.(check (option int)) "hops" (Some 4) (Netsim.Shortest_path.hop_count t 4)

let test_unreachable () =
  let g = Netsim.Graph.create () in
  let a = Netsim.Graph.add_node g in
  let b = Netsim.Graph.add_node g in
  let t = Netsim.Shortest_path.dijkstra g a in
  Alcotest.(check bool) "infinite" true
    (Netsim.Shortest_path.distance t b = infinity);
  Alcotest.(check (option (list int))) "no path" None (Netsim.Shortest_path.path t b);
  Alcotest.(check (option int)) "no hops" None (Netsim.Shortest_path.hop_count t b)

let test_prefers_cheap_route () =
  (* triangle: direct edge 10, two-hop route 2+2=4 *)
  let g = Netsim.Graph.create () in
  let a = Netsim.Graph.add_node g in
  let b = Netsim.Graph.add_node g in
  let c = Netsim.Graph.add_node g in
  Netsim.Graph.add_edge g a c 10.;
  Netsim.Graph.add_edge g a b 2.;
  Netsim.Graph.add_edge g b c 2.;
  let t = Netsim.Shortest_path.dijkstra g a in
  Alcotest.(check (float 1e-9)) "cheap route" 4. (Netsim.Shortest_path.distance t c);
  Alcotest.(check (option (list int))) "via b" (Some [ a; b; c ])
    (Netsim.Shortest_path.path t c)

let test_paper_fig1_distances () =
  let site = Netsim.Topology.paper_fig1 () in
  let g = site.Netsim.Topology.graph in
  (* prose fact: minimum communication time between H2 and S1 is 2. *)
  let h2 = 1 and s1 = 6 in
  Alcotest.(check string) "h2 label" "H2" (Netsim.Graph.label g h2);
  Alcotest.(check string) "s1 label" "S1" (Netsim.Graph.label g s1);
  let t = Netsim.Shortest_path.dijkstra g h2 in
  Alcotest.(check (float 1e-9)) "H2->S1 = 2" 2. (Netsim.Shortest_path.distance t s1)

let test_next_hop_table () =
  let g = line5 () in
  let table = Netsim.Shortest_path.(first_hops (dijkstra g 0)) in
  Alcotest.(check int) "to 4 via 1" 1 table.(4);
  Alcotest.(check int) "to self" (-1) table.(0)

(* The diameter is the greatest eccentricity: on the line, an end
   node's (8), not the middle one's (4); an unreachable node adds no
   infinite distance. *)
let test_diameter_and_eccentricity () =
  let g = line5 () in
  let ecc v = Array.fold_left Float.max 0. (Netsim.Shortest_path.dijkstra g v).dist in
  Alcotest.(check (float 1e-9)) "ecc of end" 8. (ecc 0);
  Alcotest.(check (float 1e-9)) "ecc of middle" 4. (ecc 2);
  Alcotest.(check (float 1e-9)) "diameter" 8. (Netsim.Shortest_path.diameter g);
  ignore (Netsim.Graph.add_node g);
  Alcotest.(check (float 1e-9)) "isolated node ignored" 8. (Netsim.Shortest_path.diameter g);
  Alcotest.(check (float 1e-9)) "empty graph" 0.
    (Netsim.Shortest_path.diameter (Netsim.Graph.create ()))

let test_all_pairs_symmetry () =
  let rng = Dsim.Rng.create 8 in
  let g =
    Netsim.Topology.random_connected ~rng ~n:20 ~extra_edges:30 ~min_weight:1.
      ~max_weight:9.
  in
  let trees =
    Array.of_list (List.map (Netsim.Shortest_path.dijkstra g) (Netsim.Graph.nodes g))
  in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          let duv = Netsim.Shortest_path.distance trees.(u) v in
          let dvu = Netsim.Shortest_path.distance trees.(v) u in
          if Float.abs (duv -. dvu) > 1e-9 then
            Alcotest.failf "asymmetry %d<->%d: %f vs %f" u v duv dvu)
        (Netsim.Graph.nodes g))
    (Netsim.Graph.nodes g)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"shortest paths obey the triangle inequality over edges"
    ~count:30
    QCheck.(int_range 3 30)
    (fun n ->
      let rng = Dsim.Rng.create (n * 7) in
      let g =
        Netsim.Topology.random_connected ~rng ~n ~extra_edges:n ~min_weight:0.5
          ~max_weight:4.
      in
      let t = Netsim.Shortest_path.dijkstra g 0 in
      List.for_all
        (fun (u, v, w) ->
          Netsim.Shortest_path.distance t v
          <= Netsim.Shortest_path.distance t u +. w +. 1e-9
          && Netsim.Shortest_path.distance t u
             <= Netsim.Shortest_path.distance t v +. w +. 1e-9)
        (Netsim.Graph.edges g))

let prop_path_length_matches_distance =
  QCheck.Test.make ~name:"sum of path edge weights equals reported distance" ~count:30
    QCheck.(int_range 3 25)
    (fun n ->
      let rng = Dsim.Rng.create (n * 13) in
      let g =
        Netsim.Topology.random_connected ~rng ~n ~extra_edges:(n / 2) ~min_weight:1.
          ~max_weight:6.
      in
      let t = Netsim.Shortest_path.dijkstra g 0 in
      List.for_all
        (fun v ->
          match Netsim.Shortest_path.path t v with
          | None -> false
          | Some nodes ->
              let rec walk acc = function
                | a :: (b :: _ as rest) ->
                    (match Netsim.Graph.weight g a b with
                    | Some w -> walk (acc +. w) rest
                    | None -> nan)
                | _ -> acc
              in
              Float.abs (walk 0. nodes -. Netsim.Shortest_path.distance t v) < 1e-9)
        (Netsim.Graph.nodes g))

let suite =
  [
    ( "shortest_path",
      [
        Alcotest.test_case "line distances" `Quick test_line_distances;
        Alcotest.test_case "path extraction" `Quick test_path_extraction;
        Alcotest.test_case "unreachable" `Quick test_unreachable;
        Alcotest.test_case "prefers cheap multi-hop route" `Quick test_prefers_cheap_route;
        Alcotest.test_case "paper Fig.1 H2->S1 distance" `Quick test_paper_fig1_distances;
        Alcotest.test_case "next hop table" `Quick test_next_hop_table;
        Alcotest.test_case "diameter and eccentricity" `Quick
          test_diameter_and_eccentricity;
        Alcotest.test_case "all pairs symmetry" `Quick test_all_pairs_symmetry;
        QCheck_alcotest.to_alcotest prop_triangle_inequality;
        QCheck_alcotest.to_alcotest prop_path_length_matches_distance;
      ] );
  ]
