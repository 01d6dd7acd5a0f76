type mail_site = {
  graph : Graph.t;
  hosts : (Graph.node * int) list;
  servers : Graph.node list;
}

let paper_fig1 () =
  let g = Graph.create () in
  let region = "r0" in
  let host i = Graph.add_node ~label:(Printf.sprintf "H%d" i) ~kind:Host ~region g in
  let server i = Graph.add_node ~label:(Printf.sprintf "S%d" i) ~kind:Server ~region g in
  let h1 = host 1 and h2 = host 2 and h3 = host 3 in
  let h4 = host 4 and h5 = host 5 and h6 = host 6 in
  let s1 = server 1 and s2 = server 2 and s3 = server 3 in
  let link u v = Graph.add_edge g u v 1.0 in
  link h1 s1;
  link h3 s1;
  link h2 s2;
  link h4 s2;
  link h5 s2;
  link h6 s3;
  link s1 s2;
  link s2 s3;
  {
    graph = g;
    hosts = [ (h1, 50); (h2, 60); (h3, 50); (h4, 50); (h5, 40); (h6, 20) ];
    servers = [ s1; s2; s3 ];
  }

let paper_table3 () =
  let g = Graph.create () in
  let region = "r0" in
  let host i = Graph.add_node ~label:(Printf.sprintf "H%d" i) ~kind:Host ~region g in
  let server i = Graph.add_node ~label:(Printf.sprintf "S%d" i) ~kind:Server ~region g in
  let h1 = host 1 and h2 = host 2 and h3 = host 3 in
  let s1 = server 1 and s2 = server 2 and s3 = server 3 in
  let link u v = Graph.add_edge g u v 1.0 in
  link h1 s1;
  link h2 s2;
  link h3 s3;
  link s1 s2;
  link s2 s3;
  { graph = g; hosts = [ (h1, 100); (h2, 100); (h3, 20) ]; servers = [ s1; s2; s3 ] }

let arpanet () =
  let g = Graph.create () in
  let site label region = Graph.add_node ~label ~kind:Relay ~region g in
  (* West coast *)
  let ucla = site "UCLA" "west" in
  let sri = site "SRI" "west" in
  let ucsb = site "UCSB" "west" in
  let stanford = site "STAN" "west" in
  let ames = site "AMES" "west" in
  let usc = site "USC" "west" in
  let rand = site "RAND" "west" in
  (* Mountain / central *)
  let utah = site "UTAH" "central" in
  let illinois = site "ILL" "central" in
  let aberdeen = site "ABER" "central" in
  let carnegie = site "CMU" "central" in
  let case = site "CASE" "central" in
  (* East coast *)
  let mit = site "MIT" "east" in
  let bbn = site "BBN" "east" in
  let harvard = site "HARV" "east" in
  let lincoln = site "LL" "east" in
  let nbs = site "NBS" "east" in
  let mitre = site "MITRE" "east" in
  let belvoir = site "BELV" "east" in
  let rutgers = site "RUTG" "east" in
  (* Historical-ish links; weights are rough mileage / 100. *)
  List.iter
    (fun (u, v, w) -> Graph.add_edge g u v w)
    [
      (ucla, sri, 3.5); (ucla, ucsb, 1.0); (ucla, rand, 0.2); (ucla, usc, 0.2);
      (sri, ucsb, 3.0); (sri, stanford, 0.2); (sri, ames, 0.3); (sri, utah, 7.5);
      (stanford, ames, 0.2); (rand, usc, 0.1); (usc, utah, 7.0);
      (utah, illinois, 13.0); (illinois, mit, 10.0); (illinois, carnegie, 4.5);
      (carnegie, case, 1.2); (case, mit, 6.0); (aberdeen, nbs, 0.7);
      (aberdeen, belvoir, 0.6); (mit, bbn, 0.1); (mit, lincoln, 0.2);
      (bbn, harvard, 0.1); (harvard, rutgers, 2.5); (rutgers, mitre, 2.0);
      (mitre, nbs, 0.2); (nbs, belvoir, 0.3); (rand, aberdeen, 23.0);
      (lincoln, case, 5.5);
    ];
  g

let arpanet_mail_site () =
  let g = arpanet () in
  let by_label l =
    List.find (fun v -> String.equal (Graph.label g v) l) (Graph.nodes g)
  in
  let servers = List.map by_label [ "BBN"; "UCLA"; "ILL" ] in
  let hosts =
    List.filter (fun v -> not (List.mem v servers)) (Graph.nodes g)
    |> List.map (fun v -> (v, 10))
  in
  { graph = g; hosts; servers }

let line ~n ~weight =
  if n <= 0 then invalid_arg "Topology.line: n must be positive";
  let g = Graph.create () in
  let ids = Array.init n (fun _ -> Graph.add_node g) in
  for i = 0 to n - 2 do
    Graph.add_edge g ids.(i) ids.(i + 1) weight
  done;
  g

let ring ~n ~weight =
  if n < 3 then invalid_arg "Topology.ring: need at least 3 nodes";
  let g = line ~n ~weight in
  Graph.add_edge g (n - 1) 0 weight;
  g

let star ~leaves ~weight =
  if leaves <= 0 then invalid_arg "Topology.star: need at least one leaf";
  let g = Graph.create () in
  let hub = Graph.add_node ~label:"hub" g in
  for _ = 1 to leaves do
    let leaf = Graph.add_node g in
    Graph.add_edge g hub leaf weight
  done;
  g

let grid ~rows ~cols ~weight =
  if rows <= 0 || cols <= 0 then invalid_arg "Topology.grid: empty grid";
  let g = Graph.create () in
  let ids = Array.init (rows * cols) (fun _ -> Graph.add_node g) in
  let at r c = ids.((r * cols) + c) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then Graph.add_edge g (at r c) (at r (c + 1)) weight;
      if r + 1 < rows then Graph.add_edge g (at r c) (at (r + 1) c) weight
    done
  done;
  g

let random_weight rng lo hi =
  if hi <= lo then lo else Dsim.Rng.uniform rng lo hi

(* Random spanning tree by attaching each new node to a uniformly
   chosen earlier node, then sprinkling extra edges. *)
let random_connected ~rng ~n ~extra_edges ~min_weight ~max_weight =
  if n <= 0 then invalid_arg "Topology.random_connected: n must be positive";
  let g = Graph.create () in
  let ids = Array.init n (fun _ -> Graph.add_node g) in
  for i = 1 to n - 1 do
    let parent = Dsim.Rng.int rng i in
    Graph.add_edge g ids.(i) ids.(parent) (random_weight rng min_weight max_weight)
  done;
  let max_extra = ((n * (n - 1)) / 2) - (n - 1) in
  let wanted = min extra_edges max_extra in
  let added = ref 0 in
  while !added < wanted do
    let u = Dsim.Rng.int rng n and v = Dsim.Rng.int rng n in
    if u <> v && not (Graph.mem_edge g u v) then begin
      Graph.add_edge g u v (random_weight rng min_weight max_weight);
      incr added
    end
  done;
  g

let random_mail_site ~rng ~hosts ~servers ~users_per_host ~extra_edges =
  if hosts <= 0 || servers <= 0 then
    invalid_arg "Topology.random_mail_site: need hosts and servers";
  let n = hosts + servers in
  let g = Graph.create () in
  let host_ids =
    List.init hosts (fun i ->
        Graph.add_node ~label:(Printf.sprintf "H%d" (i + 1)) ~kind:Host ~region:"r0" g)
  in
  let server_ids =
    List.init servers (fun i ->
        Graph.add_node ~label:(Printf.sprintf "S%d" (i + 1)) ~kind:Server ~region:"r0" g)
  in
  (* Spanning tree over all nodes. *)
  for i = 1 to n - 1 do
    let parent = Dsim.Rng.int rng i in
    Graph.add_edge g i parent (random_weight rng 1.0 4.0)
  done;
  let max_extra = ((n * (n - 1)) / 2) - (n - 1) in
  let wanted = min extra_edges max_extra in
  let added = ref 0 in
  while !added < wanted do
    let u = Dsim.Rng.int rng n and v = Dsim.Rng.int rng n in
    if u <> v && not (Graph.mem_edge g u v) then begin
      Graph.add_edge g u v (random_weight rng 1.0 4.0);
      incr added
    end
  done;
  let lo, hi = users_per_host in
  let hosts =
    List.map (fun h -> (h, lo + Dsim.Rng.int rng (max 1 (hi - lo + 1)))) host_ids
  in
  { graph = g; hosts; servers = server_ids }

type hierarchy = {
  regions : int;
  hosts_per_region : int;
  servers_per_region : int;
  gateways_per_region : int;
  intra_extra_edges : int;
  backbone_extra_edges : int;
  local_weight : float * float;
  backbone_weight : float * float;
}

let default_hierarchy =
  {
    regions = 3;
    hosts_per_region = 6;
    servers_per_region = 2;
    gateways_per_region = 2;
    intra_extra_edges = 4;
    backbone_extra_edges = 2;
    local_weight = (1.0, 3.0);
    backbone_weight = (5.0, 12.0);
  }

let hierarchical ~rng spec =
  if spec.regions <= 0 then invalid_arg "Topology.hierarchical: need regions";
  if spec.gateways_per_region <= 0 then
    invalid_arg "Topology.hierarchical: need gateways";
  let g = Graph.create () in
  let lo_l, hi_l = spec.local_weight and lo_b, hi_b = spec.backbone_weight in
  let all_gateways = ref [] in
  for r = 0 to spec.regions - 1 do
    let region = Printf.sprintf "r%d" r in
    let members = ref [] in
    let add kind label_prefix count =
      List.init count (fun i ->
          let label = Printf.sprintf "%s%d-%s" label_prefix (i + 1) region in
          let v = Graph.add_node ~label ~kind ~region g in
          members := v :: !members;
          v)
    in
    let _hosts = add Graph.Host "H" spec.hosts_per_region in
    let _servers = add Graph.Server "S" spec.servers_per_region in
    let gateways = add Graph.Gateway "G" spec.gateways_per_region in
    all_gateways := !all_gateways @ gateways;
    let members = Array.of_list (List.rev !members) in
    let m = Array.length members in
    (* Intra-region random tree + extra edges. *)
    for i = 1 to m - 1 do
      let parent = Dsim.Rng.int rng i in
      Graph.add_edge g members.(i) members.(parent) (random_weight rng lo_l hi_l)
    done;
    let max_extra = ((m * (m - 1)) / 2) - (m - 1) in
    let wanted = min spec.intra_extra_edges max_extra in
    let added = ref 0 in
    while !added < wanted do
      let u = members.(Dsim.Rng.int rng m) and v = members.(Dsim.Rng.int rng m) in
      if u <> v && not (Graph.mem_edge g u v) then begin
        Graph.add_edge g u v (random_weight rng lo_l hi_l);
        incr added
      end
    done
  done;
  (* Backbone: ring over one gateway per region, then extra random
     gateway-to-gateway links across distinct regions. *)
  let gw = Array.of_list !all_gateways in
  let primary =
    Array.init spec.regions (fun r -> gw.(r * spec.gateways_per_region))
  in
  if spec.regions > 1 then begin
    for r = 0 to spec.regions - 1 do
      let next = (r + 1) mod spec.regions in
      if not (Graph.mem_edge g primary.(r) primary.(next)) then
        Graph.add_edge g primary.(r) primary.(next) (random_weight rng lo_b hi_b)
    done;
    let added = ref 0 in
    let attempts = ref 0 in
    while !added < spec.backbone_extra_edges && !attempts < 1000 do
      incr attempts;
      let u = gw.(Dsim.Rng.int rng (Array.length gw)) in
      let v = gw.(Dsim.Rng.int rng (Array.length gw)) in
      if
        u <> v
        && (not (String.equal (Graph.region g u) (Graph.region g v)))
        && not (Graph.mem_edge g u v)
      then begin
        Graph.add_edge g u v (random_weight rng lo_b hi_b);
        incr added
      end
    done
  end;
  g

(* Edges needed on top of the intra-region spanning tree to reach an
   average degree of [degree] over [m] nodes (sum of degrees = 2E). *)
let extra_for_degree ~m ~degree =
  let target = int_of_float (Float.ceil (float_of_int m *. degree /. 2.)) in
  let max_edges = m * (m - 1) / 2 in
  max 0 (min target max_edges - (m - 1))

let sized_hierarchy ~regions ~hosts_per_region ~servers_per_region
    ?(gateways_per_region = 2) ?(degree = 6.0) () =
  if regions <= 0 then invalid_arg "Topology.sized_hierarchy: need regions";
  if hosts_per_region <= 0 || servers_per_region <= 0 then
    invalid_arg "Topology.sized_hierarchy: need hosts and servers";
  if gateways_per_region <= 0 then
    invalid_arg "Topology.sized_hierarchy: need gateways";
  if degree < 2.0 then invalid_arg "Topology.sized_hierarchy: degree below tree";
  let m = hosts_per_region + servers_per_region + gateways_per_region in
  {
    regions;
    hosts_per_region;
    servers_per_region;
    gateways_per_region;
    intra_extra_edges = extra_for_degree ~m ~degree;
    backbone_extra_edges = max 0 (regions - 1);
    local_weight = default_hierarchy.local_weight;
    backbone_weight = default_hierarchy.backbone_weight;
  }

let scale_site ~rng ?(users_per_host = 10) spec =
  if users_per_host <= 0 then invalid_arg "Topology.scale_site: need users";
  let g = hierarchical ~rng spec in
  let nodes = Graph.nodes g in
  let hosts =
    List.filter (fun v -> Graph.kind g v = Graph.Host) nodes
    |> List.map (fun v -> (v, users_per_host))
  in
  let servers = List.filter (fun v -> Graph.kind g v = Graph.Server) nodes in
  { graph = g; hosts; servers }

let region_of_gateways g =
  Graph.regions g
  |> List.map (fun r ->
         let gws =
           List.filter (fun v -> Graph.kind g v = Graph.Gateway) (Graph.nodes_in_region g r)
         in
         (r, gws))
  |> List.filter (fun (_, gws) -> gws <> [])
