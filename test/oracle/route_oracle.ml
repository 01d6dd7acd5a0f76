(* Route-cache oracle.  Two seeded outage processes run against a
   cached network and compare every answer with a fresh computation
   over the same outage set.  Exits 0 after printing a summary line per
   phase; exits 1 with a diagnostic on the first divergence.  The dune
   rule runs it under OCAMLRUNPARAM=R (randomized Hashtbl seeds), so
   any hash-iteration-order dependence in the route cache would break
   the comparison across runs.

   - Trees: link cuts and restores and node crashes and recoveries
     interleaved with whole-tree queries on an unanchored net; after
     each query the cached tree's [dist] and [prev] and every
     [first_hop] are compared element for element with a fresh full
     Dijkstra under the transit rule (an edge is usable when it is up
     and the node it leaves is up or is the root: a down node is
     reached but relays nothing).
   - Sends: an anchored net (servers and gateways) under single-link
     flips with up to 8 links down, partition bursts (every boundary
     edge of one region cut in one step and restored together later),
     cuts and restores of the same edge between two queries, and relay
     crashes.  After each step, routed sends between random host and
     anchor pairs are compared with a net built fresh with the same
     links and nodes down and with a fresh transit-rule Dijkstra from
     the anchor: the latency bit for bit (sized messages, so the hop
     count shows in it) and the refusal.  Most of these sends
     are answered from stale trees, so this is the check on the rule
     that decides when a send may skip repair.

   Both phases run on the scale topology twice: with its continuous
   edge weights and with the weights rounded to integers, which makes
   equal-length paths (and so the smallest-id tie-break) common. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let scale_graph () =
  let rng = Dsim.Rng.create 4242 in
  let spec =
    Netsim.Topology.sized_hierarchy ~regions:4 ~hosts_per_region:10
      ~servers_per_region:3 ~degree:8.0 ()
  in
  (Netsim.Topology.scale_site ~rng spec).Netsim.Topology.graph

(* The same graph (ids, kinds, regions) with every weight rounded to
   an integer. *)
let integer_weights g =
  let h = Netsim.Graph.create () in
  List.iter
    (fun v ->
      ignore
        (Netsim.Graph.add_node ~label:(Netsim.Graph.label g v)
           ~kind:(Netsim.Graph.kind g v) ~region:(Netsim.Graph.region g v) h))
    (Netsim.Graph.nodes g);
  List.iter
    (fun (u, v, w) -> Netsim.Graph.add_edge h u v (Float.max 1. (Float.round w)))
    (Netsim.Graph.edges g);
  h

(* The reference tree: a fresh Dijkstra under the transit rule. *)
let transit_dijkstra net g src =
  Netsim.Shortest_path.dijkstra
    ~usable:(fun u v -> Netsim.Net.link_is_up net u v && (Netsim.Net.is_up net u || u = src))
    g src

let check_tree net g src =
  let cached = Netsim.Net.tree net src in
  let fresh = transit_dijkstra net g src in
  let n = Netsim.Graph.node_count g in
  for v = 0 to n - 1 do
    (* Exact float equality on purpose: the caches must agree to the
       last bit, including [infinity] for unreachable nodes. *)
    if not (Float.equal cached.Netsim.Shortest_path.dist.(v)
              fresh.Netsim.Shortest_path.dist.(v))
    then
      fail "oracle: dist mismatch src=%d v=%d cached=%h fresh=%h" src v
        cached.Netsim.Shortest_path.dist.(v)
        fresh.Netsim.Shortest_path.dist.(v);
    if cached.Netsim.Shortest_path.prev.(v) <> fresh.Netsim.Shortest_path.prev.(v)
    then
      fail "oracle: prev mismatch src=%d v=%d cached=%d fresh=%d" src v
        cached.Netsim.Shortest_path.prev.(v)
        fresh.Netsim.Shortest_path.prev.(v)
  done;
  let fresh_hops = Netsim.Shortest_path.first_hops fresh in
  for dst = 0 to n - 1 do
    let cached_hop =
      match Netsim.Net.first_hop net ~src ~dst with Some h -> h | None -> -1
    in
    if cached_hop <> fresh_hops.(dst) then
      fail "oracle: first-hop mismatch src=%d dst=%d cached=%d fresh=%d" src dst
        cached_hop fresh_hops.(dst)
  done

let trees name g =
  let n = Netsim.Graph.node_count g in
  let edges = Array.of_list (Netsim.Graph.edges g) in
  let engine = Dsim.Engine.create () in
  let net = (Netsim.Net.create ~engine g : unit Netsim.Net.t) in
  let flips = Dsim.Rng.create 1988 in
  let down = Queue.create () in
  let is_down = Hashtbl.create 16 in
  let crashed = Queue.create () in
  let queries = ref 0 in
  for _step = 1 to 500 do
    (* Keep at most 4 links and 2 nodes down so the network stays
       recognisable; restore oldest-first, exactly like an
       outage/repair process. *)
    (if Dsim.Rng.int flips 4 = 0 then begin
       if Queue.length crashed >= 2 || (Queue.length crashed > 0 && Dsim.Rng.bool flips)
       then Netsim.Net.set_up net (Queue.pop crashed)
       else
         let v = Dsim.Rng.int flips n in
         if Netsim.Net.is_up net v then begin
           Netsim.Net.set_down net v;
           Queue.push v crashed
         end
     end
     else if Queue.length down >= 4 then begin
       let u, v = Queue.pop down in
       Hashtbl.remove is_down (u, v);
       Netsim.Net.set_link_up net u v
     end
     else
       let u, v, _ = edges.(Dsim.Rng.int flips (Array.length edges)) in
       if not (Hashtbl.mem is_down (u, v)) then begin
         Hashtbl.replace is_down (u, v) ();
         Queue.push (u, v) down;
         Netsim.Net.set_link_down net u v
       end);
    for _q = 1 to 3 do
      incr queries;
      check_tree net g (Dsim.Rng.int flips n)
    done
  done;
  Printf.printf
    "route oracle (trees, %s weights): %d queries byte-identical to fresh \
     Dijkstra (%d recomputes, %d cache hits, %d invalidations)\n"
    name !queries
    (Netsim.Net.route_recomputes net)
    (Netsim.Net.route_cache_hits net)
    (Netsim.Net.route_invalidations net)

(* Sized sends over a finite bandwidth: latency = distance + hops *
   bytes / bandwidth, so a different equal-length path shows. *)
let bandwidth = 64.
let bytes = 16

let anchored_net g anchors =
  let engine = Dsim.Engine.create () in
  let net = (Netsim.Net.create ~engine ~bandwidth g : unit Netsim.Net.t) in
  Netsim.Net.set_route_anchors net anchors;
  net

let sends name g =
  let kinds k = Netsim.Graph.nodes_of_kind g k in
  let hosts = Array.of_list (kinds Netsim.Graph.Host) in
  let anchors = kinds Netsim.Graph.Server @ kinds Netsim.Graph.Gateway in
  let anchor_arr = Array.of_list anchors in
  let relays = Array.of_list (Netsim.Graph.nodes g) in
  let edges =
    Array.of_list (List.map (fun (u, v, _) -> (u, v)) (Netsim.Graph.edges g))
  in
  let boundary region =
    List.filter
      (fun (u, v) ->
        (Netsim.Graph.region g u = region) <> (Netsim.Graph.region g v = region))
      (Array.to_list edges)
  in
  let regions = Array.of_list (Netsim.Graph.regions g) in
  let net = anchored_net g anchors in
  let rng = Dsim.Rng.create 1988 in
  (* Single-link outages (oldest restored first), the links of the
     current partition burst, and crashed relays. *)
  let cut = Queue.create () in
  let partition = ref [] and partition_left = ref 0 in
  let crashed = ref [] in
  let cut_link (u, v) = Netsim.Net.set_link_down net u v in
  let restore_link (u, v) = Netsim.Net.set_link_up net u v in
  let is_up (u, v) = Netsim.Net.link_is_up net u v in
  let sends = ref 0 and refused = ref 0 in
  for step = 1 to 600 do
    (match Dsim.Rng.int rng 12 with
    | 0 when !partition = [] ->
        (* Partition burst: every boundary edge of one region at once. *)
        let region = regions.(Dsim.Rng.int rng (Array.length regions)) in
        partition := List.filter is_up (boundary region);
        partition_left := 3 + Dsim.Rng.int rng 8;
        List.iter cut_link !partition
    | 1 ->
        (* Cut and restore the same edge between two queries. *)
        let e = edges.(Dsim.Rng.int rng (Array.length edges)) in
        if is_up e then begin
          cut_link e;
          restore_link e
        end
    | 2 when not (Queue.is_empty cut) ->
        (* Restore a cut edge and cut it again. *)
        let e = Queue.peek cut in
        restore_link e;
        cut_link e
    | 3 -> (
        match !crashed with
        | v :: rest when List.length !crashed >= 3 || Dsim.Rng.bool rng ->
            Netsim.Net.set_up net v;
            crashed := rest
        | _ ->
            let v = relays.(Dsim.Rng.int rng (Array.length relays)) in
            if Netsim.Net.is_up net v then begin
              Netsim.Net.set_down net v;
              crashed := !crashed @ [ v ]
            end)
    | 4 | 5 ->
        (* A quiet step: sends read trees that earlier sends repaired
           with no flip pending, so ghosts kept by those repairs must
           still be noticed. *)
        ()
    | _ ->
        if Queue.length cut >= 8 || (Queue.length cut > 0 && Dsim.Rng.int rng 3 = 0)
        then restore_link (Queue.pop cut)
        else
          let e = edges.(Dsim.Rng.int rng (Array.length edges)) in
          if is_up e then begin
            cut_link e;
            Queue.push e cut
          end);
    if !partition <> [] then begin
      decr partition_left;
      if !partition_left <= 0 then begin
        List.iter restore_link !partition;
        partition := []
      end
    end;
    (* The reference: no cache to go stale. *)
    let fresh = anchored_net g anchors in
    List.iter
      (fun (u, v) -> Netsim.Net.set_link_down fresh u v)
      (Netsim.Net.links_down net);
    List.iter (Netsim.Net.set_down fresh) !crashed;
    for _q = 1 to 6 do
      let h = hosts.(Dsim.Rng.int rng (Array.length hosts))
      and a = anchor_arr.(Dsim.Rng.int rng (Array.length anchor_arr)) in
      let src, dst = if Dsim.Rng.bool rng then (h, a) else (a, h) in
      let got = Netsim.Net.send_timed ~bytes net ~src ~dst ()
      and want = Netsim.Net.send_timed ~bytes fresh ~src ~dst () in
      let reference =
        (* Sends are answered from the anchor's tree. *)
        let tr = transit_dijkstra net g a in
        let leaf = if a = src then dst else src in
        match Netsim.Shortest_path.hop_count tr leaf with
        | Some h when Netsim.Net.is_up net src ->
            Some
              (tr.Netsim.Shortest_path.dist.(leaf)
              +. (float_of_int h *. (float_of_int bytes /. bandwidth)))
        | _ -> None
      in
      incr sends;
      if want = None then incr refused;
      let show = function None -> "refused" | Some l -> Printf.sprintf "%h" l in
      let same x y =
        match (x, y) with
        | None, None -> true
        | Some l, Some l' -> Float.equal l l'
        | _ -> false
      in
      if not (same got want) then
        fail "oracle: send mismatch step=%d src=%d dst=%d cached=%s fresh=%s" step
          src dst (show got) (show want);
      if not (same want reference) then
        fail "oracle: send mismatch step=%d src=%d dst=%d fresh net=%s dijkstra=%s"
          step src dst (show want) (show reference)
    done;
    (* Now and then a whole-tree reader catches an anchor up. *)
    if step mod 25 = 0 then
      check_tree net g anchor_arr.(Dsim.Rng.int rng (Array.length anchor_arr))
  done;
  Printf.printf
    "route oracle (sends, %s weights): %d anchored sends identical to a fresh \
     net and a transit-rule Dijkstra (%d refused; %d repair passes, %d nodes \
     re-settled)\n"
    name !sends !refused
    (Netsim.Net.route_invalidations net)
    (Netsim.Net.route_repair_nodes net)

let () =
  let g = scale_graph () in
  let gi = integer_weights g in
  trees "continuous" g;
  trees "integer" gi;
  sends "continuous" g;
  sends "integer" gi
