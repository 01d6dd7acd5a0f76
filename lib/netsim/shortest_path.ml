type tree = {
  source : Graph.node;
  dist : float array;
  prev : Graph.node array;
}

let dijkstra ?usable g source =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Shortest_path.dijkstra: bad source";
  let edge_ok u v =
    match usable with None -> true | Some f -> f u v
  in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let settled = Array.make n false in
  let queue = Dsim.Heap.create () in
  dist.(source) <- 0.;
  Dsim.Heap.push queue 0. source;
  let rec drain () =
    match Dsim.Heap.pop queue with
    | None -> ()
    | Some (d, u) ->
        if not settled.(u) && d <= dist.(u) then begin
          settled.(u) <- true;
          let relax (v, w) =
            let nd = dist.(u) +. w in
            (* Strict improvement, or equal cost through a smaller
               predecessor: keeps tie-broken paths deterministic. *)
            if
              edge_ok u v
              && (not settled.(v))
              && (nd < dist.(v) || (nd = dist.(v) && u < prev.(v)))
            then begin
              dist.(v) <- nd;
              prev.(v) <- u;
              Dsim.Heap.push queue nd v
            end
          in
          List.iter relax (Graph.neighbors g u)
        end;
        drain ()
  in
  drain ();
  { source; dist; prev }

let distance t v = t.dist.(v)

let by_distance t nodes =
  List.stable_sort (fun a b -> Float.compare t.dist.(a) t.dist.(b)) nodes

let path t target =
  if target = t.source then Some [ t.source ]
  else if Float.is_finite t.dist.(target) then begin
    let rec build v acc =
      if v = t.source then v :: acc else build t.prev.(v) (v :: acc)
    in
    Some (build target [])
  end
  else None

let hop_count t target =
  match path t target with Some p -> Some (List.length p - 1) | None -> None

(* Every reachable non-source node contributes exactly one tree edge
   (prev.(v), v), so the normalised pairs are already distinct. *)
let first_hops t =
  let n = Array.length t.dist in
  let hop = Array.make n (-1) in
  (* hop.(v) is the source's neighbour beginning the path to v;
     memoised along the predecessor chain, so the whole table is O(n). *)
  let rec resolve v =
    if v = t.source || t.prev.(v) < 0 then -1
    else if hop.(v) >= 0 then hop.(v)
    else begin
      let h = if t.prev.(v) = t.source then v else resolve t.prev.(v) in
      hop.(v) <- h;
      h
    end
  in
  for v = 0 to n - 1 do
    ignore (resolve v)
  done;
  hop

(* --- flat adjacency + arena Dijkstra ------------------------------- *)

type adjacency = {
  adj_n : int;
  adj_index : int array;
  adj_dst : int array;
  adj_weight : float array;
  adj_edge : int array;
}

let compile g =
  let n = Graph.node_count g in
  (* Undirected edge ids follow [Graph.edges] order (u < v, sorted), so
     the numbering is deterministic and shared with every consumer. *)
  let ids = Hashtbl.create (max 16 (2 * Graph.edge_count g)) in
  List.iteri
    (fun i (u, v, _) -> Hashtbl.replace ids ((u * n) + v) i)
    (Graph.edges g);
  let index = Array.make (n + 1) 0 in
  let total = ref 0 in
  let neighbors = Array.init n (Graph.neighbors g) in
  Array.iteri
    (fun u l ->
      index.(u) <- !total;
      total := !total + List.length l)
    neighbors;
  index.(n) <- !total;
  let sz = max 1 !total in
  let dst = Array.make sz 0 in
  let weight = Array.make sz 0. in
  let edge = Array.make sz 0 in
  Array.iteri
    (fun u l ->
      let i = ref index.(u) in
      List.iter
        (fun (v, w) ->
          dst.(!i) <- v;
          weight.(!i) <- w;
          let key = if u < v then (u * n) + v else (v * n) + u in
          edge.(!i) <- Hashtbl.find ids key;
          incr i)
        l)
    neighbors;
  { adj_n = n; adj_index = index; adj_dst = dst; adj_weight = weight; adj_edge = edge }

type scratch = {
  mutable settled : Bytes.t;
  queue : Dsim.Heap.Arena.t;
}

let scratch ?(capacity = 256) n =
  { settled = Bytes.make (max 1 n) '\000'; queue = Dsim.Heap.Arena.create ~capacity () }

let bit_set bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let dijkstra_flat ~adj ?edge_down ?up ws source =
  let n = adj.adj_n in
  if source < 0 || source >= n then
    invalid_arg "Shortest_path.dijkstra_flat: bad source";
  if Bytes.length ws.settled < n then ws.settled <- Bytes.make n '\000'
  else Bytes.fill ws.settled 0 n '\000';
  let settled = ws.settled in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let via = Array.make n (-1) in
  let q = ws.queue in
  let filtered, down =
    match edge_down with None -> (false, Bytes.empty) | Some b -> (true, b)
  in
  let up = match up with None -> [||] | Some a -> a in
  dist.(source) <- 0.;
  ignore (Dsim.Heap.Arena.push q ~prio:0. ~tag:source);
  while not (Dsim.Heap.Arena.is_empty q) do
    (* [top_prio] would box its float across the module boundary. *)
    let d = (Dsim.Heap.Arena.prios q).(0) in
    let u = Dsim.Heap.Arena.top_tag q in
    Dsim.Heap.Arena.drop q;
    if Bytes.get settled u = '\000' && d <= dist.(u) then begin
      Bytes.set settled u '\001';
      (* A down node is reached but relays nothing, unless it is the
         source. *)
      if u = source || Array.length up = 0 || up.(u) then begin
        let du = dist.(u) in
        for i = adj.adj_index.(u) to adj.adj_index.(u + 1) - 1 do
          let v = adj.adj_dst.(i) in
          if
            Bytes.get settled v = '\000'
            && ((not filtered) || not (bit_set down adj.adj_edge.(i)))
          then begin
            let nd = du +. adj.adj_weight.(i) in
            (* Strict improvement, or equal cost through a smaller
               predecessor: identical tie-break to [dijkstra], so both
               implementations return byte-identical trees. *)
            if nd < dist.(v) || (nd = dist.(v) && u < prev.(v)) then begin
              dist.(v) <- nd;
              prev.(v) <- u;
              via.(v) <- adj.adj_edge.(i);
              ignore (Dsim.Heap.Arena.push q ~prio:nd ~tag:v)
            end
          end
        done
      end
    end
  done;
  ({ source; dist; prev }, via)

let all_pairs g = Array.of_list (List.map (dijkstra g) (Graph.nodes g))

let next_hop_table g src = first_hops (dijkstra g src)

let eccentricity g v =
  let t = dijkstra g v in
  Array.fold_left
    (fun acc d -> if Float.is_finite d && d > acc then d else acc)
    0. t.dist

let diameter g =
  List.fold_left (fun acc v -> Float.max acc (eccentricity g v)) 0. (Graph.nodes g)
