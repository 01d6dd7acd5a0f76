type 'msg handler = time:float -> src:Graph.node -> 'msg -> unit

(* One cached routing state per source: the Dijkstra tree, a derived
   next-hop table for O(1) first-hop queries, and the exact set of
   links the tree routes over — what lets a link flip touch only the
   trees it can actually affect. *)
type route = {
  tree : Shortest_path.tree;
  next_hop : Graph.node array;
  via : int array;
      (* per-node id of the tree edge reaching it (-1 for the source
         and unreachable nodes) — both the dependency record and the
         edge set incremental repair patches in place *)
  mutable flip_cursor : int;
      (* index into the net's flip log this tree is synced to; the
         gap to [flip_len] is the set of link flips the tree has not
         yet observed (settled lazily, at query time) *)
}

(* Pooled in-flight delivery slots: the per-send (src, dst, hops,
   payload) tuple lives in parallel arrays and the scheduled event is a
   per-slot closure allocated once, on the slot's first use, and reused
   for every later flight through that slot.  The steady state of the
   dominant event kind — wire delivery — therefore allocates nothing.
   Created lazily on the first send so the payload array has a filler
   value without requiring a dummy at [create] time. *)
type 'msg slots = {
  mutable s_src : int array;
  mutable s_dst : int array;
  mutable s_hops : int array;
  mutable s_msg : 'msg array;
  mutable s_fire : (unit -> unit) array;
  mutable s_free : int array;  (* stack of free slot indices *)
  mutable s_free_top : int;
}

type 'msg t = {
  graph : Graph.t;
  engine : Dsim.Engine.t;
  trace : Dsim.Trace.t option;
  bandwidth : float;  (* bytes per unit time per link; infinity = unsized *)
  loss_rate : float;
  loss_rng : Dsim.Rng.t;
  mutable lost : int;
  up : bool array;
  (* Links are undirected edge ids (positions in the sorted
     [Graph.edges] list); outages live in a bitset, not a hashtable. *)
  n : int;
  edge_ends : (Graph.node * Graph.node) array;  (* id -> (u, v), u < v *)
  edge_ids : (int, int) Hashtbl.t;  (* u * n + v (u < v) -> id; cold paths *)
  edge_down : Bytes.t;
  mutable edges_down : int;
  adj : Shortest_path.adjacency;
  scratch : Shortest_path.scratch;
  handlers : 'msg handler array;
  mutable listeners : (time:float -> Graph.node -> bool -> unit) list;
  routes : route option array;  (* Dijkstra cache per source *)
  (* Lazy-repair flip log: every link flip appends one entry
     ([edge id * 2], low bit 1 = restore) and each cached tree carries
     a cursor into the log.  Trees catch up at query time — a flip
     that cannot touch a canonical tree (a cut of an edge it does not
     route over, a restore that cannot shorten or re-tie-break any
     path) just advances the cursor, so trees nobody queries between
     flips never pay for repairs at all. *)
  edge_weight : float array;  (* id -> link weight; restore checks *)
  mutable flip_log : int array;
  mutable flip_len : int;
  (* Repair workspace, shared by every tree: per-node mark bytes
     (0 untouched / 1 detached-unsettled / 2 settled), a scratch heap,
     and the list of marked nodes to clear afterwards. *)
  mark : Bytes.t;
  repair_heap : unit Dsim.Heap.Arena.t;
  mutable touched : int array;
  mutable ntouched : int;
  (* Route-anchor bitset: when set, only these nodes keep cached
     Dijkstra trees warm — a (src, dst) query is answered from the
     anchored endpoint's tree (paths are symmetric on an undirected
     graph).  Declaring the infrastructure nodes (servers, gateways)
     as anchors shrinks the set of trees the fault campaign must
     repair from every-host to a few hundred shared ones. *)
  mutable anchors : Bytes.t option;
  mutable route_recomputes : int;
  mutable route_cache_hits : int;
  mutable route_invalidations : int;
  mutable slots : 'msg slots option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable hops : int;
}

let default_handler ~time:_ ~src:_ _ = ()

let create ~engine ?trace ?(bandwidth = infinity) ?(loss_rate = 0.) ?(loss_seed = 0)
    graph =
  if bandwidth <= 0. then invalid_arg "Net.create: bandwidth must be positive";
  if loss_rate < 0. || loss_rate >= 1. then
    invalid_arg "Net.create: loss_rate outside [0, 1)";
  let n = Graph.node_count graph in
  let edges = Graph.edges graph in
  let edge_ends = Array.of_list (List.map (fun (u, v, _) -> (u, v)) edges) in
  let edge_weight = Array.of_list (List.map (fun (_, _, w) -> w) edges) in
  let edge_ids = Hashtbl.create (max 16 (2 * Array.length edge_ends)) in
  Array.iteri (fun i (u, v) -> Hashtbl.replace edge_ids ((u * n) + v) i) edge_ends;
  {
    graph;
    engine;
    trace;
    bandwidth;
    loss_rate;
    loss_rng = Dsim.Rng.create loss_seed;
    lost = 0;
    up = Array.make n true;
    n;
    edge_ends;
    edge_ids;
    edge_down = Bytes.make ((Array.length edge_ends + 7) / 8 |> max 1) '\000';
    edges_down = 0;
    adj = Shortest_path.compile graph;
    scratch = Shortest_path.scratch n;
    handlers = Array.make n default_handler;
    listeners = [];
    routes = Array.make n None;
    edge_weight;
    flip_log = [||];
    flip_len = 0;
    mark = Bytes.make (max 1 n) '\000';
    repair_heap = Dsim.Heap.Arena.create ~capacity:64 ~dummy:() ();
    touched = Array.make 64 0;
    ntouched = 0;
    anchors = None;
    route_recomputes = 0;
    route_cache_hits = 0;
    route_invalidations = 0;
    slots = None;
    sent = 0;
    delivered = 0;
    dropped = 0;
    hops = 0;
  }

let graph t = t.graph
let engine t = t.engine

let check_node t v =
  if not (Graph.mem_node t.graph v) then
    invalid_arg (Printf.sprintf "Net: unknown node %d" v)

let set_handler t v h =
  check_node t v;
  t.handlers.(v) <- h

let is_up t v =
  check_node t v;
  t.up.(v)

let notify t v status =
  let time = Dsim.Engine.now t.engine in
  (match t.trace with
  | Some tr ->
      Dsim.Trace.infof tr ~time ~category:"net"
        "node %s %s" (Graph.label t.graph v) (if status then "up" else "down")
  | None -> ());
  List.iter (fun f -> f ~time v status) t.listeners

let set_up t v =
  check_node t v;
  if not t.up.(v) then begin
    t.up.(v) <- true;
    notify t v true
  end

let set_down t v =
  check_node t v;
  if t.up.(v) then begin
    t.up.(v) <- false;
    notify t v false
  end

let on_status_change t f = t.listeners <- t.listeners @ [ f ]

(* --- Link outages.  Either endpoint orientation resolves to the same
   undirected edge id; the outage set itself is one bit per edge. --- *)

let check_link t u v =
  check_node t u;
  check_node t v;
  if Graph.weight t.graph u v = None then
    invalid_arg (Printf.sprintf "Net: nodes %d and %d are not adjacent" u v)

let edge_id t u v =
  let key = if u <= v then (u * t.n) + v else (v * t.n) + u in
  Hashtbl.find t.edge_ids key

let edge_is_down t e =
  Char.code (Bytes.unsafe_get t.edge_down (e lsr 3)) land (1 lsl (e land 7)) <> 0

let link_is_up t u v = not (edge_is_down t (edge_id t u v))

(* --- Route cache with lazy incremental repair.

   A cut of a tree edge does not discard the tree: it detaches exactly
   the subtree hanging below the cut edge and re-routes those nodes
   with a Dijkstra confined to the detached set, seeded from its
   boundary; a link restore runs the standard decrease-propagation
   from the restored edge.  Both repairs re-establish the canonical
   tree a fresh full Dijkstra computes — exact distances, and every
   node's predecessor is its smallest-id neighbour achieving that
   distance (the explicit tie-break in [Shortest_path]) — so repaired
   answers stay byte-identical (distances, predecessors, first hops)
   to recomputation against the current outage set; the oracle
   property test in test/oracle asserts exactly that after every flip.

   Repairs run lazily: a flip only appends to the flip log, and each
   tree reconciles the log suffix it has not seen on its next query
   ([catch_up] below).  Under a fault campaign most flips touch trees
   that are never consulted before the link comes back, and those now
   cost one cursor comparison instead of a subtree repair. --- *)

let log_flip t code =
  if t.flip_len = Array.length t.flip_log then begin
    let grown = Array.make (max 64 (2 * t.flip_len)) 0 in
    Array.blit t.flip_log 0 grown 0 t.flip_len;
    t.flip_log <- grown
  end;
  t.flip_log.(t.flip_len) <- code;
  t.flip_len <- t.flip_len + 1

let drop_route t src =
  match t.routes.(src) with
  | None -> ()
  | Some _ ->
      t.route_invalidations <- t.route_invalidations + 1;
      t.routes.(src) <- None

let invalidate_all t =
  Array.iteri (fun src _ -> drop_route t src) t.routes

(* --- The repair pass itself. --- *)

let touch t v c =
  Bytes.unsafe_set t.mark v c;
  if t.ntouched = Array.length t.touched then
    t.touched <- Array.append t.touched (Array.make t.ntouched 0);
  t.touched.(t.ntouched) <- v;
  t.ntouched <- t.ntouched + 1

let clear_marks t =
  for i = 0 to t.ntouched - 1 do
    Bytes.unsafe_set t.mark t.touched.(i) '\000'
  done;
  t.ntouched <- 0

(* Replace [v]'s tree edge with [e] ([-1] = no edge). *)
let reseat_via r v e = if r.via.(v) <> e then r.via.(v) <- e

(* After [x]'s first hop changed, walk its tree descendants (the
   adjacency is the child index: [w] is a child of [x] iff
   [prev.(w) = x]) refreshing theirs, pruning where the value is
   already right.  Transient values written over nodes still awaiting
   their own repair pop are overwritten when they settle. *)
let rec push_hops t r src x =
  let adj = t.adj in
  let prev = r.tree.Shortest_path.prev in
  for i = adj.Shortest_path.adj_index.(x) to adj.Shortest_path.adj_index.(x + 1) - 1 do
    let c = adj.Shortest_path.adj_dst.(i) in
    if prev.(c) = x then begin
      let nh = if x = src then c else r.next_hop.(x) in
      if r.next_hop.(c) <> nh then begin
        r.next_hop.(c) <- nh;
        push_hops t r src c
      end
    end
  done

(* A cut of tree edge [e]: detach the subtree below it, then re-route
   only the detached nodes.  Everything outside the detached set keeps
   its exact distance, predecessor and first hop (its root path avoids
   [e] by definition), so the confined Dijkstra — seeded by relaxing
   every up boundary edge into the set — rebuilds the canonical tree
   restricted to the detached nodes. *)
let repair_cut t src r e =
  t.route_invalidations <- t.route_invalidations + 1;
  let adj = t.adj in
  let dist = r.tree.Shortest_path.dist
  and prev = r.tree.Shortest_path.prev in
  let a, b = t.edge_ends.(e) in
  let child = if r.via.(b) = e then b else a in
  (* Collect the detached subtree ([touched] doubles as BFS queue). *)
  touch t child '\001';
  let head = ref (t.ntouched - 1) in
  while !head < t.ntouched do
    let v = t.touched.(!head) in
    incr head;
    for i = adj.Shortest_path.adj_index.(v) to adj.Shortest_path.adj_index.(v + 1) - 1 do
      let w = adj.Shortest_path.adj_dst.(i) in
      if prev.(w) = v then touch t w '\001'
    done
  done;
  let nS = t.ntouched in
  for i = 0 to nS - 1 do
    let v = t.touched.(i) in
    reseat_via r v (-1);
    dist.(v) <- infinity;
    prev.(v) <- -1;
    r.next_hop.(v) <- -1
  done;
  let q = t.repair_heap in
  let relax u v nd e' =
    if nd < dist.(v) || (nd = dist.(v) && u < prev.(v)) then begin
      dist.(v) <- nd;
      prev.(v) <- u;
      r.via.(v) <- e';
      ignore (Dsim.Heap.Arena.push q ~prio:nd ~tag:v ())
    end
  in
  (* Seed: every up edge from a node outside the set (exact distance)
     into it. *)
  for i = 0 to nS - 1 do
    let v = t.touched.(i) in
    for j = adj.Shortest_path.adj_index.(v) to adj.Shortest_path.adj_index.(v + 1) - 1 do
      let u = adj.Shortest_path.adj_dst.(j) in
      if
        Bytes.unsafe_get t.mark u = '\000'
        && Float.is_finite dist.(u)
        && not (edge_is_down t adj.Shortest_path.adj_edge.(j))
      then relax u v (dist.(u) +. adj.Shortest_path.adj_weight.(j)) adj.Shortest_path.adj_edge.(j)
    done
  done;
  (* Confined Dijkstra over the detached set. *)
  while not (Dsim.Heap.Arena.is_empty q) do
    let d = Dsim.Heap.Arena.top_prio q in
    let v = Dsim.Heap.Arena.top_tag q in
    Dsim.Heap.Arena.drop q;
    if Bytes.unsafe_get t.mark v = '\001' && d <= dist.(v) then begin
      Bytes.unsafe_set t.mark v '\002';
      (* [via] carried the winning edge through the relaxes; commit it
         to the dependency index now that it is final. *)
      let e' = r.via.(v) in
      r.via.(v) <- -1;
      reseat_via r v e';
      r.next_hop.(v) <- (if prev.(v) = src then v else r.next_hop.(prev.(v)));
      let dv = dist.(v) in
      for j = adj.Shortest_path.adj_index.(v) to adj.Shortest_path.adj_index.(v + 1) - 1 do
        let w = adj.Shortest_path.adj_dst.(j) in
        if
          Bytes.unsafe_get t.mark w = '\001'
          && not (edge_is_down t adj.Shortest_path.adj_edge.(j))
        then relax v w (dv +. adj.Shortest_path.adj_weight.(j)) adj.Shortest_path.adj_edge.(j)
      done
    end
  done;
  clear_marks t

(* A restore that can improve this tree: propagate the decreases (and
   equal-cost smaller-predecessor flips) out from the restored edge.
   A node's distance is final when it pops, so its canonical
   predecessor — the smallest-id up-neighbour achieving the distance —
   is recomputed by a local scan there, which is what keeps repaired
   predecessors identical to a fresh Dijkstra even for neighbours this
   propagation never re-relaxes. *)
let repair_restore t src r ru rv w =
  t.route_invalidations <- t.route_invalidations + 1;
  let adj = t.adj in
  let dist = r.tree.Shortest_path.dist
  and prev = r.tree.Shortest_path.prev in
  let q = t.repair_heap in
  let bump v =
    if Bytes.unsafe_get t.mark v = '\000' then touch t v '\001';
    ignore (Dsim.Heap.Arena.push q ~prio:dist.(v) ~tag:v ())
  in
  let seed u v =
    if Float.is_finite dist.(u) then begin
      let nd = dist.(u) +. w in
      if nd < dist.(v) then begin
        dist.(v) <- nd;
        bump v
      end
      else if nd = dist.(v) && prev.(v) >= 0 && u < prev.(v) then bump v
    end
  in
  seed ru rv;
  seed rv ru;
  while not (Dsim.Heap.Arena.is_empty q) do
    let d = Dsim.Heap.Arena.top_prio q in
    let x = Dsim.Heap.Arena.top_tag q in
    Dsim.Heap.Arena.drop q;
    if Bytes.unsafe_get t.mark x = '\001' && d <= dist.(x) then begin
      Bytes.unsafe_set t.mark x '\002';
      let dx = dist.(x) in
      (* Canonical predecessor scan. *)
      let best = ref max_int and best_e = ref (-1) in
      for j = adj.Shortest_path.adj_index.(x) to adj.Shortest_path.adj_index.(x + 1) - 1 do
        let u = adj.Shortest_path.adj_dst.(j) in
        if
          u < !best
          && dist.(u) +. adj.Shortest_path.adj_weight.(j) = dx
          && not (edge_is_down t adj.Shortest_path.adj_edge.(j))
        then begin
          best := u;
          best_e := adj.Shortest_path.adj_edge.(j)
        end
      done;
      prev.(x) <- (if !best = max_int then -1 else !best);
      reseat_via r x !best_e;
      let nh = if prev.(x) = src then x else if prev.(x) < 0 then -1 else r.next_hop.(prev.(x)) in
      if r.next_hop.(x) <> nh then begin
        r.next_hop.(x) <- nh;
        push_hops t r src x
      end;
      for j = adj.Shortest_path.adj_index.(x) to adj.Shortest_path.adj_index.(x + 1) - 1 do
        let y = adj.Shortest_path.adj_dst.(j) in
        if not (edge_is_down t adj.Shortest_path.adj_edge.(j)) then begin
          let nd = dx +. adj.Shortest_path.adj_weight.(j) in
          if nd < dist.(y) then begin
            dist.(y) <- nd;
            bump y
          end
          else if
            nd = dist.(y)
            && prev.(y) >= 0
            && x < prev.(y)
            && Bytes.unsafe_get t.mark y <> '\002'
          then bump y
        end
      done
    end
  done;
  clear_marks t

(* Can restoring edge (u, v) of weight [w] change this tree?  With the
   edge absent the cached distances are exact, so it matters only when
   it strictly shortens a path through either endpoint — or ties one
   while offering a smaller predecessor id, which would flip the
   deterministic tie-break a fresh Dijkstra applies. *)
let restored_edge_matters r u v w =
  let dist = r.tree.Shortest_path.dist and prev = r.tree.Shortest_path.prev in
  let du = dist.(u) and dv = dist.(v) in
  du +. w < dv
  || dv +. w < du
  || (du +. w = dv && prev.(v) >= 0 && u < prev.(v))
  || (dv +. w = du && prev.(u) >= 0 && v < prev.(u))

(* Does this (not yet caught up) flip touch the tree?  Checked in log
   order, so the tree is canonical for the outage set just before the
   flip: a cut matters only when the tree routes over the edge, a
   restore only when [restored_edge_matters]. *)
let flip_matters t r code =
  let e = code lsr 1 in
  let u, v = t.edge_ends.(e) in
  if code land 1 = 0 then r.via.(u) = e || r.via.(v) = e
  else restored_edge_matters r u v t.edge_weight.(e)

let set_edge_bit t e =
  Bytes.set t.edge_down (e lsr 3)
    (Char.chr (Char.code (Bytes.get t.edge_down (e lsr 3)) lor (1 lsl (e land 7))))

let clear_edge_bit t e =
  Bytes.set t.edge_down (e lsr 3)
    (Char.chr
       (Char.code (Bytes.get t.edge_down (e lsr 3)) land lnot (1 lsl (e land 7))))

(* Reconcile the log suffix this tree has not observed.  Every flip
   that cannot touch a canonical tree leaves it canonical for the next
   outage set too, so it just advances the cursor — the common case,
   and free.  Once a flip does matter, the remaining suffix is
   replayed exactly as the eager path would have run it: the log is
   its own undo record, so the outage bitmask is rewound to the
   tree's cursor state, then each flip re-applies its bit and repairs
   the tree if it touches it — byte-identical tree state to eager
   repair, with the bitmask restored to the present by the time the
   replay completes. *)
let catch_up t src r =
  while
    r.flip_cursor < t.flip_len && not (flip_matters t r t.flip_log.(r.flip_cursor))
  do
    r.flip_cursor <- r.flip_cursor + 1
  done;
  if r.flip_cursor < t.flip_len then begin
    for i = t.flip_len - 1 downto r.flip_cursor do
      let code = t.flip_log.(i) in
      let e = code lsr 1 in
      if code land 1 = 0 then clear_edge_bit t e else set_edge_bit t e
    done;
    while r.flip_cursor < t.flip_len do
      let code = t.flip_log.(r.flip_cursor) in
      let e = code lsr 1 in
      if code land 1 = 0 then begin
        set_edge_bit t e;
        if flip_matters t r code then repair_cut t src r e
      end
      else begin
        clear_edge_bit t e;
        if flip_matters t r code then
          let u, v = t.edge_ends.(e) in
          repair_restore t src r u v t.edge_weight.(e)
      end;
      r.flip_cursor <- r.flip_cursor + 1
    done
  end

let route t src =
  check_node t src;
  (match t.routes.(src) with
  | Some r when r.flip_cursor < t.flip_len -> catch_up t src r
  | Some _ | None -> ());
  match t.routes.(src) with
  | Some r ->
      t.route_cache_hits <- t.route_cache_hits + 1;
      r
  | None ->
      t.route_recomputes <- t.route_recomputes + 1;
      let tree, via =
        if t.edges_down = 0 then Shortest_path.dijkstra_flat ~adj:t.adj t.scratch src
        else
          Shortest_path.dijkstra_flat ~adj:t.adj ~edge_down:t.edge_down t.scratch
            src
      in
      let r =
        {
          tree;
          next_hop = Shortest_path.first_hops tree;
          via;
          flip_cursor = t.flip_len;
        }
      in
      t.routes.(src) <- Some r;
      r

let tree t src = (route t src).tree

let is_anchor t v =
  match t.anchors with
  | None -> true
  | Some b -> Char.code (Bytes.get b (v lsr 3)) land (1 lsl (v land 7)) <> 0

let set_route_anchors t nodes =
  let b = Bytes.make (max 1 ((t.n + 7) / 8)) '\000' in
  List.iter
    (fun v ->
      check_node t v;
      Bytes.set b (v lsr 3)
        (Char.chr (Char.code (Bytes.get b (v lsr 3)) lor (1 lsl (v land 7)))))
    nodes;
  invalidate_all t;
  t.anchors <- Some b

(* The endpoint whose tree answers a (src, dst) query.  Prefer an
   anchor so leaf endpoints never warm a tree of their own; a query
   between two non-anchors falls back to the source's tree. *)
let route_owner t src dst =
  if is_anchor t src then src else if is_anchor t dst then dst else src

let route_recomputes t = t.route_recomputes
let route_cache_hits t = t.route_cache_hits
let route_invalidations t = t.route_invalidations

let notify_link t u v status =
  match t.trace with
  | Some tr ->
      Dsim.Trace.infof tr ~time:(Dsim.Engine.now t.engine) ~category:"net"
        "link %s-%s %s" (Graph.label t.graph u) (Graph.label t.graph v)
        (if status then "up" else "down")
  | None -> ()

let set_link_down t u v =
  check_link t u v;
  let e = edge_id t u v in
  if not (edge_is_down t e) then begin
    Bytes.set t.edge_down (e lsr 3)
      (Char.chr (Char.code (Bytes.get t.edge_down (e lsr 3)) lor (1 lsl (e land 7))));
    t.edges_down <- t.edges_down + 1;
    log_flip t (e lsl 1);
    notify_link t u v false
  end

let set_link_up t u v =
  check_link t u v;
  let e = edge_id t u v in
  if edge_is_down t e then begin
    Bytes.set t.edge_down (e lsr 3)
      (Char.chr
         (Char.code (Bytes.get t.edge_down (e lsr 3)) land lnot (1 lsl (e land 7))));
    t.edges_down <- t.edges_down - 1;
    log_flip t ((e lsl 1) lor 1);
    notify_link t u v true
  end

let links_down t =
  (* Edge ids follow the sorted [Graph.edges] order, so ascending ids
     already yield the sorted endpoint list. *)
  let acc = ref [] in
  for e = Array.length t.edge_ends - 1 downto 0 do
    if edge_is_down t e then acc := t.edge_ends.(e) :: !acc
  done;
  !acc

let distance t u v =
  check_node t u;
  check_node t v;
  let owner = route_owner t u v in
  Shortest_path.distance (tree t owner) (if owner = u then v else u)

let hops t u v =
  check_node t u;
  check_node t v;
  let owner = route_owner t u v in
  let leaf = if owner = u then v else u in
  match Shortest_path.hop_count (tree t owner) leaf with
  | Some h -> h
  | None -> -1

let first_hop t ~src ~dst =
  check_node t src;
  check_node t dst;
  if src = dst then None
  else if is_anchor t src || not (is_anchor t dst) then
    let r = route t src in
    match r.next_hop.(dst) with -1 -> None | hop -> Some hop
  else
    (* Read the hop off the anchored destination's tree: the first
       step from [src] toward [dst] is [src]'s own predecessor. *)
    let r = route t dst in
    if not (Float.is_finite r.tree.Shortest_path.dist.(src)) then None
    else match r.tree.Shortest_path.prev.(src) with -1 -> None | p -> Some p

let fire_slot t i =
  let sl = match t.slots with Some sl -> sl | None -> assert false in
  let src = sl.s_src.(i)
  and dst = sl.s_dst.(i)
  and hop_count = sl.s_hops.(i)
  and msg = sl.s_msg.(i) in
  (* Release before running the handler: the handler may send again
     and immediately reuse this slot. *)
  sl.s_free.(sl.s_free_top) <- i;
  sl.s_free_top <- sl.s_free_top + 1;
  if t.up.(dst) then begin
    t.delivered <- t.delivered + 1;
    t.hops <- t.hops + hop_count;
    t.handlers.(dst) ~time:(Dsim.Engine.now t.engine) ~src msg
  end
  else t.dropped <- t.dropped + 1

let grow_slots t sl filler =
  let old = Array.length sl.s_src in
  let extend a fill = Array.append a (Array.make old fill) in
  sl.s_src <- extend sl.s_src 0;
  sl.s_dst <- extend sl.s_dst 0;
  sl.s_hops <- extend sl.s_hops 0;
  sl.s_msg <- extend sl.s_msg filler;
  sl.s_fire <- Array.append sl.s_fire (Array.init old (fun k -> let i = old + k in fun () -> fire_slot t i));
  sl.s_free <- extend sl.s_free 0;
  for k = 0 to old - 1 do
    sl.s_free.(sl.s_free_top) <- old + k;
    sl.s_free_top <- sl.s_free_top + 1
  done

let schedule_delivery t ~src ~dst ~hop_count ~latency msg =
  let sl =
    match t.slots with
    | Some sl -> sl
    | None ->
        let cap = 64 in
        let sl =
          {
            s_src = Array.make cap 0;
            s_dst = Array.make cap 0;
            s_hops = Array.make cap 0;
            s_msg = Array.make cap msg;
            s_fire = Array.init cap (fun i () -> fire_slot t i);
            s_free = Array.init cap (fun i -> i);
            s_free_top = cap;
          }
        in
        t.slots <- Some sl;
        sl
  in
  if sl.s_free_top = 0 then grow_slots t sl msg;
  sl.s_free_top <- sl.s_free_top - 1;
  let i = sl.s_free.(sl.s_free_top) in
  sl.s_src.(i) <- src;
  sl.s_dst.(i) <- dst;
  sl.s_hops.(i) <- hop_count;
  sl.s_msg.(i) <- msg;
  ignore (Dsim.Engine.schedule_after t.engine latency sl.s_fire.(i))

(* Per-hop serialisation delay for a [bytes]-sized payload. *)
let serialisation t bytes =
  if bytes <= 0 || t.bandwidth = infinity then 0.
  else float_of_int bytes /. t.bandwidth

(* Random in-flight loss, decided at send time for determinism. *)
let vanishes t = t.loss_rate > 0. && Dsim.Rng.bernoulli t.loss_rng t.loss_rate

(* Like {!send}, but a successful transmission also reports the
   scheduled arrival latency — the deterministic upper bound on how
   long the message can still be in flight.  [None] means the send was
   refused (source down, destination unreachable, relay down).  A
   message lost to random in-flight loss still reports its would-be
   latency: the caller gets a conservative fence either way. *)
let send_raw ~bytes t ~src ~dst msg =
  check_node t src;
  check_node t dst;
  if not t.up.(src) then begin
    t.dropped <- t.dropped + 1;
    Float.nan
  end
  else begin
    let owner = route_owner t src dst in
    let leaf = if owner = src then dst else src in
    let r = route t owner in
    let dist = r.tree.Shortest_path.dist in
    if not (Float.is_finite dist.(leaf)) then begin
      t.dropped <- t.dropped + 1;
      Float.nan
    end
    else begin
      (* One walk up the predecessor chain counts the hops and checks
         that every intermediate relay is up right now — no path list,
         no filter/exists/length traversals.  The chain is read from
         the owning endpoint's tree; hop count and interior relays are
         the same in either orientation of the undirected path. *)
      let prev = r.tree.Shortest_path.prev in
      let rec walk v hop_count relays_up =
        if v = owner then (hop_count, relays_up)
        else
          let p = prev.(v) in
          walk p (hop_count + 1) (relays_up && (p = owner || t.up.(p)))
      in
      let hop_count, relays_up = if dst = src then (0, true) else walk leaf 0 true in
      if not relays_up then begin
        t.dropped <- t.dropped + 1;
        Float.nan
      end
      else begin
        t.sent <- t.sent + 1;
        let latency =
          dist.(leaf) +. (float_of_int hop_count *. serialisation t bytes)
        in
        if vanishes t then t.lost <- t.lost + 1
        else schedule_delivery t ~src ~dst ~hop_count ~latency msg;
        latency
      end
    end
  end

let send_timed ?(bytes = 0) t ~src ~dst msg =
  let latency = send_raw ~bytes t ~src ~dst msg in
  if Float.is_nan latency then None else Some latency

let send ?(bytes = 0) t ~src ~dst msg =
  not (Float.is_nan (send_raw ~bytes t ~src ~dst msg))

let send_neighbor ?(bytes = 0) t ~src ~dst msg =
  check_node t src;
  check_node t dst;
  match Graph.weight t.graph src dst with
  | None -> invalid_arg "Net.send_neighbor: nodes are not adjacent"
  | Some w ->
      if (not t.up.(src)) || not (link_is_up t src dst) then begin
        t.dropped <- t.dropped + 1;
        false
      end
      else begin
        t.sent <- t.sent + 1;
        if vanishes t then begin
          t.lost <- t.lost + 1;
          true
        end
        else begin
          schedule_delivery t ~src ~dst ~hop_count:1
            ~latency:(w +. serialisation t bytes)
            msg;
          true
        end
      end

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let messages_lost t = t.lost
let hops_traversed t = t.hops

let reset_counters t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  t.hops <- 0;
  t.lost <- 0
