type 'msg handler = time:float -> src:Graph.node -> 'msg -> unit

(* A second state of a route, saved around its last large cut pass
   (see [rewind]). *)
type undo = {
  u_dist : float array;
  u_prev : int array;
  u_via : int array;
  mutable u_cursor : int;
  mutable u_ghosts : int array;
  mutable u_nghosts : int;
  mutable u_key : int;
      (* flip-log id of the ghost the pass cut; -1 once outdated *)
  mutable u_up : bool;
      (* whether this state is the one for [u_key] up (from before the
         cut) or down (from after it) *)
}

(* One cached routing state per source: the Dijkstra tree and the
   tree edge reaching each node (see the route-cache section). *)
type route = {
  tree : Shortest_path.tree;
  via : int array;
      (* per-node id of the tree edge reaching it (-1 for the source
         and unreachable nodes) *)
  mutable flip_cursor : int;
      (* the tree is canonical for the links and relays up after the
         first [flip_cursor] log entries plus its ghosts; the suffix is
         pending *)
  mutable ghosts : int array;
  mutable nghosts : int;
      (* the first [nghosts] entries: flip-log ids of the ghosts (down
         tree edges, down relays with tree children) the last repair
         pass kept *)
  mutable undo : undo option;
  mutable kinds : int;
      (* which ghosts the tree may have — bit 0 a down tree edge, bit 1
         a down relay — from its kept ghosts and the cuts scanned so
         far; a path walk checks only those *)
  mutable scan : int;  (* pending entries folded into [restore_bound] *)
  mutable restore_bound : float;
      (* min over the pending link and node restores that could
         shorten or re-tie-break the stale tree of the distance of a
         path through them ([path_current]) *)
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
  ghost : Bytes.t;  (* per repair pass: the down tree edges it keeps *)
  ghost_node : Bytes.t;  (* per repair pass: the down relays it keeps *)
  mutable kept : int array;  (* per repair pass: flip-log ids of its ghosts *)
  mutable nkept : int;
  (* [Some edge_down] and [Some up], built once so a tree build passes
     them without allocating. *)
  edge_down_arg : Bytes.t option;
  up_arg : bool array option;
  adj : Shortest_path.adjacency;
  scratch : Shortest_path.scratch;
  handlers : 'msg handler array;
  mutable listeners : (time:float -> Graph.node -> bool -> unit) list;
  routes : route option array;  (* Dijkstra cache per source *)
  (* Flip log: every link or node flip appends one entry ([id * 2],
     low bit 1 = restore; edge ids first, then node [v] as
     [edge count + v]); each cached tree keeps a cursor into it. *)
  edge_weight : float array;  (* id -> link weight *)
  mutable flip_log : int array;
  mutable flip_len : int;
  (* Repair workspace, shared by every tree: per-node mark bytes
     (0 untouched / 1 detached or queued / 2 settled), the repair heap,
     and the list of marked nodes to clear afterwards. *)
  mark : Bytes.t;
  mutable heap_prio : float array;
  mutable heap_node : int array;
  mutable heap_len : int;
  touched : int array;
  mutable ntouched : int;
  (* The distance, predecessor and tree edge each touched node had
     before the pass ([save_undo]). *)
  old_dist : float array;
  old_prev : int array;
  old_via : int array;
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
  mutable route_repair_nodes : int;
  mutable slots : 'msg slots option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable hops : int;
}

let default_handler ~time:_ ~src:_ _ = ()

let create ~engine ?(bandwidth = infinity) ?(loss_rate = 0.) ?(loss_seed = 0)
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
  let up = Array.make n true in
  let edge_down = Bytes.make ((Array.length edge_ends + 7) / 8 |> max 1) '\000' in
  {
    graph;
    engine;
    bandwidth;
    loss_rate;
    loss_rng = Dsim.Rng.create loss_seed;
    lost = 0;
    up;
    n;
    edge_ends;
    edge_ids;
    edge_down;
    ghost = Bytes.make ((Array.length edge_ends + 7) / 8 |> max 1) '\000';
    ghost_node = Bytes.make ((n + 7) / 8 |> max 1) '\000';
    kept = Array.make (Array.length edge_ends + n) 0;
    nkept = 0;
    edge_down_arg = Some edge_down;
    up_arg = Some up;
    adj = Shortest_path.compile graph;
    scratch = Shortest_path.scratch n;
    handlers = Array.make n default_handler;
    listeners = [];
    routes = Array.make n None;
    edge_weight;
    flip_log = [||];
    flip_len = 0;
    mark = Bytes.make (max 1 n) '\000';
    heap_prio = Array.make 64 0.;
    heap_node = Array.make 64 0;
    heap_len = 0;
    touched = Array.make (max 1 n) 0;
    ntouched = 0;
    old_dist = Array.make (max 1 n) 0.;
    old_prev = Array.make (max 1 n) 0;
    old_via = Array.make (max 1 n) 0;
    anchors = None;
    route_recomputes = 0;
    route_cache_hits = 0;
    route_invalidations = 0;
    route_repair_nodes = 0;
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
  List.iter (fun f -> f ~time v status) t.listeners

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

let bit b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit b i =
  Bytes.set b (i lsr 3) (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let clear_bit b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) land lnot (1 lsl (i land 7))))

let edge_is_down t e = bit t.edge_down e

let link_is_up t u v = not (edge_is_down t (edge_id t u v))

(* --- Route cache: stale trees, path-scoped checks, batched repair.

   Routing follows the transit rule: a path uses links that are up and
   continues only through nodes that are up.  A down node is never a
   relay, but it can still be reached, as a destination, and it can be
   the root of a tree (a send to a down node is accepted and dropped on
   arrival).

   A link or node flip only appends to the flip log.  Each cached tree
   is canonical (exact distances; every node's predecessor is its
   smallest-id relaying neighbour achieving its distance, the tie-break
   [Shortest_path] applies) for the links and relays up at its cursor
   plus its own tree structure: a tree edge that is down and a down
   node with tree children are ghosts, which stay in the tree until a
   repair pass detaches the subtree below them.  Whole-tree readers
   ([tree], [distance], [hops], [first_hop]) run a full pass first.  A
   routed send reads a single root path, so it repairs only when a
   pending flip can change that path ([path_current]), and then only
   the restores and the ghosts on that path ([repair_path]).  Under a
   fault campaign most sends pay for no repair at all.  Either way the
   answers are those of a fresh Dijkstra over the current links and
   relays; test/oracle asserts it for trees and for sends. --- *)

let log_flip t code =
  if t.flip_len = Array.length t.flip_log then begin
    let grown = Array.make (max 64 (2 * t.flip_len)) 0 in
    Array.blit t.flip_log 0 grown 0 t.flip_len;
    t.flip_log <- grown
  end;
  t.flip_log.(t.flip_len) <- code;
  t.flip_len <- t.flip_len + 1

(* The flip-log id of node [v]: after every edge id. *)
let node_code t v = Array.length t.edge_ends + v

(* The [kinds] bit of a ghost with flip-log id [id]. *)
let kind t id = if id < Array.length t.edge_ends then 1 else 2

(* [kinds] of a ghost list. *)
let list_kinds t ghosts n =
  let k = ref 0 in
  for i = 0 to n - 1 do
    k := !k lor kind t ghosts.(i)
  done;
  !k

let set_up t v =
  check_node t v;
  if not t.up.(v) then begin
    t.up.(v) <- true;
    log_flip t ((node_code t v lsl 1) lor 1);
    notify t v true
  end

let set_down t v =
  check_node t v;
  if t.up.(v) then begin
    t.up.(v) <- false;
    log_flip t (node_code t v lsl 1);
    notify t v false
  end

let drop_route t src =
  match t.routes.(src) with
  | None -> ()
  | Some _ ->
      t.route_invalidations <- t.route_invalidations + 1;
      t.routes.(src) <- None

let invalidate_all t =
  Array.iteri (fun src _ -> drop_route t src) t.routes

(* The repair queue is a binary min-heap of (distance, node) in two
   flat arrays, pushed by [relax]: no boxed priorities, no payloads.
   Settle order among equal distances does not matter. *)
let heap_pop t =
  let top = t.heap_node.(0) and n = t.heap_len - 1 in
  t.heap_len <- n;
  let prio = t.heap_prio.(n) and i = ref 0 and c = ref 1 in
  while !c < n do
    if !c + 1 < n && t.heap_prio.(!c + 1) < t.heap_prio.(!c) then incr c;
    if t.heap_prio.(!c) < prio then begin
      t.heap_prio.(!i) <- t.heap_prio.(!c);
      t.heap_node.(!i) <- t.heap_node.(!c);
      i := !c;
      c := (2 * !c) + 1
    end
    else c := n
  done;
  t.heap_prio.(!i) <- prio;
  t.heap_node.(!i) <- t.heap_node.(n);
  top

(* A pass touches a node at most once, so [touched] never overflows.
   Called before the pass changes anything of [v]'s, so the old values
   it saves are the ones the tree had before the pass. *)
let touch t r v c =
  Bytes.unsafe_set t.mark v c;
  let k = t.ntouched in
  t.touched.(k) <- v;
  t.old_dist.(k) <- r.tree.Shortest_path.dist.(v);
  t.old_prev.(k) <- r.tree.Shortest_path.prev.(v);
  t.old_via.(k) <- r.via.(v);
  t.ntouched <- k + 1

let clear_marks t =
  for i = 0 to t.ntouched - 1 do
    Bytes.unsafe_set t.mark t.touched.(i) '\000'
  done;
  t.ntouched <- 0

(* Edges a repair pass may use: the links up now and the ghosts it
   keeps. *)
let usable t e = (not (edge_is_down t e)) || bit t.ghost e

(* Nodes a repair pass may continue a path through: the root, the
   nodes up now and the down relays it keeps. *)
let relays t root x = x = root || t.up.(x) || bit t.ghost_node x

(* Queue [y] at its distance [dist.(y)], which the caller has just
   lowered.  (Reads the distance rather than taking it: a float
   crossing a call would be boxed.) *)
let push t dist y =
  if t.heap_len = Array.length t.heap_node then begin
    t.heap_prio <- Array.append t.heap_prio t.heap_prio;
    t.heap_node <- Array.append t.heap_node t.heap_node
  end;
  let nd = dist.(y) and i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  while !i > 0 && nd < t.heap_prio.((!i - 1) / 2) do
    t.heap_prio.(!i) <- t.heap_prio.((!i - 1) / 2);
    t.heap_node.(!i) <- t.heap_node.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  t.heap_prio.(!i) <- nd;
  t.heap_node.(!i) <- y

(* Lower [y]'s distance through [x] over usable edge [e] and queue it;
   the caller checks that [x] relays.  An untouched [y] whose distance
   ties through a smaller id than its predecessor is queued too:
   settling it re-picks its canonical predecessor.  (Takes the edge id,
   not its weight, for the same reason as [push].) *)
let relax t r x y e =
  let dist = r.tree.Shortest_path.dist in
  let m = Bytes.unsafe_get t.mark y in
  if m <> '\002' then begin
    let nd = dist.(x) +. t.edge_weight.(e) in
    if nd < dist.(y) || (nd = dist.(y) && m = '\000' && x < r.tree.Shortest_path.prev.(y))
    then begin
      if m = '\000' then touch t r y '\001';
      dist.(y) <- nd;
      push t dist y
    end
  end

(* Detach the subtree below [child], whose tree edge or own relay is
   down: its nodes lose distance, predecessor and tree edge.  [touched] doubles
   as the BFS queue; a child [w] of [v] is a neighbour with
   [prev.(w) = v]. *)
let detach t r child =
  let adj = t.adj and tr = r.tree in
  let head = ref t.ntouched in
  touch t r child '\001';
  while !head < t.ntouched do
    let v = t.touched.(!head) in
    incr head;
    for i = adj.Shortest_path.adj_index.(v) to adj.Shortest_path.adj_index.(v + 1) - 1 do
      let w = adj.Shortest_path.adj_dst.(i) in
      if tr.Shortest_path.prev.(w) = v then touch t r w '\001'
    done;
    tr.Shortest_path.dist.(v) <- infinity;
    tr.Shortest_path.prev.(v) <- -1;
    r.via.(v) <- -1
  done

(* Whether [p] is the predecessor of some node in [r]'s tree. *)
let has_children t r p =
  let adj = t.adj and prev = r.tree.Shortest_path.prev in
  let j = ref adj.Shortest_path.adj_index.(p) and found = ref false in
  while (not !found) && !j < adj.Shortest_path.adj_index.(p + 1) do
    if prev.(adj.Shortest_path.adj_dst.(!j)) = p then found := true;
    incr j
  done;
  !found

(* The child end of [r]'s tree edge [e], or [-1] if [e] is no tree
   edge. *)
let tree_child t r e =
  let a, b = t.edge_ends.(e) in
  if r.via.(a) = e then a else if r.via.(b) = e then b else -1

(* Look at the link or node with flip-log id [id] at the start of a
   pass.  If it is a ghost — a down tree edge, or a down node other
   than the root with tree children — a full pass ([full]) detaches the
   subtrees below it, and any other pass keeps it (marks it usable and
   lists it in [kept]) unless it is the ghost cut at [child]. *)
let visit_ghost t r full child id =
  let edges = Array.length t.edge_ends in
  if id < edges then begin
    if edge_is_down t id && not (bit t.ghost id) then begin
      let v = tree_child t r id in
      if v >= 0 then
        if full then detach t r v
        else if v <> child then begin
          set_bit t.ghost id;
          t.kept.(t.nkept) <- id;
          t.nkept <- t.nkept + 1
        end
    end
  end
  else begin
    let p = id - edges in
    if p <> r.tree.Shortest_path.source && (not t.up.(p)) && not (bit t.ghost_node p)
    then
      if full then begin
        let adj = t.adj in
        for j = adj.Shortest_path.adj_index.(p) to adj.Shortest_path.adj_index.(p + 1) - 1 do
          let y = adj.Shortest_path.adj_dst.(j) in
          if r.tree.Shortest_path.prev.(y) = p then detach t r y
        done
      end
      else if p <> child && has_children t r p then begin
        set_bit t.ghost_node p;
        t.kept.(t.nkept) <- id;
        t.nkept <- t.nkept + 1
      end
  end

(* Whether the link or node with flip-log id [id] is up now. *)
let entity_up t id =
  let edges = Array.length t.edge_ends in
  if id < edges then not (edge_is_down t id) else t.up.(id - edges)

(* Save [r]'s state from before the pass now ending — the arrays with
   every touched node's old values put back, the cursor and the kept
   ghosts, which the pass has not yet replaced — as the state to rewind
   to once the ghost [key] it cut is up again ([rewind]). *)
let save_undo t r key =
  let n = t.n and tr = r.tree in
  let u =
    match r.undo with
    | Some u -> u
    | None ->
        let u =
          { u_dist = Array.make n 0.; u_prev = Array.make n 0; u_via = Array.make n 0;
            u_cursor = 0; u_ghosts = [||]; u_nghosts = 0; u_key = -1; u_up = true }
        in
        r.undo <- Some u;
        u
  in
  (* A loop, not [Array.blit]: blitting into an int array on the major
     heap goes through the write barrier element by element. *)
  for v = 0 to n - 1 do
    u.u_dist.(v) <- tr.Shortest_path.dist.(v);
    u.u_prev.(v) <- tr.Shortest_path.prev.(v);
    u.u_via.(v) <- r.via.(v)
  done;
  for k = 0 to t.ntouched - 1 do
    let v = t.touched.(k) in
    u.u_dist.(v) <- t.old_dist.(k);
    u.u_prev.(v) <- t.old_prev.(k);
    u.u_via.(v) <- t.old_via.(k)
  done;
  u.u_cursor <- r.flip_cursor;
  if Array.length u.u_ghosts < r.nghosts then u.u_ghosts <- Array.make (2 * r.nghosts) 0;
  Array.blit r.ghosts 0 u.u_ghosts 0 r.nghosts;
  u.u_nghosts <- r.nghosts;
  u.u_key <- key;
  u.u_up <- true

(* Settle the pending flips in one pass — the batch-update view of
   dynamic shortest paths (Ramalingam & Reps, J. Algorithms 1996).

   Ghosts need no tree scan: a non-tree edge going down, or a node with
   no tree children going down, leaves a canonical tree canonical, so
   every ghost is one the last pass kept or a cut logged since the
   cursor ([visit_ghost]).  A full pass ([full]) detaches the union of
   the subtrees below every ghost (for a down relay, the subtrees of
   its children; the relay itself stays, reached but relaying
   nothing); otherwise a pass detaches the subtree rooted at [child]
   (none if [-1]), whose tree edge or own relay is the ghost being cut,
   and keeps the other ghosts as usable edges and relays.  Detached
   nodes start at infinity; every other node keeps its root path, which
   is usable, so its distance is an upper bound.  Each detached node is
   seeded once, at its least distance over the usable edges from
   relays outside the detached set; every link and node up now with a
   restore logged since the cursor seeds too (one the tree was already
   canonical over seeds nothing).  One Dijkstra then settles the
   queued nodes in distance order.  At each settle a single scan over
   the adjacency picks the canonical predecessor — the smallest-id
   usable relaying neighbour [u] with [dist u + w = dist x], whose
   distance is final because it is smaller — and, if [x] relays,
   relaxes the other neighbours.  A node is queued when its distance
   drops or when a smaller-id neighbour starts to tie, the only ways
   its answer can change outside the detached set.  The result is
   canonical for the links and relays up now plus the ghosts kept; a
   kept ghost the new tree no longer uses is a down non-tree edge or a
   down node with no tree children, which a canonical tree ignores, so
   only the ones still in use stay listed. *)
let catch_up t r full child =
  let adj = t.adj and tr = r.tree in
  let dist = tr.Shortest_path.dist and prev = tr.Shortest_path.prev in
  let root = tr.Shortest_path.source in
  let edges = Array.length t.edge_ends in
  let key =
    if child < 0 then -1
    else if edge_is_down t r.via.(child) then r.via.(child)
    else node_code t child
  in
  t.nkept <- 0;
  for i = 0 to r.nghosts - 1 do
    visit_ghost t r full child r.ghosts.(i)
  done;
  for i = r.flip_cursor to t.flip_len - 1 do
    let code = t.flip_log.(i) in
    if code land 1 = 0 then visit_ghost t r full child (code lsr 1)
  done;
  if child >= 0 then detach t r child;
  for i = 0 to t.ntouched - 1 do
    let v = t.touched.(i) in
    for j = adj.Shortest_path.adj_index.(v) to adj.Shortest_path.adj_index.(v + 1) - 1 do
      let u = adj.Shortest_path.adj_dst.(j) in
      if
        Bytes.unsafe_get t.mark u = '\000'
        && usable t adj.Shortest_path.adj_edge.(j)
        && relays t root u
      then begin
        let nd = dist.(u) +. adj.Shortest_path.adj_weight.(j) in
        if nd < dist.(v) then dist.(v) <- nd
      end
    done;
    if dist.(v) < infinity then push t dist v
  done;
  for i = r.flip_cursor to t.flip_len - 1 do
    let code = t.flip_log.(i) in
    if code land 1 = 1 then begin
      let id = code lsr 1 in
      if id < edges then begin
        if not (edge_is_down t id) then begin
          let a, b = t.edge_ends.(id) in
          if relays t root a then relax t r a b id;
          if relays t root b then relax t r b a id
        end
      end
      else begin
        let p = id - edges in
        if p <> root && t.up.(p) then
          for j = adj.Shortest_path.adj_index.(p) to adj.Shortest_path.adj_index.(p + 1) - 1 do
            let e = adj.Shortest_path.adj_edge.(j) in
            if usable t e then relax t r p adj.Shortest_path.adj_dst.(j) e
          done
      end
    end
  done;
  let settled = ref 0 in
  while t.heap_len > 0 do
    let x = heap_pop t in
    if Bytes.unsafe_get t.mark x = '\001' then begin
      Bytes.unsafe_set t.mark x '\002';
      incr settled;
      let dx = dist.(x) and relay_x = relays t root x in
      let best = ref max_int and best_e = ref (-1) in
      for j = adj.Shortest_path.adj_index.(x) to adj.Shortest_path.adj_index.(x + 1) - 1 do
        let e = Array.unsafe_get adj.Shortest_path.adj_edge j in
        if usable t e then begin
          let y = Array.unsafe_get adj.Shortest_path.adj_dst j in
          let w = Array.unsafe_get adj.Shortest_path.adj_weight j in
          let dy = Array.unsafe_get dist y in
          if dy +. w = dx && relays t root y then begin
            if y < !best then begin
              best := y;
              best_e := e
            end
          end
          else if relay_x then begin
            (* [relax] inlined with the weight at hand: the repair's
               innermost loop (about 3% per send on the d1-faults Net
               replay, 6 of 6 pairs). *)
            let m = Bytes.unsafe_get t.mark y and nd = dx +. w in
            if m <> '\002' && (nd < dy || (nd = dy && m = '\000' && x < prev.(y))) then begin
              if m = '\000' then touch t r y '\001';
              dist.(y) <- nd;
              push t dist y
            end
          end
        end
      done;
      prev.(x) <- (if !best = max_int then -1 else !best);
      r.via.(x) <- !best_e
    end
  done;
  (* A large pass — one that touches an eighth of the nodes — is worth
     undoing: a cut pass saves the state it started from, any other
     large pass outdates the saved state (rewinding to it would redo
     the pass). *)
  if t.ntouched * 8 >= t.n then begin
    if child >= 0 then save_undo t r key
    else match r.undo with Some u -> u.u_key <- -1 | None -> ()
  end;
  clear_marks t;
  let still = ref 0 in
  for i = 0 to t.nkept - 1 do
    let id = t.kept.(i) in
    let used =
      if id < edges then begin
        clear_bit t.ghost id;
        tree_child t r id >= 0
      end
      else begin
        clear_bit t.ghost_node (id - edges);
        has_children t r (id - edges)
      end
    in
    if used then begin
      t.kept.(!still) <- id;
      incr still
    end
  done;
  if Array.length r.ghosts < !still then r.ghosts <- Array.make (2 * !still) 0;
  Array.blit t.kept 0 r.ghosts 0 !still;
  r.nghosts <- !still;
  r.kinds <- list_kinds t r.ghosts !still;
  if !settled > 0 then t.route_invalidations <- t.route_invalidations + 1;
  t.route_repair_nodes <- t.route_repair_nodes + !settled;
  r.flip_cursor <- t.flip_len;
  r.scan <- t.flip_len;
  r.restore_bound <- infinity

(* The hop count of [leaf]'s tree path if it is up now — every edge on
   it, and every node strictly between the root and the leaf — else
   [-1].  Only the kinds of ghost the tree may have are checked.  Call
   with [v = leaf] and [hops = 0]. *)
let rec path_hops t r root leaf v hops =
  if v = root then hops
  else if
    (r.kinds land 1 <> 0 && edge_is_down t r.via.(v))
    || (r.kinds land 2 <> 0 && v <> leaf && not t.up.(v))
  then -1
  else path_hops t r root leaf r.tree.Shortest_path.prev.(v) (hops + 1)

(* Can the stale tree still answer a send to [leaf]?  Yes — and the
   answer is the path's hop count, else [-1] — when (a) [leaf]'s
   cached path is up ([path_hops]) and (b)
   [dist leaf < restore_bound], the bound folded here over the pending
   restores on the stale distances [D]:
   - a link [(a, b, w)] counts as [min (D a) (D b) + w], unless it is a
     tree edge or has [D a + w > D b] and [D b + w > D a] (it neither
     shortens nor ties anything);
   - a node [v] other than the root, up now, counts as [D v + w] over
     each up edge [(v, y, w)] with [D v + w <= D y], unless [v] has
     tree children (it relayed for the tree all along).

   Why this is exact.  Call the nodes a path may continue through
   relays: the root and the nodes up.  The tree is canonical for the
   links and relays up at its cursor plus its ghosts, so [D] is a
   feasible potential ([D y <= D x + w] over every usable edge out of
   a relay [x]) over those.  A cut only removes edges or relays, and
   the skipped restores keep it feasible; so it holds over every link
   up now out of every relay now, except the edges out of the counted
   restores.  Any current path using a counted edge first reaches the
   relay it leaves over feasible edges, so it is at least
   [D x + w >= bound] long (float addition is monotone).  Any other
   path to [v] is at least [D v] long.  The leaf's cached path is up by
   (a) and shorter than the bound by (b), so every node [v] on it keeps
   [d' v = D v].  Its fresh predecessor is the smallest-id relay [u]
   with [d' u + w = D v] over an up edge: such a [u] is nearer than the
   bound, so [d' u >= D u]; its edge to [v] is no counted restore (or
   [D v] would reach the bound), so feasibility forces
   [D u + w = D v] — a skipped restore cannot tie, so [u] was a relay
   and a candidate in the stale tree too — while the stale predecessor
   still relays with [d' = D].  So the path, its latency, its hop count
   and its relays are exactly those of a fresh Dijkstra. *)
let path_current t r root leaf =
  let adj = t.adj and tr = r.tree in
  let dist = tr.Shortest_path.dist and prev = tr.Shortest_path.prev in
  let edges = Array.length t.edge_ends in
  for i = r.scan to t.flip_len - 1 do
    let code = t.flip_log.(i) in
    if code land 1 = 0 then r.kinds <- r.kinds lor kind t (code lsr 1)
    else begin
      let id = code lsr 1 in
      if id < edges then begin
        let a, b = t.edge_ends.(id) in
        let w = t.edge_weight.(id) in
        let near = (if dist.(a) < dist.(b) then dist.(a) else dist.(b)) +. w in
        if
          r.via.(a) <> id && r.via.(b) <> id
          && not (dist.(a) +. w > dist.(b) && dist.(b) +. w > dist.(a))
          && near < r.restore_bound
        then r.restore_bound <- near
      end
      else begin
        let v = id - edges in
        let dv = dist.(v) in
        if v <> root && t.up.(v) && dv < r.restore_bound then begin
          let near = ref infinity and children = ref false in
          for j = adj.Shortest_path.adj_index.(v) to adj.Shortest_path.adj_index.(v + 1) - 1 do
            let y = adj.Shortest_path.adj_dst.(j) in
            if prev.(y) = v then children := true
            else if not (edge_is_down t adj.Shortest_path.adj_edge.(j)) then begin
              let term = dv +. adj.Shortest_path.adj_weight.(j) in
              if term <= dist.(y) && term < !near then near := term
            end
          done;
          if (not !children) && !near < r.restore_bound then r.restore_bound <- !near
        end
      end
    end
  done;
  r.scan <- t.flip_len;
  if dist.(leaf) < r.restore_bound then path_hops t r root leaf leaf 0 else -1

(* The ghost nearest the root on [leaf]'s tree path — a node whose tree
   edge is down, or a down node strictly between the root and the
   leaf — or [found]. *)
let rec top_ghost t r root leaf v found =
  if v = root then found
  else
    top_ghost t r root leaf r.tree.Shortest_path.prev.(v)
      (if edge_is_down t r.via.(v) || (v <> leaf && not t.up.(v)) then v else found)

(* Swap [r]'s state with its saved one when the ghost its last large
   cut pass cut is back in the status the saved state was made for:
   the state from before the cut once it is up again, the state from
   after the cut (saved by the previous swap) once it is down again.
   A saved state is a valid stale tree — canonical for the links and
   relays up at its cursor plus its kept ghosts, with every flip since
   still in the log — that already routes the way the ghost's status
   asks, so the large pass that would reroute is never run.  Smaller
   passes run since the state was saved are redone lazily, where a
   send needs them. *)
let rewind t r =
  match r.undo with
  | Some u when u.u_key >= 0 && entity_up t u.u_key = u.u_up ->
      let dist = r.tree.Shortest_path.dist and prev = r.tree.Shortest_path.prev in
      for v = 0 to t.n - 1 do
        let d = dist.(v) and p = prev.(v) and e = r.via.(v) in
        dist.(v) <- u.u_dist.(v);
        prev.(v) <- u.u_prev.(v);
        r.via.(v) <- u.u_via.(v);
        u.u_dist.(v) <- d;
        u.u_prev.(v) <- p;
        u.u_via.(v) <- e
      done;
      let cursor = r.flip_cursor and ghosts = r.ghosts and nghosts = r.nghosts in
      r.flip_cursor <- u.u_cursor;
      r.ghosts <- u.u_ghosts;
      r.nghosts <- u.u_nghosts;
      r.kinds <- list_kinds t r.ghosts r.nghosts;
      u.u_cursor <- cursor;
      u.u_ghosts <- ghosts;
      u.u_nghosts <- nghosts;
      u.u_up <- not u.u_up;
      r.scan <- r.flip_cursor;
      r.restore_bound <- infinity;
      true
  | _ -> false

(* Repair [root]'s tree until it answers a send to [leaf] exactly, and
   return the hop count of the leaf's path ([-1] if it is
   unreachable): each pass settles the pending restores and detaches the subtree rooted at
   the ghost nearest the root on the leaf's path, keeping every other
   ghost.  A pass makes no new ghost and the one it cuts stops being
   one, so this ends; when no pass is left to run the leaf is
   unreachable over the links and relays up plus the ghosts, so over
   the links and relays up too. *)
let rec repair_path t r root leaf =
  let hops = path_current t r root leaf in
  if hops >= 0 then hops
  else if rewind t r then repair_path t r root leaf
  else begin
    let child =
      if Float.is_finite r.tree.Shortest_path.dist.(leaf) then
        top_ghost t r root leaf leaf (-1)
      else -1
    in
    if child >= 0 || r.flip_cursor < t.flip_len then begin
      catch_up t r false child;
      repair_path t r root leaf
    end
    else -1
  end

(* The cached tree of [src], possibly stale; built on a miss. *)
let route t src =
  match t.routes.(src) with
  | Some r ->
      t.route_cache_hits <- t.route_cache_hits + 1;
      r
  | None ->
      t.route_recomputes <- t.route_recomputes + 1;
      let tree, via =
        Shortest_path.dijkstra_flat ~adj:t.adj ?edge_down:t.edge_down_arg ?up:t.up_arg
          t.scratch src
      in
      let r =
        { tree; via; flip_cursor = t.flip_len; ghosts = [||]; nghosts = 0; undo = None;
          kinds = 0; scan = t.flip_len; restore_bound = infinity }
      in
      t.routes.(src) <- Some r;
      r

let tree t src =
  check_node t src;
  let r = route t src in
  ignore (rewind t r);
  if r.flip_cursor < t.flip_len || r.nghosts > 0 then catch_up t r true (-1);
  r.tree

let is_anchor t v =
  match t.anchors with
  | None -> true
  | Some b -> bit b v

let set_route_anchors t nodes =
  let b = Bytes.make (max 1 ((t.n + 7) / 8)) '\000' in
  List.iter
    (fun v ->
      check_node t v;
      set_bit b v)
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
let route_repair_nodes t = t.route_repair_nodes

let toggle_edge t e =
  Bytes.set t.edge_down (e lsr 3)
    (Char.chr (Char.code (Bytes.get t.edge_down (e lsr 3)) lxor (1 lsl (e land 7))))

let set_link_down t u v =
  check_link t u v;
  let e = edge_id t u v in
  if not (edge_is_down t e) then begin
    toggle_edge t e;
    log_flip t (e lsl 1)
  end

let set_link_up t u v =
  check_link t u v;
  let e = edge_id t u v in
  if edge_is_down t e then begin
    toggle_edge t e;
    log_flip t ((e lsl 1) lor 1)
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

(* The child of [root] on [v]'s tree path. *)
let rec root_child prev root v =
  let p = prev.(v) in
  if p = root then v else root_child prev root p

let first_hop t ~src ~dst =
  check_node t src;
  check_node t dst;
  if src = dst then None
  else
    let owner = route_owner t src dst in
    let tr = tree t owner in
    if not (Float.is_finite tr.Shortest_path.dist.(if owner = src then dst else src))
    then None
    else if owner = src then Some (root_child tr.Shortest_path.prev src dst)
    else
      (* Read the hop off the anchored destination's tree: the first
         step from [src] toward [dst] is [src]'s own predecessor. *)
      Some tr.Shortest_path.prev.(src)

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
   refused (source down, or no path over the links and relays up).  A
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
    (* One walk up the owning endpoint's predecessor chain counts the
       hops (the same in either orientation of the undirected path);
       with flips pending it also checks that the path is current. *)
    let hop_count =
      if r.flip_cursor < t.flip_len || r.nghosts > 0 then repair_path t r owner leaf
      else if Float.is_finite dist.(leaf) then path_hops t r owner leaf leaf 0
      else -1
    in
    if hop_count < 0 then begin
      t.dropped <- t.dropped + 1;
      Float.nan
    end
    else begin
      t.sent <- t.sent + 1;
      let latency = dist.(leaf) +. (float_of_int hop_count *. serialisation t bytes) in
      if vanishes t then t.lost <- t.lost + 1
      else schedule_delivery t ~src ~dst ~hop_count ~latency msg;
      latency
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
