(** Shortest-path computations over {!Graph}.

    The paper's cost model and routing both rest on "shortest-path
    zero-load" distances (§3.1.1); this module provides Dijkstra from
    a single source, all-pairs tables, explicit path extraction and
    next-hop routing tables for the transport layer. *)

type tree = {
  source : Graph.node;
  dist : float array;  (** [dist.(v)] = distance from source; [infinity] if unreachable. *)
  prev : Graph.node array;  (** Predecessor on a shortest path; [-1] for source/unreachable. *)
}

val dijkstra : ?usable:(Graph.node -> Graph.node -> bool) -> Graph.t -> Graph.node -> tree
(** Single-source shortest paths.  [usable u v] (default: always true)
    filters edges at relaxation time — a cut link is simply invisible
    to the search, which is how {!Net} routes around link outages. *)

val distance : tree -> Graph.node -> float

val by_distance : tree -> Graph.node list -> Graph.node list
(** [by_distance tree nodes] sorts [nodes] by their distance from the
    tree's source, nearest first.  The sort is stable: nodes at equal
    distance (unreachable ones included, at [infinity]) keep their
    order in [nodes]. *)

val path : tree -> Graph.node -> Graph.node list option
(** Node sequence from the tree's source to the target, inclusive;
    [None] if unreachable. *)

val hop_count : tree -> Graph.node -> int option
(** Edges on the shortest path; [Some 0] for the source itself. *)

val first_hops : tree -> Graph.node array
(** Next-hop table derived from an already-computed tree: for every
    destination [d], the neighbour of the tree's source that begins
    the shortest path to [d] ([-1] when unreachable or [d] is the
    source).  O(n) over the predecessor array — no re-running
    Dijkstra, no path-list allocation. *)

val all_pairs : Graph.t -> tree array
(** [all_pairs g] runs Dijkstra from every node; index by source id. *)

val next_hop_table : Graph.t -> Graph.node -> Graph.node array
(** [next_hop_table g src] gives, for every destination [d], the
    neighbour of [src] that begins a shortest path to [d] ([-1] when
    unreachable or [d = src]).  Deterministic: among equal-cost
    first hops the lowest node id wins. *)

val eccentricity : Graph.t -> Graph.node -> float
(** Greatest finite distance from the node to any reachable node. *)

val diameter : Graph.t -> float
(** Max eccentricity over all nodes ([0.] for empty graphs). *)

(** {1 Flat routing core}

    The cached-routing hot path compiles the graph once into a
    structure-of-arrays adjacency (CSR layout) and runs Dijkstra over
    it with a reusable arena queue: no per-edge closures, no tuple
    keys, no per-relaxation allocation.  Link outages arrive as a
    bitset indexed by undirected edge id. *)

type adjacency = {
  adj_n : int;  (** node count *)
  adj_index : int array;  (** per-source slice bounds, length [n + 1] *)
  adj_dst : int array;  (** directed neighbour per slot *)
  adj_weight : float array;  (** edge weight per slot *)
  adj_edge : int array;  (** undirected edge id per slot *)
}

val compile : Graph.t -> adjacency
(** Compile the graph's adjacency into flat arrays.  Undirected edge
    ids are positions in the sorted [Graph.edges] list, so every
    consumer shares one deterministic numbering. *)

type scratch
(** Reusable Dijkstra workspace (settled set + arena queue). *)

val scratch : ?capacity:int -> int -> scratch
(** [scratch n] sizes the workspace for an [n]-node graph; it regrows
    on demand. *)

val dijkstra_flat :
  adj:adjacency -> ?edge_down:Bytes.t -> ?up:bool array -> scratch ->
  Graph.node -> tree * int array
(** Single-source shortest paths over the compiled adjacency.
    [edge_down] marks unusable undirected edges by id (bit set =
    down); omitted means every edge is usable.  [up] marks the nodes
    that may relay: a node with [up.(v) = false] other than the source
    is still reached (its distance and predecessor are set) but no
    path continues through it; omitted means every node relays.  Returns the tree plus
    the via-edge table: for every reached non-source node, the
    undirected edge id of its predecessor link ([-1] otherwise) — the
    edges {!Net}'s route cache checks a path against and detaches
    subtrees below, with no tuple or list allocation.  Tie-breaks match {!dijkstra}, so both
    return byte-identical trees on the same outage set (for {!dijkstra},
    an edge [u -> v] is usable when it is up and [u] relays). *)
