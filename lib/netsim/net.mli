(** Message transport over a topology, driven by the {!Dsim.Engine}.

    A network wraps a {!Graph.t} with per-node up/down status, per-node
    receive handlers, and two send primitives:

    - {!send} routes over the zero-load shortest path among the links
      up and through the nodes up; the end-to-end latency is the path
      distance.  A down node is never a relay, so a crashed server is
      routed around like a cut link; it can still be a destination.
      The message is dropped when the source is down, no path exists
      over the links and relays up, or the destination is down at
      delivery time.
    - {!send_neighbor} crosses exactly one edge — the primitive the
      distributed MST automaton uses.  Per-edge delivery is FIFO
      (fixed latency per edge + deterministic engine tie-breaks), which
      realises the paper's channel model: "messages … arrive after an
      unpredictable but finite delay, without error and in sequence".

    Delivery, drop and hop counts are accumulated for the traffic
    experiments. *)

type 'msg t

type 'msg handler = time:float -> src:Graph.node -> 'msg -> unit

val create :
  engine:Dsim.Engine.t ->
  ?bandwidth:float ->
  ?loss_rate:float ->
  ?loss_seed:int ->
  Graph.t ->
  'msg t
(** All nodes start up.  [bandwidth] is the uniform link capacity in
    bytes per unit virtual time used to serialise sized messages
    (default: infinite — size adds no delay).  [loss_rate] (default 0)
    makes each transmission vanish in flight with that probability,
    drawn from a deterministic stream seeded by [loss_seed] — the
    random message loss the mail pipeline's acknowledgements and
    retries must absorb.
    @raise Invalid_argument if [bandwidth <= 0.] or [loss_rate]
    is outside [0, 1). *)

val graph : 'msg t -> Graph.t
val engine : 'msg t -> Dsim.Engine.t

val set_handler : 'msg t -> Graph.node -> 'msg handler -> unit
(** Replaces the node's receive handler (default: ignore). *)

val is_up : 'msg t -> Graph.node -> bool

val set_up : 'msg t -> Graph.node -> unit
val set_down : 'msg t -> Graph.node -> unit
(** Status changes fire the {!on_status_change} listeners with the
    current virtual time.  A down node relays nothing — routes detour
    around it as around a cut link — but it is still reached as a
    destination, and a send to it is accepted and dropped on arrival.
    Like a link flip, a node flip only appends to the route cache's
    flip log; only trees that route through the node do repair work.
    Messages already in flight towards a node that goes down are
    dropped at delivery time; messages in flight through it are not
    recalled.  Idempotent. *)

val on_status_change : 'msg t -> (time:float -> Graph.node -> bool -> unit) -> unit
(** Register a listener called after every status flip ([true] = up). *)

val link_is_up : 'msg t -> Graph.node -> Graph.node -> bool
(** Whether the (undirected) edge between two adjacent nodes is
    currently usable.  Orientation does not matter. *)

val set_link_down : 'msg t -> Graph.node -> Graph.node -> unit
val set_link_up : 'msg t -> Graph.node -> Graph.node -> unit
(** Cut / restore a single link.  Down links are invisible to routing
    ({!send} finds a detour or drops when none exists) and refuse
    {!send_neighbor} one-hop transmissions.  A flip only appends to a
    flip log.  A cached shortest-path tree settles the flips it has
    not seen in one batched repair pass, when a whole-tree query
    ({!tree}, {!distance}, {!hops}, {!first_hop}) needs it or when a
    pending flip can change the path of a routed send; other sends
    read the stale tree, whose answer for their path is provably the
    current one (docs/PERF.md).  Routing answers are those of a fresh
    Dijkstra over the current links and relays.  Messages already in
    flight across the link are not recalled.
    Idempotent.
    @raise Invalid_argument if the nodes are not adjacent. *)

val links_down : 'msg t -> (Graph.node * Graph.node) list
(** Currently cut links as normalised [(min, max)] endpoint pairs,
    sorted. *)

val distance : 'msg t -> Graph.node -> Graph.node -> float
(** Zero-load shortest-path distance over the links up and through the
    nodes up ([infinity] if disconnected).  Either endpoint may be
    down.  Cached per source. *)

val hops : 'msg t -> Graph.node -> Graph.node -> int
(** Edge count of the shortest path ([-1] if unreachable). *)

val first_hop : 'msg t -> src:Graph.node -> dst:Graph.node -> Graph.node option
(** The neighbour of [src] that begins the shortest path to [dst]
    ([None] when unreachable or [dst = src]).  A walk up the owning
    tree's predecessor chain (one read when the query is answered
    from an anchored destination's tree). *)

val set_route_anchors : 'msg t -> Graph.node list -> unit
(** Declare the route anchors: the only nodes that keep cached
    shortest-path trees warm.  A [(src, dst)] query is answered from
    the anchored endpoint's tree — paths on the undirected graph are
    symmetric, so distance and hop count are unchanged, though the
    deterministic tie-break may pick a different equal-length path
    than the source's own tree would.  Queries between two
    non-anchors fall back to the source's tree.  Mail deployments
    anchor the infrastructure (servers, gateways): every hop of every
    message has one, so the fault campaign repairs a few hundred
    shared trees instead of one per host.  Drops all cached routes;
    call before traffic starts. *)

(** Route-cache accounting since creation — the observables behind
    lazy route repair.  A recompute is one full Dijkstra run; a
    cache hit is a routing query answered from a cached tree; an
    invalidation is one repair pass that re-settled at least one node
    of a cached tree (or one tree dropped by {!set_route_anchors});
    repair nodes counts the nodes those passes re-settled. *)

val route_recomputes : 'msg t -> int
val route_cache_hits : 'msg t -> int
val route_invalidations : 'msg t -> int
val route_repair_nodes : 'msg t -> int

val tree : 'msg t -> Graph.node -> Shortest_path.tree
(** The shortest-path tree rooted at the node, honouring the links and
    nodes currently down: paths use only links up and continue only
    through nodes up, so a down node other than the root is reached
    (it has a distance and a predecessor) but has no tree children.
    The root itself may be down.  Served from the route cache (counts
    as a hit or a recompute like any routing query).  The returned
    arrays are the cache's own: treat them as read-only, and read them
    before the next send or query.  This is the observable the oracle
    test compares byte-for-byte against a fresh Dijkstra under that
    transit rule. *)

val send : ?bytes:int -> 'msg t -> src:Graph.node -> dst:Graph.node -> 'msg -> bool
(** Routed send as described above: the shortest path over the links
    up whose relays are all up, detouring around down nodes.  Returns
    [false] iff the message was dropped immediately (source down, or no
    such path); a down destination is accepted, and a [true] send is
    dropped later if the destination is down at delivery time.
    [bytes] (default 0) adds a serialisation delay of
    [bytes / bandwidth] per hop. *)

val send_timed :
  ?bytes:int -> 'msg t -> src:Graph.node -> dst:Graph.node -> 'msg -> float option
(** {!send}, but a successful transmission also reports the scheduled
    arrival latency (over the detour, when a node on the shortest path
    is down) — a deterministic upper bound on how long the message can
    still be in flight.  [None] iff {!send} would return [false].  A message lost to random in-flight loss still reports
    its would-be latency (the caller's fence stays conservative).
    Senders whose dedup state is compactable use this to fence
    compaction past every possible late arrival. *)

val send_neighbor :
  ?bytes:int -> 'msg t -> src:Graph.node -> dst:Graph.node -> 'msg -> bool
(** One-hop send; same liveness rules, latency = edge weight plus the
    serialisation delay.
    @raise Invalid_argument if [src] and [dst] are not adjacent. *)

(** Traffic accounting since creation. *)

val messages_sent : 'msg t -> int
(** Messages accepted for transmission (including ones later dropped
    at delivery). *)

val messages_delivered : 'msg t -> int

val messages_dropped : 'msg t -> int
(** Immediate refusals plus deliveries to down nodes. *)

val messages_lost : 'msg t -> int
(** Transmissions that vanished to random link loss. *)

val hops_traversed : 'msg t -> int
(** Total edges crossed by delivered messages. *)

