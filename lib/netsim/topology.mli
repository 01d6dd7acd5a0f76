(** Topology generators.

    Includes the paper's worked example (Figure 1), hierarchical
    multi-region internetworks like the one sketched in Figure 2, and
    generic shapes (ring, star, line, grid, random) used by the test
    suite and parameter sweeps. *)

(** A topology annotated with the mail-system roles the load-balancing
    algorithm of §3.1.1 needs: which nodes are user hosts (and how many
    users each carries) and which are mail servers. *)
type mail_site = {
  graph : Graph.t;
  hosts : (Graph.node * int) list;  (** host node, user population [N_i]. *)
  servers : Graph.node list;
}

val paper_fig1 : unit -> mail_site
(** The Figure 1 example: six hosts with user populations
    (50, 60, 50, 50, 40, 20), three servers in one region, all links of
    weight 1, arranged so that hosts 1 and 3 are adjacent to server 1,
    hosts 2, 4 and 5 to server 2, host 6 to server 3, with the servers
    chained S1–S2–S3.  This reproduces the prose facts (e.g. the
    H2–S1 zero-load distance of 2 time units). *)

val paper_table3 : unit -> mail_site
(** The three-host variant behind Table 3: populations
    (100, 100, 20), one host adjacent to each server. *)

val arpanet : unit -> Graph.t
(** The classic ARPANET backbone circa 1977 — about twenty IMP sites
    (MIT, BBN, UCLA, SRI, …) with its historical cross-country links,
    unit-ish weights scaled by rough mileage.  An era-appropriate
    testbed for the MST and broadcast experiments. *)

val arpanet_mail_site : unit -> mail_site
(** The ARPANET as a three-region mail system: BBN (east), UCLA (west)
    and Illinois (central) act as the mail servers — the sites that
    historically ran heavyweight service hosts — and every other site
    carries ten users. *)

val line : n:int -> weight:float -> Graph.t
val ring : n:int -> weight:float -> Graph.t
val star : leaves:int -> weight:float -> Graph.t
(** Node 0 is the hub. *)

val grid : rows:int -> cols:int -> weight:float -> Graph.t

val random_connected :
  rng:Dsim.Rng.t -> n:int -> extra_edges:int -> min_weight:float -> max_weight:float -> Graph.t
(** Random spanning tree (guaranteeing connectivity) plus
    [extra_edges] additional distinct random edges, with weights
    uniform in [\[min_weight, max_weight)].  All weights are distinct
    with probability 1, as the GHS algorithm requires. *)

val random_mail_site :
  rng:Dsim.Rng.t ->
  hosts:int ->
  servers:int ->
  users_per_host:int * int ->
  extra_edges:int ->
  mail_site
(** Random connected site for balancing sweeps; populations uniform in
    the inclusive range [users_per_host]. *)

(** Parameters of a hierarchical multi-region internetwork. *)
type hierarchy = {
  regions : int;
  hosts_per_region : int;
  servers_per_region : int;
  gateways_per_region : int;
  intra_extra_edges : int;  (** extra random intra-region edges beyond a tree. *)
  backbone_extra_edges : int;  (** extra random gateway-to-gateway edges beyond a backbone ring. *)
  local_weight : float * float;  (** intra-region edge weight range. *)
  backbone_weight : float * float;  (** inter-region edge weight range. *)
}

val default_hierarchy : hierarchy

val hierarchical : rng:Dsim.Rng.t -> hierarchy -> Graph.t
(** Regions named ["r0"], ["r1"], … with hosts, servers and gateways
    per region; each region internally connected (random tree + extra
    edges), gateways joined by a backbone ring + extra edges.  All
    edge weights drawn from continuous ranges, hence distinct with
    probability 1. *)

val sized_hierarchy :
  regions:int ->
  hosts_per_region:int ->
  servers_per_region:int ->
  ?gateways_per_region:int ->
  ?degree:float ->
  unit ->
  hierarchy
(** Hierarchy spec with the edge counts derived from a target average
    node degree instead of spelled out: each region gets enough extra
    random edges beyond its spanning tree to reach [degree] (default 6)
    on average, and the backbone gets [regions - 1] extra gateway
    links beyond its ring.  [gateways_per_region] defaults to 2; the
    weight ranges are {!default_hierarchy}'s.  This is how the
    scale benchmark dials topology density.
    @raise Invalid_argument on non-positive counts or [degree < 2]. *)

val scale_site : rng:Dsim.Rng.t -> ?users_per_host:int -> hierarchy -> mail_site
(** Generate {!hierarchical} from the spec and annotate it as a
    {!mail_site}: every [Host] node carries [users_per_host] users
    (default 10) and every [Server] node serves mail.  Gateways carry
    no users — they only relay.  Deterministic given the [rng] seed;
    this is the large-topology generator behind [bench scale]. *)

val region_of_gateways : Graph.t -> (string * Graph.node list) list
(** Gateway nodes grouped by region, sorted by region name. *)
