(** Prim's MST algorithm (heap-based): the test oracle for
    {!Mst.Kruskal} and {!Mst.Ghs}.  With {!Mst.Edge_id} tie-breaking it
    produces exactly the same tree as both on any connected graph. *)

val run : ?root:Netsim.Graph.node -> Netsim.Graph.t -> Mst.Kruskal.result
(** Spanning tree of the component containing [root] (default node 0).
    [components] reports 1 plus the number of unreached nodes treated
    as singleton components. *)
