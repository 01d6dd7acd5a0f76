type stats = {
  messages : int;
  link_crossings : int;
  reached : int;
  completion_time : float;
}

let tree_adjacency tree =
  let adj = Hashtbl.create 32 in
  (* Dedupe: a node pair may appear both as a local-tree edge and as a
     virtual backbone edge — the first (local) weight wins. *)
  let link u v w =
    let l = try Hashtbl.find adj u with Not_found -> [] in
    if not (List.mem_assoc v l) then Hashtbl.replace adj u ((v, w) :: l)
  in
  List.iter
    (fun (u, v, w) ->
      link u v w;
      link v u w)
    tree;
  adj

let check_root g root =
  if not (Netsim.Graph.mem_node g root) then invalid_arg "Broadcast: unknown root"

(* Send over one tree edge: a real link when adjacent, otherwise
   routed over the network (virtual backbone edge). *)
let send_edge net ~src ~dst msg =
  if Netsim.Graph.mem_edge (Netsim.Net.graph net) src dst then
    ignore (Netsim.Net.send_neighbor net ~src ~dst msg)
  else ignore (Netsim.Net.send net ~src ~dst msg)

type bcast_msg = Payload

let broadcast ?(failed = []) g ~tree ~root =
  check_root g root;
  let adj = tree_adjacency tree in
  let engine = Dsim.Engine.create () in
  let net = Netsim.Net.create ~engine g in
  List.iter (fun v -> Netsim.Net.set_down net v) failed;
  let reached = Hashtbl.create 32 in
  let last = ref 0. in
  let children v parent =
    (try Hashtbl.find adj v with Not_found -> [])
    |> List.filter (fun (u, _) -> Some u <> parent)
  in
  let forward v parent =
    if not (Hashtbl.mem reached v) then begin
      Hashtbl.replace reached v ();
      last := Dsim.Engine.now engine;
      List.iter (fun (u, _) -> send_edge net ~src:v ~dst:u Payload) (children v parent)
    end
  in
  List.iter
    (fun v ->
      Netsim.Net.set_handler net v (fun ~time:_ ~src (Payload : bcast_msg) ->
          forward v (Some src)))
    (Netsim.Graph.nodes g);
  if not (List.mem root failed) then
    Dsim.Engine.schedule_at engine 0. (fun () -> forward root None);
  Dsim.Engine.run engine;
  {
    messages = Netsim.Net.messages_sent net;
    link_crossings = Netsim.Net.hops_traversed net;
    reached = Hashtbl.length reached;
    completion_time = !last;
  }

let flood ?(failed = []) g ~root =
  check_root g root;
  let engine = Dsim.Engine.create () in
  let net = Netsim.Net.create ~engine g in
  List.iter (fun v -> Netsim.Net.set_down net v) failed;
  let reached = Hashtbl.create 32 in
  let last = ref 0. in
  let forward v except =
    if not (Hashtbl.mem reached v) then begin
      Hashtbl.replace reached v ();
      last := Dsim.Engine.now engine;
      List.iter
        (fun (u, _) ->
          if Some u <> except then
            ignore (Netsim.Net.send_neighbor net ~src:v ~dst:u Payload))
        (Netsim.Graph.neighbors g v)
    end
  in
  List.iter
    (fun v ->
      Netsim.Net.set_handler net v (fun ~time:_ ~src (Payload : bcast_msg) ->
          forward v (Some src)))
    (Netsim.Graph.nodes g);
  if not (List.mem root failed) then
    Dsim.Engine.schedule_at engine 0. (fun () -> forward root None);
  Dsim.Engine.run engine;
  {
    messages = Netsim.Net.messages_sent net;
    link_crossings = Netsim.Net.hops_traversed net;
    reached = Hashtbl.length reached;
    completion_time = !last;
  }

type gather = {
  total : int;
  responded : int;
  timed_out_children : int;
  g_messages : int;
  g_link_crossings : int;
  g_completion_time : float;
}

type cc_msg =
  | Query of float  (* remaining timeout budget at the receiver *)
  | Reply of int * int  (* partial sum, responder count *)

type cc_state = {
  mutable pending : int;
  mutable sum : int;
  mutable responders : int;
  mutable parent : Netsim.Graph.node option;
  mutable sent_up : bool;
  mutable queried : bool;
}

let convergecast ?(failed = []) ?timeout g ~tree ~root ~value =
  check_root g root;
  let adj = tree_adjacency tree in
  let tree_weight = List.fold_left (fun acc (_, _, w) -> acc +. w) 0. tree in
  let timeout = match timeout with Some t -> t | None -> (4. *. tree_weight) +. 1. in
  let engine = Dsim.Engine.create () in
  let net = Netsim.Net.create ~engine g in
  List.iter (fun v -> Netsim.Net.set_down net v) failed;
  let n = Netsim.Graph.node_count g in
  let states =
    Array.init n (fun _ ->
        { pending = 0; sum = 0; responders = 0; parent = None; sent_up = false; queried = false })
  in
  let timed_out = ref 0 in
  let root_result = ref None in
  let finish = ref 0. in
  let children v parent =
    (try Hashtbl.find adj v with Not_found -> [])
    |> List.filter (fun (u, _) -> Some u <> parent)
  in
  let send_up v =
    let st = states.(v) in
    if not st.sent_up then begin
      st.sent_up <- true;
      timed_out := !timed_out + st.pending;
      let sum = st.sum + value v and responders = st.responders + 1 in
      match st.parent with
      | Some p -> send_edge net ~src:v ~dst:p (Reply (sum, responders))
      | None ->
          root_result := Some (sum, responders);
          finish := Dsim.Engine.now engine
    end
  in
  let on_query v parent ~budget =
    let st = states.(v) in
    if st.queried then begin
      (* The overlay may contain redundant edges (virtual backbone
         links paralleling local-tree paths); answer duplicate
         queries immediately with an empty summary so the second
         parent neither waits nor double-counts. *)
      match parent with
      | Some p when st.parent <> parent -> send_edge net ~src:v ~dst:p (Reply (0, 0))
      | _ -> ()
    end
    else begin
    st.queried <- true;
    st.parent <- parent;
    let kids = children v parent in
    st.pending <- List.length kids;
    if kids = [] then send_up v
    else begin
      (* A child's budget shrinks by the round trip over its edge (plus
         a sliver of slack), so a timed-out child's partial summary
         still arrives before this node's own deadline fires. *)
      List.iter
        (fun (u, w) ->
          let child_budget = Float.max 0.001 (budget -. (2. *. w) -. 1e-6) in
          send_edge net ~src:v ~dst:u (Query child_budget))
        kids;
      Dsim.Engine.schedule_after engine budget (fun () -> if not st.sent_up then send_up v)
    end
    end
  in
  let on_reply v sum responders =
    let st = states.(v) in
    if not st.sent_up then begin
      st.sum <- st.sum + sum;
      st.responders <- st.responders + responders;
      st.pending <- st.pending - 1;
      if st.pending = 0 then send_up v
    end
  in
  List.iter
    (fun v ->
      Netsim.Net.set_handler net v (fun ~time:_ ~src msg ->
          match msg with
          | Query budget -> on_query v (Some src) ~budget
          | Reply (sum, responders) -> on_reply v sum responders))
    (Netsim.Graph.nodes g);
  if not (List.mem root failed) then
    Dsim.Engine.schedule_at engine 0. (fun () -> on_query root None ~budget:timeout);
  Dsim.Engine.run engine;
  let total, responded = match !root_result with Some (s, r) -> (s, r) | None -> (0, 0) in
  {
    total;
    responded;
    timed_out_children = !timed_out;
    g_messages = Netsim.Net.messages_sent net;
    g_link_crossings = Netsim.Net.hops_traversed net;
    g_completion_time = !finish;
  }
