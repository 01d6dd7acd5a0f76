type node_state = Sleeping | Find | Found

type edge_state = Basic | Branch | Rejected

type msg =
  | Connect of int
  | Initiate of int * Edge_id.t * node_state
  | Test of int * Edge_id.t
  | Accept
  | Reject
  | Report of Edge_id.t option
  | Change_root

type result = {
  edges : (Netsim.Graph.node * Netsim.Graph.node * float) list;
  total_weight : float;
  messages : int;
  finish_time : float;
  halted : bool;
  max_level : int;
}

(* Per-node automaton state, exactly the variables of Gallager's
   pseudocode: SN, FN, LN, SE(j), best/test/in-branch edges and the
   outstanding-Report counter. *)
type node_ctx = {
  id : Netsim.Graph.node;
  mutable sn : node_state;
  mutable fn : Edge_id.t option;  (* fragment identity *)
  mutable ln : int;  (* fragment level *)
  se : (Netsim.Graph.node, edge_state) Hashtbl.t;
  mutable best_edge : Netsim.Graph.node option;
  mutable best_wt : Edge_id.t option;  (* None = infinity *)
  mutable test_edge : Netsim.Graph.node option;
  mutable in_branch : Netsim.Graph.node option;
  mutable find_count : int;
}

let message_bound g =
  let n = Netsim.Graph.node_count g in
  let e = Netsim.Graph.edge_count g in
  if n <= 1 then 0
  else begin
    let log2n = int_of_float (Float.ceil (Float.log2 (float_of_int n))) in
    (5 * n * max 1 log2n) + (2 * e)
  end

let run ?(horizon = 1e9) ?(wake = `All) g =
  let n = Netsim.Graph.node_count g in
  if n = 0 then invalid_arg "Ghs.run: empty graph";
  if not (Netsim.Graph.is_connected g) then invalid_arg "Ghs.run: graph not connected";
  let engine = Dsim.Engine.create () in
  let net = Netsim.Net.create ~engine g in
  let ctx =
    Array.init n (fun id ->
        let se = Hashtbl.create 8 in
        List.iter (fun (v, _) -> Hashtbl.replace se v Basic) (Netsim.Graph.neighbors g id);
        {
          id;
          sn = Sleeping;
          fn = None;
          ln = 0;
          se;
          best_edge = None;
          best_wt = None;
          test_edge = None;
          in_branch = None;
          find_count = 0;
        })
  in
  let halted = ref false in
  let finish_time = ref 0. in
  let edge_id u v =
    match Netsim.Graph.weight g u v with
    | Some w -> Edge_id.make u v w
    | None -> invalid_arg "Ghs: not an edge"
  in
  let edge_state c v = try Hashtbl.find c.se v with Not_found -> Rejected in
  let send u v m = ignore (Netsim.Net.send_neighbor net ~src:u ~dst:v m) in
  (* Requeue a message the automaton cannot process yet: redeliver to
     self shortly, without touching the network counters. *)
  let rec requeue c ~src m =
    Dsim.Engine.schedule_after engine 0.001 (fun () -> handle c ~src m)
  and wakeup c =
    (* Pick the minimum adjacent edge, make it a Branch, send Connect(0). *)
    let best =
      List.fold_left
        (fun acc (v, w) ->
          let e = Edge_id.make c.id v w in
          match acc with
          | Some (_, e') when Edge_id.compare e' e <= 0 -> acc
          | _ -> Some (v, e))
        None
        (Netsim.Graph.neighbors g c.id)
    in
    match best with
    | None -> ()  (* isolated node: nothing to connect to *)
    | Some (v, _) ->
        Hashtbl.replace c.se v Branch;
        c.ln <- 0;
        c.sn <- Found;
        c.find_count <- 0;
        send c.id v (Connect 0)
  and test_procedure c =
    let basics =
      Hashtbl.fold
        (fun v st acc -> if st = Basic then edge_id c.id v :: acc else acc)
        c.se []
    in
    match List.sort Edge_id.compare basics with
    | [] ->
        c.test_edge <- None;
        report_procedure c
    | e :: _ ->
        let v = if e.Edge_id.lo = c.id then e.Edge_id.hi else e.Edge_id.lo in
        c.test_edge <- Some v;
        send c.id v (Test (c.ln, Option.get c.fn))
  and report_procedure c =
    if c.find_count = 0 && c.test_edge = None then begin
      c.sn <- Found;
      match c.in_branch with
      | Some j -> send c.id j (Report c.best_wt)
      | None -> ()
    end
  and change_root c =
    match c.best_edge with
    | None -> ()
    | Some b ->
        if edge_state c b = Branch then send c.id b Change_root
        else begin
          send c.id b (Connect c.ln);
          Hashtbl.replace c.se b Branch
        end
  and handle c ~src m =
    if not !halted then
      match m with
      | Connect l ->
          if c.sn = Sleeping then wakeup c;
          if l < c.ln then begin
            (* Absorb the lower-level fragment. *)
            Hashtbl.replace c.se src Branch;
            send c.id src (Initiate (c.ln, Option.get c.fn, c.sn));
            if c.sn = Find then c.find_count <- c.find_count + 1
          end
          else if edge_state c src = Basic then requeue c ~src m
          else begin
            (* Merge: this edge becomes the new core. *)
            send c.id src (Initiate (c.ln + 1, edge_id c.id src, Find))
          end
      | Initiate (l, f, s) ->
          c.ln <- l;
          c.fn <- Some f;
          c.sn <- s;
          c.in_branch <- Some src;
          c.best_edge <- None;
          c.best_wt <- None;
          (* Propagate to branch neighbours in node order, not hash
             order: sends schedule events, and equal-time ties break by
             schedule sequence, so iteration order is observable. *)
          Hashtbl.fold
            (fun v st acc -> if v <> src && st = Branch then v :: acc else acc)
            c.se []
          |> List.sort Int.compare
          |> List.iter (fun v ->
                 send c.id v (Initiate (l, f, s));
                 if s = Find then c.find_count <- c.find_count + 1);
          if s = Find then test_procedure c
      | Test (l, f) ->
          if c.sn = Sleeping then wakeup c;
          if l > c.ln then requeue c ~src m
          else if not (match c.fn with Some fn -> Edge_id.equal fn f | None -> false)
          then send c.id src Accept
          else begin
            if edge_state c src = Basic then Hashtbl.replace c.se src Rejected;
            if c.test_edge <> Some src then send c.id src Reject
            else test_procedure c
          end
      | Accept ->
          c.test_edge <- None;
          let e = edge_id c.id src in
          if Edge_id.less (Some e) c.best_wt then begin
            c.best_edge <- Some src;
            c.best_wt <- Some e
          end;
          report_procedure c
      | Reject ->
          if edge_state c src = Basic then Hashtbl.replace c.se src Rejected;
          test_procedure c
      | Report w ->
          if c.in_branch <> Some src then begin
            c.find_count <- c.find_count - 1;
            if Edge_id.less w c.best_wt then begin
              c.best_wt <- w;
              c.best_edge <- Some src
            end;
            report_procedure c
          end
          else if c.sn = Find then requeue c ~src m
          else if Edge_id.less c.best_wt w then change_root c
          else if w = None && c.best_wt = None then begin
            halted := true;
            finish_time := Dsim.Engine.now engine
          end
      | Change_root -> change_root c
  in
  Array.iter
    (fun c ->
      Netsim.Net.set_handler net c.id (fun ~time:_ ~src m -> handle c ~src m))
    ctx;
  (* Spontaneous awakenings at t = 0; sleepers awaken on first
     message receipt (rules 2 and 4). *)
  let wakers = match wake with `All -> Array.to_list ctx | `One -> [ ctx.(0) ] in
  List.iter
    (fun c ->
      Dsim.Engine.schedule_at engine 0. (fun () -> if c.sn = Sleeping then wakeup c))
    wakers;
  Dsim.Engine.run ~until:horizon engine;
  if n = 1 && not !halted then begin
    halted := true;
    finish_time := 0.
  end;
  let branch_edges =
    Array.to_list ctx
    |> List.concat_map (fun c ->
           Hashtbl.fold
             (fun v st acc -> if st = Branch then edge_id c.id v :: acc else acc)
             c.se [])
    |> List.sort_uniq Edge_id.compare
    |> List.map (fun (e : Edge_id.t) -> (e.lo, e.hi, e.w))
  in
  {
    edges = branch_edges;
    total_weight = List.fold_left (fun acc (_, _, w) -> acc +. w) 0. branch_edges;
    messages = Netsim.Net.messages_sent net;
    finish_time = !finish_time;
    halted = !halted;
    max_level = Array.fold_left (fun acc c -> max acc c.ln) 0 ctx;
  }
