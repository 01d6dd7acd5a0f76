type problem = {
  graph : Netsim.Graph.t;
  hosts : Netsim.Graph.node array;
  populations : int array;
  servers : Netsim.Graph.node array;
  capacities : int array;
  comm : float array array;
  params : Cost.params;
}

let problem_of_site ?(params = Cost.paper_params) ?(capacity = fun _ -> 100)
    (site : Netsim.Topology.mail_site) =
  if site.hosts = [] then invalid_arg "Assignment.problem_of_site: no hosts";
  if site.servers = [] then invalid_arg "Assignment.problem_of_site: no servers";
  let hosts = Array.of_list (List.map fst site.hosts) in
  let populations = Array.of_list (List.map snd site.hosts) in
  let servers = Array.of_list site.servers in
  let capacities = Array.map capacity servers in
  (* One compiled adjacency and one workspace for every host's
     Dijkstra: the flat core breaks ties like the list-based one, so
     the distances are the same floats. *)
  let adj = Netsim.Shortest_path.compile site.graph in
  let scratch = Netsim.Shortest_path.scratch adj.Netsim.Shortest_path.adj_n in
  let comm =
    Array.map
      (fun h ->
        let tree, _via = Netsim.Shortest_path.dijkstra_flat ~adj scratch h in
        Array.map
          (fun s ->
            let d = Netsim.Shortest_path.distance tree s in
            if not (Float.is_finite d) then
              invalid_arg
                (Printf.sprintf "Assignment.problem_of_site: host %s cannot reach server %s"
                   (Netsim.Graph.label site.graph h)
                   (Netsim.Graph.label site.graph s));
            d)
          servers)
      hosts
  in
  { graph = site.graph; hosts; populations; servers; capacities; comm; params }

type t = {
  matrix : int array array;  (* A_ij *)
  server_loads : int array;  (* L_j, maintained incrementally *)
  host_assigned : int array;
}

let empty problem =
  let i = Array.length problem.hosts and j = Array.length problem.servers in
  {
    matrix = Array.make_matrix i j 0;
    server_loads = Array.make j 0;
    host_assigned = Array.make i 0;
  }

let copy t =
  {
    matrix = Array.map Array.copy t.matrix;
    server_loads = Array.copy t.server_loads;
    host_assigned = Array.copy t.host_assigned;
  }

let get t ~host ~server = t.matrix.(host).(server)

let set t ~host ~server count =
  if count < 0 then invalid_arg "Assignment.set: negative count";
  let old = t.matrix.(host).(server) in
  t.matrix.(host).(server) <- count;
  t.server_loads.(server) <- t.server_loads.(server) + count - old;
  t.host_assigned.(host) <- t.host_assigned.(host) + count - old

let move t ~host ~from_server ~to_server count =
  if count < 0 then invalid_arg "Assignment.move: negative count";
  if t.matrix.(host).(from_server) < count then
    invalid_arg "Assignment.move: not enough users on source server";
  set t ~host ~server:from_server (t.matrix.(host).(from_server) - count);
  set t ~host ~server:to_server (t.matrix.(host).(to_server) + count)

let load t j = t.server_loads.(j)
let loads t = Array.copy t.server_loads
let assigned_of_host t i = t.host_assigned.(i)

let utilization problem t j =
  float_of_int t.server_loads.(j) /. float_of_int (max 1 problem.capacities.(j))

let connection_cost problem t ~host ~server =
  Cost.connection_cost problem.params
    ~comm:problem.comm.(host).(server)
    ~rho:(utilization problem t server)

let total_cost problem t =
  let total = ref 0. in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j count ->
          if count > 0 then
            total :=
              !total +. (float_of_int count *. connection_cost problem t ~host:i ~server:j))
        row)
    t.matrix;
  !total

(* Queueing component a server of load [l] contributes to the
   objective: l · (Q(l/M) + z) · W2. *)
let queue_term problem ~server l =
  let rho = float_of_int l /. float_of_int (max 1 problem.capacities.(server)) in
  float_of_int l
  *. (Cost.waiting_estimate problem.params ~rho +. problem.params.Cost.processing_time)
  *. problem.params.Cost.w_proc

let move_delta problem t ~host ~from_server ~to_server ~count =
  if from_server = to_server || count = 0 then 0.
  else begin
    let comm =
      problem.params.Cost.w_comm
      *. float_of_int count
      *. (problem.comm.(host).(to_server) -. problem.comm.(host).(from_server))
    in
    let la = t.server_loads.(from_server) and lb = t.server_loads.(to_server) in
    let queue =
      queue_term problem ~server:from_server (la - count)
      -. queue_term problem ~server:from_server la
      +. queue_term problem ~server:to_server (lb + count)
      -. queue_term problem ~server:to_server lb
    in
    comm +. queue
  end

let is_complete problem t =
  Array.for_all Fun.id
    (Array.mapi (fun i pop -> t.host_assigned.(i) = pop) problem.populations)

let overloaded problem t =
  List.filter
    (fun j -> t.server_loads.(j) > problem.capacities.(j))
    (List.init (Array.length problem.servers) Fun.id)

let server_label problem j = Netsim.Graph.label problem.graph problem.servers.(j)
let host_label problem i = Netsim.Graph.label problem.graph problem.hosts.(i)

let pp_table problem ppf t =
  let ns = Array.length problem.servers in
  Format.fprintf ppf "@[<v>%-8s" "Host";
  for j = 0 to ns - 1 do
    Format.fprintf ppf "%8s" (server_label problem j)
  done;
  Format.fprintf ppf "%8s@ " "Total";
  Array.iteri
    (fun i _ ->
      Format.fprintf ppf "%-8s" (host_label problem i);
      for j = 0 to ns - 1 do
        Format.fprintf ppf "%8d" t.matrix.(i).(j)
      done;
      Format.fprintf ppf "%8d@ " t.host_assigned.(i))
    problem.hosts;
  Format.fprintf ppf "%-8s" "Load";
  for j = 0 to ns - 1 do
    Format.fprintf ppf "%8d" t.server_loads.(j)
  done;
  Format.fprintf ppf "%8d@ "
    (Array.fold_left ( + ) 0 t.server_loads);
  Format.fprintf ppf "%-8s" "Util";
  for j = 0 to ns - 1 do
    Format.fprintf ppf "%8.2f" (utilization problem t j)
  done;
  Format.fprintf ppf "@]"
