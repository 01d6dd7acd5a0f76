(* Entries are versioned; a [None] value is a tombstone.  The wire
   payload is handled through a dedicated handler rather than the
   pipeline, so the store is self-contained. *)

type entry = { version : int; value : Netsim.Graph.node list option }

type wire = Put of Naming.Name.t * entry  (* primary -> secondary *)

module NameMap = Map.Make (Naming.Name)

type t = {
  engine : Dsim.Engine.t;
  net : wire Netsim.Net.t;
  replica_list : Netsim.Graph.node list;
  tables : (Netsim.Graph.node, entry NameMap.t ref) Hashtbl.t;
  mutable latest : entry NameMap.t;  (* authoritative versions *)
  mutable update_messages : int;
  mutable stale_reads : int;
  mutable resyncs : int;
}

let table t node =
  match Hashtbl.find_opt t.tables node with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Name_store: node %d is not a replica" node)

let primary t = List.hd t.replica_list
let replicas t = t.replica_list
let net t = t.net

let apply t node (Put (name, entry)) =
  let tbl = table t node in
  let keep =
    match NameMap.find_opt name !tbl with
    | Some existing -> existing.version >= entry.version
    | None -> false
  in
  if not keep then tbl := NameMap.add name entry !tbl

(* A refused send (a relay on the route is down right now) is retried
   while this entry is still the newest — a newer write supersedes the
   retry chain with its own puts. *)
let rec send_put t ~dst name entry =
  t.update_messages <- t.update_messages + 1;
  let accepted = Netsim.Net.send t.net ~src:(primary t) ~dst (Put (name, entry)) in
  if not accepted then
    Dsim.Engine.schedule_after t.engine 10. (fun () ->
        match NameMap.find_opt name t.latest with
        | Some newest when newest.version = entry.version ->
            send_put t ~dst name entry
        | Some _ | None -> ())

let create ~engine ~graph ~replicas:replica_list () =
  if replica_list = [] then invalid_arg "Name_store.create: no replicas";
  List.iter
    (fun v ->
      if not (Netsim.Graph.mem_node graph v) then
        invalid_arg "Name_store.create: unknown replica node")
    replica_list;
  let net = Netsim.Net.create ~engine graph in
  let t =
    {
      engine;
      net;
      replica_list;
      tables = Hashtbl.create 8;
      latest = NameMap.empty;
      update_messages = 0;
      stale_reads = 0;
      resyncs = 0;
    }
  in
  List.iter (fun v -> Hashtbl.replace t.tables v (ref NameMap.empty)) replica_list;
  List.iter
    (fun v ->
      Netsim.Net.set_handler net v (fun ~time:_ ~src:_ put -> apply t v put))
    replica_list;
  (* Anti-entropy: when a secondary recovers, the primary pushes every
     entry the secondary is missing. *)
  Netsim.Net.on_status_change net (fun ~time:_ node up ->
      if up && List.mem node t.replica_list && node <> primary t then begin
        let tbl = table t node in
        NameMap.iter
          (fun name entry ->
            let stale =
              match NameMap.find_opt name !tbl with
              | Some held -> held.version < entry.version
              | None -> true
            in
            if stale then begin
              t.resyncs <- t.resyncs + 1;
              send_put t ~dst:node name entry
            end)
          t.latest
      end);
  t

let write t name value =
  if not (Netsim.Net.is_up t.net (primary t)) then
    invalid_arg "Name_store: primary is down";
  let version =
    match NameMap.find_opt name t.latest with Some e -> e.version + 1 | None -> 1
  in
  let entry = { version; value } in
  t.latest <- NameMap.add name entry t.latest;
  (* Local apply at the primary, then async propagation. *)
  apply t (primary t) (Put (name, entry));
  List.iter
    (fun dst -> if dst <> primary t then send_put t ~dst name entry)
    t.replica_list

let register t name authority = write t name (Some authority)
let unregister t name = write t name None

let lookup t ~at name =
  let tbl = table t at in
  let held = NameMap.find_opt name !tbl in
  let newest = NameMap.find_opt name t.latest in
  (match (held, newest) with
  | Some h, Some n when h.version < n.version -> t.stale_reads <- t.stale_reads + 1
  | None, Some _ -> t.stale_reads <- t.stale_reads + 1
  | _ -> ());
  match held with Some { value; _ } -> value | None -> None

let version_at t ~at name =
  match NameMap.find_opt name !(table t at) with Some e -> e.version | None -> 0

let lag t name =
  match NameMap.find_opt name t.latest with
  | None -> 0
  | Some newest ->
      List.length
        (List.filter
           (fun v ->
             match NameMap.find_opt name !(table t v) with
             | Some held -> held.version < newest.version
             | None -> true)
           t.replica_list)

let converged t = NameMap.for_all (fun name _ -> lag t name = 0) t.latest

let update_messages t = t.update_messages
let stale_reads t = t.stale_reads
let resyncs t = t.resyncs
