type ctrl =
  | Location_update of Naming.Name.t * Netsim.Graph.node * bool
      (* name, current host, and whether the receiving server should
         fan the update out to its regional peers. *)

type wire = ctrl Pipeline.wire

type config = {
  replication : int;
  users_per_host : int;
  hash_groups : int;
  retry_timeout : float;
  resubmit_timeout : float;
  max_retries : int;
  mailbox_policy : Mailbox.policy;
  bandwidth : float option;
  service_rate : float option;
  loss_rate : float;
  span_sample : int;
}

let default_config =
  {
    replication = 3;
    users_per_host = 5;
    hash_groups = 8;
    retry_timeout = 50.;
    resubmit_timeout = 400.;
    max_retries = 50;
    mailbox_policy = Mailbox.Delete_on_retrieve;
    bandwidth = None;
    service_rate = None;
    loss_rate = 0.;
    span_sample = 1;
  }

type state = {
  config : config;
  primary_hosts : (Naming.Name.t, Netsim.Graph.node) Hashtbl.t;
  locations : (Naming.Name.t, Netsim.Graph.node) Hashtbl.t;
      (* the regionally shared current-location table; gossip messages
         carry its updates for traffic accounting. *)
  mutable groups : int;
  retrieval_costs : Dsim.Stats.Summary.t;
}

type t = (ctrl, state) Core.t

include Core.Ops

(* Authority servers of a name: rotate the region's server list by the
   name's hash group — host-independent by construction. *)
let group_authority t name =
  match Core.region_servers t (Naming.Name.region name) with
  | [] -> []
  | servers ->
      let s = Core.state t in
      let arr = Array.of_list servers in
      let n = Array.length arr in
      let g = Naming.Name.hash_group ~groups:s.groups name in
      let start = g mod n in
      List.init (min s.config.replication n) (fun i -> arr.((start + i) mod n))

(* A user's authority list: the hash group's, or every server when the
   region has none. *)
let chain_of t name =
  match group_authority t name with [] -> server_nodes t | chain -> chain

let primary_host t name =
  match Hashtbl.find_opt (Core.state t).primary_hosts name with
  | Some h -> h
  | None ->
      invalid_arg
        (Printf.sprintf "Location_system: unknown user %s" (Naming.Name.to_string name))

let current_location t name =
  match Hashtbl.find_opt (Core.state t).locations name with
  | Some h -> h
  | None -> primary_host t name

let retrieval_cost_stats t = (Core.state t).retrieval_costs

(* The nearest server that is up now, if any. *)
let nearest_up_server t host =
  List.find_opt (fun s -> Netsim.Net.is_up (net t) s) (nearest_servers t host)

(* §3.2.2c: the user's host talks to the nearest active server, which
   relays the polls to the authority servers.  The communication cost
   of one retrieval is the host↔relay round trip plus the relay's
   round trips to each polled authority server; a roamed user far from
   their hash group pays visibly more ("remote access is usually slow
   and imposes large overhead").  No sample is recorded while every
   server is down. *)
let record_retrieval_cost t a (stats : User_agent.check_stats) =
  let host = User_agent.host a in
  match nearest_up_server t host with
  | None -> ()
  | Some relay ->
      let d_host_relay = Netsim.Net.distance (net t) host relay in
      let polled =
        (* approximate the polled set: the first [polls] servers of
           the authority list *)
        List.filteri (fun i _ -> i < stats.User_agent.polls) (User_agent.authority a)
      in
      let d_polls =
        List.fold_left
          (fun acc srv -> acc +. (2. *. Netsim.Net.distance (net t) relay srv))
          0. polled
      in
      if relay <> host && List.mem relay polled then Core.count t "relay_is_authority";
      if not (List.mem relay (User_agent.authority a)) then Core.count t "relay_checks";
      Dsim.Stats.Summary.add (retrieval_cost_stats t) ((2. *. d_host_relay) +. d_polls)

let login t name ~host =
  let a = agent t name in
  let region = Naming.Name.region name in
  if not (String.equal (Core.region_of_node (graph t) host) region) then
    invalid_arg
      (Printf.sprintf "Location_system.login: host %s is outside region %s"
         (Netsim.Graph.label (graph t) host)
         region);
  User_agent.set_host a host;
  Hashtbl.replace (Core.state t).locations name host;
  Core.count t "logins";
  (* Inform the nearest active server; it gossips the new location to
     its regional peers so any of them can route the alert signal. *)
  (match nearest_up_server t host with
  | None -> Core.count t "login_unserved"
  | Some nearest ->
      ignore
        (Netsim.Net.send (net t) ~src:host ~dst:nearest
           (Pipeline.Ctrl (Location_update (name, host, true)))));
  (* §3.2.2c: logging on triggers retrieval of pending mail. *)
  check_mail t name

(* A location update reached [node]: record it, and if it came from the
   login itself, gossip it to the node's regional peers. *)
let on_location_update t node ~time:_ ~src:_ (Location_update (name, host, fan_out)) =
  Hashtbl.replace (Core.state t).locations name host;
  Core.count t "location_updates";
  if fan_out then
    List.iter
      (fun peer ->
        if peer <> node then begin
          Core.count t "location_gossip";
          ignore
            (Netsim.Net.send (net t) ~src:node ~dst:peer
               (Pipeline.Ctrl (Location_update (name, host, false))))
        end)
      (Core.region_servers t (Core.region_of_node (graph t) node))

let hooks =
  {
    Core.default_hooks with
    authority_of = group_authority;
    authority_of_uid = (fun t uid -> group_authority t (Core.name_of_uid t uid));
    notify_target = (fun t a -> current_location t (User_agent.name a));
    submit_servers = (fun t a -> nearest_servers t (User_agent.host a));
    on_ctrl = on_location_update;
    on_check = record_retrieval_cost;
    candidates =
      (fun t host -> Core.region_servers t (Core.region_of_node (graph t) host));
  }

(* --- reconfiguration and migration ------------------------------------- *)

let rebalance_hash t ~groups =
  if groups <= 0 then invalid_arg "Location_system.rebalance_hash: groups <= 0";
  let s = Core.state t in
  let moved = ref 0 in
  let old_groups = s.groups in
  Core.iter_agents t (fun name a ->
      let before = group_authority t name in
      s.groups <- groups;
      let after = group_authority t name in
      s.groups <- old_groups;
      if before <> after then begin
        incr moved;
        User_agent.set_authority a after
      end);
  s.groups <- groups;
  Core.count ~by:!moved t "hash_moves";
  !moved

let migrate_region t name ~new_host =
  let g = graph t in
  if
    Netsim.Graph.mem_node g new_host
    && String.equal (Core.region_of_node g new_host) (Naming.Name.region name)
  then invalid_arg "Location_system.migrate_region: same-region move is free, use login";
  let new_name = Core.rename t name ~new_host ~authority:(chain_of t) in
  let s = Core.state t in
  Hashtbl.replace s.primary_hosts new_name new_host;
  Hashtbl.remove s.locations name;
  Hashtbl.remove s.primary_hosts name;
  new_name

(* --- construction ------------------------------------------------------- *)

let create ?(config = default_config) ?(design_label = "location")
    (site : Netsim.Topology.mail_site) =
  if config.replication <= 0 then invalid_arg "Location_system.create: replication <= 0";
  if config.hash_groups <= 0 then invalid_arg "Location_system.create: hash_groups <= 0";
  let { users_per_host; retry_timeout; resubmit_timeout; max_retries; mailbox_policy;
        bandwidth; service_rate; loss_rate; span_sample; _ } = config in
  let primary_hosts = Hashtbl.create 64 in
  Core.create ~design:design_label ~users_per_host ~retry_timeout ~resubmit_timeout
    ~max_retries ~mailbox_policy ~bandwidth ~service_rate ~loss_rate ~span_sample ~hooks
    ~authority:(fun t ~host ~slot:_ name ->
      (* a user's primary host is the one it is created on *)
      Hashtbl.replace primary_hosts name host;
      chain_of t name)
    {
      config;
      primary_hosts;
      locations = Hashtbl.create 64;
      groups = config.hash_groups;
      retrieval_costs = Dsim.Stats.Summary.create ();
    }
    site
