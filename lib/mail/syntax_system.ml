type wire = unit Pipeline.wire

type config = {
  replication : int;
  users_per_host : int;
  retry_timeout : float;
  resubmit_timeout : float;
  max_retries : int;
  mailbox_policy : Mailbox.policy;
  cache_capacity : int option;
  bandwidth : float option;
  service_rate : float option;
  loss_rate : float;
  span_sample : int;
}

let default_config =
  {
    replication = 3;
    users_per_host = 5;
    retry_timeout = 50.;
    resubmit_timeout = 400.;
    max_retries = 50;
    mailbox_policy = Mailbox.Delete_on_retrieve;
    cache_capacity = None;
    bandwidth = None;
    service_rate = None;
    loss_rate = 0.;
    span_sample = 1;
  }

type state = {
  config : config;
  caches : (Netsim.Graph.node, Netsim.Graph.node list Naming.Cache.t) Hashtbl.t;
  bounced : (Message.id, unit) Hashtbl.t;
}

type t = (unit, state) Core.t

include Core.Ops

(* --- §4.1 resolution caches and §4.2 bounces ----------------------------- *)

let cache_of t node =
  let s = Core.state t in
  match s.config.cache_capacity with
  | None -> None
  | Some capacity -> (
      match Hashtbl.find_opt s.caches node with
      | Some c -> Some c
      | None ->
          let c = Naming.Cache.create ~capacity () in
          Hashtbl.replace s.caches node c;
          Some c)

let resolution_cache_stats t =
  Hashtbl.fold
    (fun _ c (h, m) -> (h + Naming.Cache.hits c, m + Naming.Cache.misses c))
    (Core.state t).caches (0, 0)

(* stale cached resolutions for a departed name must not survive *)
let invalidate_caches t name =
  Hashtbl.iter (fun _ cache -> Naming.Cache.invalidate cache name) (Core.state t).caches

let bounce_prefix = "DELIVERY FAILURE: "

(* §4.2: undeliverable mail is "returned with proper error messages".
   The bounce lands in the original sender's own mailbox; bounces are
   never bounced again. *)
let bounce t (msg : Message.t) ~reason =
  let bounced = (Core.state t).bounced in
  if
    (not (String.starts_with ~prefix:bounce_prefix msg.Message.subject))
    && not (Hashtbl.mem bounced msg.Message.id)
  then begin
    Hashtbl.replace bounced msg.Message.id ();
    match Core.find_agent t msg.Message.sender with
    | None -> Core.count t "bounce_undeliverable"
    | Some sender_agent ->
        Core.count t "bounces";
        let bounce_msg =
          Core.new_message t ~sender:msg.Message.sender ~recipient:msg.Message.sender
            ~subject:(bounce_prefix ^ msg.Message.subject)
            ~body:
              (Printf.sprintf "message to %s could not be delivered: %s"
                 (Naming.Name.to_string msg.Message.recipient)
                 reason)
            ~at:(now t) ()
        in
        Pipeline.submit (Core.pipeline t) ~sender_agent ~msg:bounce_msg
  end

let hooks =
  {
    Core.default_hooks with
    cached_authority =
      (fun t ~at name ->
        match cache_of t at with
        | Some cache -> Naming.Cache.find cache name
        | None -> None);
    on_forward_resolved =
      (fun t ~at name authority ->
        match cache_of t at with
        | Some cache when authority <> [] -> Naming.Cache.add cache name authority
        | Some _ | None -> ());
    on_undeliverable = bounce;
    on_redirected =
      (fun t msg ~old_name:_ ->
        (* §3.1.4: tell the sender about the rename so future mail
           skips the redirection. *)
        Core.count t "rename_notices";
        match Core.find_agent t msg.Message.sender with
        | Some sender_agent ->
            ignore
              (Netsim.Net.send (net t)
                 ~src:(List.hd (User_agent.authority sender_agent))
                 ~dst:(User_agent.host sender_agent)
                 (Pipeline.Notify (msg.Message.sender, msg.Message.id)))
        | None -> ());
  }

(* --- reconfiguration (§3.1.3a) and migration (§3.1.4) -------------------- *)

(* A new or moved user's authority list: the servers nearest its host. *)
let nearest_chain t host =
  List.filteri (fun i _ -> i < (Core.state t).config.replication) (nearest_servers t host)

let add_user t ~host ~user =
  let g = graph t in
  if not (Netsim.Graph.mem_node g host) then
    invalid_arg "Syntax_system.add_user: unknown host";
  let name =
    Naming.Name.make ~region:(Core.region_of_node g host) ~host:(Netsim.Graph.label g host)
      ~user
  in
  ignore (Core.register_user t ~name ~host ~authority:(nearest_chain t host));
  Core.count t "users_added";
  name

let remove_user t name =
  Core.unregister_user t name;
  invalidate_caches t name;
  Core.count t "users_removed"

let migrate_user t name ~new_host =
  let new_name =
    Core.rename t name ~new_host ~authority:(fun _ -> nearest_chain t new_host)
  in
  invalidate_caches t name;
  new_name

(* --- construction ------------------------------------------------------ *)

let create ?(config = default_config) (site : Netsim.Topology.mail_site) =
  if config.replication <= 0 then invalid_arg "Syntax_system.create: replication <= 0";
  if config.users_per_host <= 0 then
    invalid_arg "Syntax_system.create: users_per_host <= 0";
  (* Authority chains: balanced primary assignment + §3.1.1 secondary
     assignment ({!Loadbalance.Replicas}), load-spread so one crash
     cannot dump all failover traffic on a single neighbour.  The
     effective replication factor is capped here, explicitly — assign
     itself refuses infeasible chain lengths. *)
  let problem = Loadbalance.Assignment.problem_of_site site in
  let assignment, _stats = Loadbalance.Balancer.run problem in
  let effective_replication = min config.replication (List.length site.servers) in
  let replicas =
    Loadbalance.Replicas.assign ~replication:effective_replication problem assignment
  in
  let host_index = Hashtbl.create 16 in
  Array.iteri (fun i h -> Hashtbl.replace host_index h i) problem.Loadbalance.Assignment.hosts;
  let { users_per_host; retry_timeout; resubmit_timeout; max_retries; mailbox_policy;
        bandwidth; service_rate; loss_rate; span_sample; _ } = config in
  Core.create ~design:"syntax" ~users_per_host ~retry_timeout ~resubmit_timeout ~max_retries
    ~mailbox_policy ~bandwidth ~service_rate ~loss_rate ~span_sample ~hooks
    ~authority:(fun _ ~host ~slot _ ->
      Loadbalance.Replicas.chain_for replicas ~host:(Hashtbl.find host_index host)
        ~user_slot:slot)
    { config; caches = Hashtbl.create 8; bounced = Hashtbl.create 8 }
    site
