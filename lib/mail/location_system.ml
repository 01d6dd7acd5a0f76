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

type t = {
  config : config;
  engine : Dsim.Engine.t;
  pipeline : ctrl Pipeline.t;
  graph : Netsim.Graph.t;
  storage : Replica_group.t;
  region_servers : (string, Netsim.Graph.node list) Hashtbl.t;
  nearest : Netsim.Graph.node list option array;
      (* per-host [nearest_servers] answers, indexed by node id and
         filled on a host's first ask. *)
  agents : (Naming.Name.t, User_agent.t) Hashtbl.t;
  intern : Naming.Intern.t;
  mutable agents_by_uid : User_agent.t option array;
  primary_hosts : (Naming.Name.t, Netsim.Graph.node) Hashtbl.t;
  locations : (Naming.Name.t, Netsim.Graph.node) Hashtbl.t;
      (* the regionally shared current-location table; gossip messages
         carry its updates for traffic accounting. *)
  spaces : (string, Naming.Name_space.t) Hashtbl.t;
  redirects : (Naming.Name.t, Naming.Name.t) Hashtbl.t;
  redirects_uid : (int, int) Hashtbl.t;
  mutable groups : int;
  retrieval_costs : Dsim.Stats.Summary.t;
  counters : Dsim.Stats.Counter.t;
  metrics : Telemetry.Registry.t;
  tracer : Telemetry.Tracer.t;
  trace : Dsim.Trace.t;
  ledger : Ledger.t;
  mutable next_id : Message.id;
  mutable submitted : Message.t list;
}

let engine t = t.engine
let net t = Pipeline.net t.pipeline
let graph t = t.graph
let now t = Dsim.Engine.now t.engine
let counters t = t.counters
let metrics t = t.metrics
let tracer t = t.tracer
let trace t = t.trace
let ledger t = t.ledger
let submitted t = t.submitted

let users t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.agents []
  |> List.sort Naming.Name.compare

let agent t name =
  match Hashtbl.find_opt t.agents name with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "Location_system: unknown user %s" (Naming.Name.to_string name))

let uid_of t name = Naming.Intern.intern t.intern name

let set_agent_uid t uid a =
  let n = Array.length t.agents_by_uid in
  if uid >= n then begin
    let arr = Array.make (max (2 * n) (uid + 1)) None in
    Array.blit t.agents_by_uid 0 arr 0 n;
    t.agents_by_uid <- arr
  end;
  t.agents_by_uid.(uid) <- a

let agent_by_uid t uid =
  if uid >= 0 && uid < Array.length t.agents_by_uid then t.agents_by_uid.(uid)
  else None

let uids t =
  let acc = ref [] in
  for uid = Array.length t.agents_by_uid - 1 downto 0 do
    (match t.agents_by_uid.(uid) with
    | Some _ -> acc := uid :: !acc
    | None -> ())
  done;
  !acc

let storage t = t.storage
let server_nodes t = Replica_group.nodes t.storage
let space t region = Hashtbl.find_opt t.spaces region

let count ?by t key = Dsim.Stats.Counter.incr ?by t.counters key

let region_of_node g v =
  let r = Netsim.Graph.region g v in
  if String.equal r "" then "r0" else r

(* Authority servers of a name: rotate the region's server list by the
   name's hash group — host-independent by construction. *)
let authority_of t name =
  match Hashtbl.find_opt t.region_servers (Naming.Name.region name) with
  | None | Some [] -> []
  | Some servers ->
      let arr = Array.of_list servers in
      let n = Array.length arr in
      let g = Naming.Name_space.hash_group ~groups:t.groups name in
      let start = g mod n in
      List.init (min t.config.replication n) (fun i -> arr.((start + i) mod n))

let primary_host t name =
  match Hashtbl.find_opt t.primary_hosts name with
  | Some h -> h
  | None ->
      invalid_arg
        (Printf.sprintf "Location_system: unknown user %s" (Naming.Name.to_string name))

let current_location t name =
  match Hashtbl.find_opt t.locations name with
  | Some h -> h
  | None -> primary_host t name

(* Servers of the host's region ordered by static graph distance from
   it — "a user always contacts the nearest active server".  The graph
   and the region server lists never change after [create], so each
   host's order is computed once, on its first ask. *)
let nearest_servers t host =
  match t.nearest.(host) with
  | Some servers -> servers
  | None ->
      let servers =
        match Hashtbl.find_opt t.region_servers (region_of_node t.graph host) with
        | None -> []
        | Some servers ->
            Netsim.Shortest_path.by_distance
              (Netsim.Shortest_path.dijkstra t.graph host)
              servers
      in
      t.nearest.(host) <- Some servers;
      servers

let rec canonical_uid t uid =
  match Hashtbl.find_opt t.redirects_uid uid with
  | Some target ->
      count t "redirects";
      canonical_uid t target
  | None -> uid

(* --- operations -------------------------------------------------------- *)

let view t = Replica_group.view t.storage

(* §3.2.2c: the user's host talks to the nearest active server, which
   relays the polls to the authority servers.  The communication cost
   of one retrieval is the host↔relay round trip plus the relay's
   round trips to each polled authority server; a roamed user far from
   their hash group pays visibly more ("remote access is usually slow
   and imposes large overhead"). *)
let record_retrieval_cost t a (stats : User_agent.check_stats) =
  let host = User_agent.host a in
  match nearest_servers t host with
  | [] -> ()
  | relay :: _ ->
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
      if relay <> host && List.mem relay polled then count t "relay_is_authority";
      if not (List.mem relay (User_agent.authority a)) then count t "relay_checks";
      Dsim.Stats.Summary.add t.retrieval_costs ((2. *. d_host_relay) +. d_polls)

let check_mail t name =
  let a = agent t name in
  let stats =
    User_agent.get_mail ~tracer:t.tracer ~ledger:t.ledger a ~view:(view t) ~now:(now t)
  in
  count t "checks";
  count ~by:stats.User_agent.polls t "polls";
  count ~by:stats.User_agent.failed_polls t "failed_polls";
  count ~by:stats.User_agent.retrieved t "retrieved";
  record_retrieval_cost t a stats;
  stats

let compact t =
  let prunable = Pipeline.prunable t.pipeline ~ledger:t.ledger in
  let dropped =
    Hashtbl.fold
      (fun _ a acc -> acc + User_agent.compact a prunable)
      t.agents
      (Pipeline.compact t.pipeline prunable
      + Replica_group.compact t.storage prunable)
  in
  if dropped > 0 then count ~by:dropped t "compacted";
  dropped

let publish_health t =
  Pipeline.publish_gauges t.pipeline t.metrics;
  Replica_group.publish_gauges t.storage ~users:(fun () -> uids t) t.metrics

let retrieval_cost_stats t = t.retrieval_costs

let check_mail_at t ~at name =
  ignore
    (Dsim.Engine.schedule_at ~category:"mail.check" t.engine at (fun () ->
         ignore (check_mail t name)))

let login t name ~host =
  let a = agent t name in
  let region = Naming.Name.region name in
  if not (String.equal (region_of_node t.graph host) region) then
    invalid_arg
      (Printf.sprintf "Location_system.login: host %s is outside region %s"
         (Netsim.Graph.label t.graph host)
         region);
  User_agent.set_host a host;
  Hashtbl.replace t.locations name host;
  count t "logins";
  (* Inform the nearest active server; it gossips the new location to
     its regional peers so any of them can route the alert signal. *)
  (match List.find_opt (fun s -> Netsim.Net.is_up (net t) s) (nearest_servers t host) with
  | None -> count t "login_unserved"
  | Some nearest ->
      ignore
        (Netsim.Net.send (net t) ~src:host ~dst:nearest
           (Pipeline.Ctrl (Location_update (name, host, true)))));
  (* §3.2.2c: logging on triggers retrieval of pending mail. *)
  check_mail t name

let submit_at t ~at ~sender ~recipient ?(subject = "") ?(body = "") () =
  let sender_agent = agent t sender in
  (if not (Hashtbl.mem t.agents recipient || Hashtbl.mem t.redirects recipient) then
     invalid_arg
       (Printf.sprintf "Location_system.submit: unknown recipient %s"
          (Naming.Name.to_string recipient)));
  let id = t.next_id in
  t.next_id <- id + 1;
  let msg =
    Message.create ~id ~sender ~recipient ~recipient_uid:(uid_of t recipient)
      ~subject ~body ~submitted_at:at ()
  in
  t.submitted <- msg :: t.submitted;
  ignore
    (Dsim.Engine.schedule_at ~category:"mail.submit" t.engine at (fun () ->
         Pipeline.submit t.pipeline ~sender_agent ~msg));
  msg

let submit t ~sender ~recipient ?subject ?body () =
  submit_at t ~at:(now t) ~sender ~recipient ?subject ?body ()

let run_until t horizon = Dsim.Engine.run ~until:horizon t.engine

let quiesce ?(step = 1000.) ?(max_steps = 10000) t =
  let rec go n =
    if n < max_steps && Dsim.Engine.pending t.engine > 0 then begin
      Dsim.Engine.run ~until:(now t +. step) t.engine;
      go (n + 1)
    end
  in
  go 0

(* --- reconfiguration and migration ------------------------------------- *)

let rebalance_hash t ~groups =
  if groups <= 0 then invalid_arg "Location_system.rebalance_hash: groups <= 0";
  let moved = ref 0 in
  let old_groups = t.groups in
  Hashtbl.iter
    (fun name a ->
      let before = authority_of t name in
      t.groups <- groups;
      let after = authority_of t name in
      t.groups <- old_groups;
      if before <> after then begin
        incr moved;
        User_agent.set_authority a after
      end)
    t.agents;
  t.groups <- groups;
  Hashtbl.iter
    (fun _ sp ->
      match Naming.Name_space.scheme sp with
      | Naming.Name_space.By_hash _ ->
          ignore (Naming.Name_space.rebalance_hash sp ~k:groups)
      | Naming.Name_space.By_region | Naming.Name_space.By_host -> ())
    t.spaces;
  count ~by:!moved t "hash_moves";
  !moved

let migrate_region t name ~new_host =
  let _ = agent t name in
  if not (Netsim.Graph.mem_node t.graph new_host) then
    invalid_arg "Location_system.migrate_region: unknown host";
  let new_region = region_of_node t.graph new_host in
  if String.equal new_region (Naming.Name.region name) then
    invalid_arg "Location_system.migrate_region: same-region move is free, use login";
  let new_name =
    let host_label = Netsim.Graph.label t.graph new_host in
    let candidate user = Naming.Name.make ~region:new_region ~host:host_label ~user in
    let base = Naming.Name.user name in
    let rec pick i =
      let n = candidate (if i = 0 then base else Printf.sprintf "%s-m%d" base i) in
      if Hashtbl.mem t.agents n || Hashtbl.mem t.redirects n then pick (i + 1) else n
    in
    pick 0
  in
  let authority = authority_of t new_name in
  let authority = if authority = [] then server_nodes t else authority in
  let new_uid = uid_of t new_name in
  let a' = User_agent.create ~uid:new_uid ~name:new_name ~host:new_host ~authority () in
  Hashtbl.replace t.agents new_name a';
  set_agent_uid t new_uid (Some a');
  Hashtbl.replace t.primary_hosts new_name new_host;
  (match space t new_region with
  | Some sp ->
      Naming.Name_space.register sp new_name;
      Naming.Name_space.assign_context sp
        (Naming.Name_space.context_of sp new_name)
        authority
  | None -> ());
  (match space t (Naming.Name.region name) with
  | Some sp -> Naming.Name_space.unregister sp name
  | None -> ());
  Hashtbl.remove t.agents name;
  let old_uid = uid_of t name in
  set_agent_uid t old_uid None;
  Hashtbl.remove t.locations name;
  Hashtbl.remove t.primary_hosts name;
  Hashtbl.replace t.redirects name new_name;
  Hashtbl.replace t.redirects_uid old_uid new_uid;
  count t "migrations";
  new_name

let redirect_target t name = Hashtbl.find_opt t.redirects name

(* --- construction ------------------------------------------------------- *)

let create ?(config = default_config) ?(design_label = "location")
    (site : Netsim.Topology.mail_site) =
  if config.replication <= 0 then invalid_arg "Location_system.create: replication <= 0";
  if config.hash_groups <= 0 then invalid_arg "Location_system.create: hash_groups <= 0";
  let engine = Dsim.Engine.create () in
  let trace = Dsim.Trace.create () in
  let counters = Dsim.Stats.Counter.create () in
  let tracer = Telemetry.Tracer.create ~sample:config.span_sample () in
  let metrics = Telemetry.Registry.create ~labels:[ ("design", design_label) ] () in
  let ledger = Ledger.create () in
  Telemetry.Probe.attach_engine metrics engine;
  let intern = Naming.Intern.create ~capacity:256 () in
  let region_servers = Hashtbl.create 4 in
  let agents = Hashtbl.create 64 in
  let primary_hosts = Hashtbl.create 64 in
  let locations = Hashtbl.create 64 in
  let spaces = Hashtbl.create 4 in
  let redirects = Hashtbl.create 4 in
  let t_ref = ref None in
  let the_t () = match !t_ref with Some t -> t | None -> assert false in
  let storage =
    Replica_group.create ~mailbox_policy:config.mailbox_policy ~ledger ~tracer
      ~metrics ~counters
      ~chain_of:(fun uid ->
        let t = the_t () in
        authority_of t (Naming.Intern.name t.intern (canonical_uid t uid)))
      ~is_up:(fun node -> Netsim.Net.is_up (Pipeline.net (the_t ()).pipeline) node)
      ()
  in
  List.iter
    (fun node ->
      let region = region_of_node site.graph node in
      Replica_group.add_holder storage ~node ~region;
      let existing =
        match Hashtbl.find_opt region_servers region with Some l -> l | None -> []
      in
      Hashtbl.replace region_servers region (existing @ [ node ]);
      if not (Hashtbl.mem spaces region) then
        Hashtbl.replace spaces region
          (Naming.Name_space.create (Naming.Name_space.By_hash config.hash_groups)))
    site.servers;
  let callbacks =
    {
      Pipeline.region_servers =
        (fun region ->
          match Hashtbl.find_opt region_servers region with Some l -> l | None -> []);
      uid_of = (fun name -> Naming.Intern.intern intern name);
      name_of_uid = (fun uid -> Naming.Intern.name intern uid);
      canonical_uid = (fun uid -> canonical_uid (the_t ()) uid);
      authority_of_uid =
        (fun uid -> authority_of (the_t ()) (Naming.Intern.name intern uid));
      notify_target_uid =
        (fun uid ->
          let t = the_t () in
          match agent_by_uid t uid with
          | Some a -> Some (current_location t (User_agent.name a))
          | None -> None);
      submit_servers = (fun a -> nearest_servers (the_t ()) (User_agent.host a));
      on_deposit = (fun _ ~on:_ ~ack:_ -> ());
      cached_authority = (fun ~at:_ _ -> None);
      on_forward_resolved = (fun ~at:_ _ _ -> ());
      on_undeliverable =
        (fun _ ~reason:_ -> count (the_t ()) "undeliverable");
      on_redirected = (fun _ ~old_name:_ -> count (the_t ()) "rename_notices");
      on_ctrl =
        (fun node ~time:_ ~src:_ (Location_update (name, host, fan_out)) ->
          let t = the_t () in
          Hashtbl.replace t.locations name host;
          count t "location_updates";
          if fan_out then
            (* Only the first (nearest) server gossips to its peers. *)
            match Hashtbl.find_opt t.region_servers (region_of_node t.graph node) with
            | Some peers ->
                List.iter
                  (fun peer ->
                    if peer <> node then begin
                      count t "location_gossip";
                      ignore
                        (Netsim.Net.send (Pipeline.net t.pipeline) ~src:node ~dst:peer
                           (Pipeline.Ctrl (Location_update (name, host, false))))
                    end)
                  peers
            | None -> ());
    }
  in
  let route_anchors =
    (* Anchor routing on the infrastructure: every node that is not a
       user host (servers, gateways, interior switches). *)
    let is_host = Array.make (Netsim.Graph.node_count site.graph) false in
    List.iter (fun (h, _) -> is_host.(h) <- true) site.hosts;
    List.filter
      (fun v -> not is_host.(v))
      (List.init (Netsim.Graph.node_count site.graph) Fun.id)
  in
  let pipeline =
    Pipeline.create ~engine ~graph:site.graph ~trace ~counters ~metrics ~tracer
      ?bandwidth:config.bandwidth ~loss_rate:config.loss_rate ~ledger ~route_anchors ~storage
      {
        Pipeline.default_pipeline_config with
        retry_timeout = config.retry_timeout;
        resubmit_timeout = config.resubmit_timeout;
        max_retries = config.max_retries;
        service_rate = config.service_rate;
        service_seed = 0;
      }
      callbacks
  in
  let t =
    {
      config;
      engine;
      pipeline;
      graph = site.graph;
      storage;
      region_servers;
      nearest = Array.make (Netsim.Graph.node_count site.graph) None;
      agents;
      intern;
      agents_by_uid = Array.make 256 None;
      primary_hosts;
      locations;
      spaces;
      redirects;
      redirects_uid = Hashtbl.create 4;
      groups = config.hash_groups;
      retrieval_costs = Dsim.Stats.Summary.create ();
      counters;
      metrics;
      tracer;
      trace;
      ledger;
      next_id = 0;
      submitted = [];
    }
  in
  t_ref := Some t;
  Netsim.Net.on_status_change (net t) (fun ~time node up ->
      if up && Replica_group.mem_holder storage node then
        Replica_group.note_recovery storage ~node ~at:time);
  List.iter
    (fun (host, _population) ->
      let region = region_of_node site.graph host in
      let host_label = Netsim.Graph.label site.graph host in
      for k = 0 to config.users_per_host - 1 do
        let name =
          Naming.Name.make ~region ~host:host_label ~user:(Printf.sprintf "u%d" k)
        in
        let authority = authority_of t name in
        let authority = if authority = [] then server_nodes t else authority in
        let uid = uid_of t name in
        let a = User_agent.create ~uid ~name ~host ~authority () in
        Hashtbl.replace agents name a;
        set_agent_uid t uid (Some a);
        Hashtbl.replace primary_hosts name host;
        let sp = Hashtbl.find spaces region in
        Naming.Name_space.register sp name;
        Naming.Name_space.assign_context sp
          (Naming.Name_space.context_of sp name)
          authority
      done)
    site.hosts;
  t
