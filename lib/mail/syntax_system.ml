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

type t = {
  config : config;
  engine : Dsim.Engine.t;
  pipeline : unit Pipeline.t;
  graph : Netsim.Graph.t;
  storage : Replica_group.t;
  region_servers : (string, Netsim.Graph.node list) Hashtbl.t;
  agents : (Naming.Name.t, User_agent.t) Hashtbl.t;
  intern : Naming.Intern.t;
      (* user names -> dense ids; the pipeline, storage and redirect
         hot paths all key on the id *)
  mutable agents_by_uid : User_agent.t option array;
  spaces : (string, Naming.Name_space.t) Hashtbl.t;
  redirects : (Naming.Name.t, Naming.Name.t) Hashtbl.t;
  redirects_uid : (int, int) Hashtbl.t;  (* mirror of [redirects], by id *)
  caches : (Netsim.Graph.node, Netsim.Graph.node list Naming.Cache.t) Hashtbl.t;
  bounced : (Message.id, unit) Hashtbl.t;
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
        (Printf.sprintf "Syntax_system: unknown user %s" (Naming.Name.to_string name))

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

let authority_of t name =
  match Hashtbl.find_opt t.agents name with
  | Some a -> User_agent.authority a
  | None -> []

let space t region = Hashtbl.find_opt t.spaces region

let count ?by t key = Dsim.Stats.Counter.incr ?by t.counters key

let rec canonical_uid t uid =
  match Hashtbl.find_opt t.redirects_uid uid with
  | Some target ->
      count t "redirects";
      canonical_uid t target
  | None -> uid

let region_of_node g v =
  let r = Netsim.Graph.region g v in
  if String.equal r "" then "r0" else r

(* --- submission ------------------------------------------------------ *)

let cache_of t node =
  match t.config.cache_capacity with
  | None -> None
  | Some capacity -> (
      match Hashtbl.find_opt t.caches node with
      | Some c -> Some c
      | None ->
          let c = Naming.Cache.create ~capacity () in
          Hashtbl.replace t.caches node c;
          Some c)

let resolution_cache_stats t =
  Hashtbl.fold
    (fun _ c (h, m) -> (h + Naming.Cache.hits c, m + Naming.Cache.misses c))
    t.caches (0, 0)

let bounce_prefix = "DELIVERY FAILURE: "

(* §4.2: undeliverable mail is "returned with proper error messages".
   The bounce lands in the original sender's own mailbox; bounces are
   never bounced again. *)
let bounce t (msg : Message.t) ~reason =
  let already_bounce =
    String.length msg.Message.subject >= String.length bounce_prefix
    && String.equal
         (String.sub msg.Message.subject 0 (String.length bounce_prefix))
         bounce_prefix
  in
  if (not already_bounce) && not (Hashtbl.mem t.bounced msg.Message.id) then begin
    Hashtbl.replace t.bounced msg.Message.id ();
    match Hashtbl.find_opt t.agents msg.Message.sender with
    | None -> count t "bounce_undeliverable"
    | Some sender_agent ->
        count t "bounces";
        let id = t.next_id in
        t.next_id <- id + 1;
        let bounce_msg =
          Message.create ~id ~sender:msg.Message.sender ~recipient:msg.Message.sender
            ~recipient_uid:(uid_of t msg.Message.sender)
            ~subject:(bounce_prefix ^ msg.Message.subject)
            ~body:
              (Printf.sprintf "message to %s could not be delivered: %s"
                 (Naming.Name.to_string msg.Message.recipient)
                 reason)
            ~submitted_at:(now t) ()
        in
        t.submitted <- bounce_msg :: t.submitted;
        Pipeline.submit t.pipeline ~sender_agent ~msg:bounce_msg
  end

let submit_at t ~at ~sender ~recipient ?(subject = "") ?(body = "") ?(parts = []) () =
  let sender_agent = agent t sender in
  (if not (Hashtbl.mem t.agents recipient || Hashtbl.mem t.redirects recipient) then
     invalid_arg
       (Printf.sprintf "Syntax_system.submit: unknown recipient %s"
          (Naming.Name.to_string recipient)));
  let id = t.next_id in
  t.next_id <- id + 1;
  let msg =
    Message.create ~id ~sender ~recipient ~recipient_uid:(uid_of t recipient)
      ~subject ~body ~parts ~submitted_at:at ()
  in
  t.submitted <- msg :: t.submitted;
  ignore
    (Dsim.Engine.schedule_at ~category:"mail.submit" t.engine at (fun () ->
         Pipeline.submit t.pipeline ~sender_agent ~msg));
  msg

let submit t ~sender ~recipient ?subject ?body ?parts () =
  submit_at t ~at:(now t) ~sender ~recipient ?subject ?body ?parts ()

(* --- retrieval -------------------------------------------------------- *)

let view t = Replica_group.view t.storage

let check_mail t name =
  let a = agent t name in
  let stats =
    User_agent.get_mail ~tracer:t.tracer ~ledger:t.ledger a ~view:(view t) ~now:(now t)
  in
  count t "checks";
  count ~by:stats.User_agent.polls t "polls";
  count ~by:stats.User_agent.failed_polls t "failed_polls";
  count ~by:stats.User_agent.retrieved t "retrieved";
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

let check_mail_at t ~at name =
  ignore
    (Dsim.Engine.schedule_at ~category:"mail.check" t.engine at (fun () ->
         ignore (check_mail t name)))

let run_until t horizon = Dsim.Engine.run ~until:horizon t.engine

let quiesce ?(step = 1000.) ?(max_steps = 10000) t =
  let rec go n =
    if n < max_steps && Dsim.Engine.pending t.engine > 0 then begin
      Dsim.Engine.run ~until:(now t +. step) t.engine;
      go (n + 1)
    end
  in
  go 0

(* §3.1.2c: "some policy of message archiving and clean-up must be
   implemented to protect the servers' storage from being used up". *)
let schedule_cleanup t ~period ~until ~max_age =
  if period <= 0. then invalid_arg "Syntax_system.schedule_cleanup: period <= 0";
  let rec arm at =
    if at <= until then
      ignore
        (Dsim.Engine.schedule_at ~category:"mail.cleanup" t.engine at (fun () ->
             let dropped =
               Replica_group.cleanup_all t.storage ~now:(now t) ~max_age
             in
             if dropped > 0 then count ~by:dropped t "archive_dropped";
             arm (at +. period)))
  in
  arm (now t +. period)

(* --- reconfiguration (§3.1.3a) ------------------------------------------ *)

let nearest_servers t ~host ~n =
  Netsim.Shortest_path.by_distance (Netsim.Shortest_path.dijkstra t.graph host)
    (server_nodes t)
  |> List.filteri (fun i _ -> i < n)

let add_user t ~host ~user =
  if not (Netsim.Graph.mem_node t.graph host) then
    invalid_arg "Syntax_system.add_user: unknown host";
  let region = region_of_node t.graph host in
  let name =
    Naming.Name.make ~region ~host:(Netsim.Graph.label t.graph host) ~user
  in
  if Hashtbl.mem t.agents name then
    invalid_arg
      (Printf.sprintf "Syntax_system.add_user: %s already exists"
         (Naming.Name.to_string name));
  let authority = nearest_servers t ~host ~n:t.config.replication in
  let authority = if authority = [] then server_nodes t else authority in
  let uid = uid_of t name in
  let a = User_agent.create ~uid ~name ~host ~authority () in
  Hashtbl.replace t.agents name a;
  set_agent_uid t uid (Some a);
  (match space t region with
  | Some sp ->
      Naming.Name_space.register sp name;
      Naming.Name_space.assign_context sp
        (Naming.Name_space.context_of sp name)
        authority
  | None -> ());
  count t "users_added";
  name

let remove_user t name =
  let _ = agent t name in
  Hashtbl.remove t.agents name;
  set_agent_uid t (uid_of t name) None;
  (match space t (Naming.Name.region name) with
  | Some sp -> Naming.Name_space.unregister sp name
  | None -> ());
  Hashtbl.iter (fun _ cache -> Naming.Cache.invalidate cache name) t.caches;
  count t "users_removed"

(* --- migration (§3.1.4) ------------------------------------------------ *)

let migrate_user t name ~new_host =
  let a = agent t name in
  if not (Netsim.Graph.mem_node t.graph new_host) then
    invalid_arg "Syntax_system.migrate_user: unknown host";
  let new_region = region_of_node t.graph new_host in
  (* Names are only locally unique: if the user token is taken on the
     destination host, uniquify it (the "temporary inconvenience" of a
     §3.1.4 rename). *)
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
  (* Add at the new location… *)
  let authority = nearest_servers t ~host:new_host ~n:t.config.replication in
  let new_uid = uid_of t new_name in
  let a' = User_agent.create ~uid:new_uid ~name:new_name ~host:new_host ~authority () in
  Hashtbl.replace t.agents new_name a';
  set_agent_uid t new_uid (Some a');
  (match space t new_region with
  | Some sp ->
      Naming.Name_space.register sp new_name;
      Naming.Name_space.assign_context sp
        (Naming.Name_space.context_of sp new_name)
        authority
  | None -> ());
  (* …then delete at the old location, leaving a redirection. *)
  (match space t (Naming.Name.region name) with
  | Some sp -> Naming.Name_space.unregister sp name
  | None -> ());
  Hashtbl.remove t.agents name;
  let old_uid = uid_of t name in
  set_agent_uid t old_uid None;
  Hashtbl.replace t.redirects name new_name;
  Hashtbl.replace t.redirects_uid old_uid new_uid;
  (* stale cached resolutions for the old name must not survive *)
  Hashtbl.iter (fun _ cache -> Naming.Cache.invalidate cache name) t.caches;
  count t "migrations";
  ignore a;
  new_name

let redirect_target t name = Hashtbl.find_opt t.redirects name

let queue_wait_stats t = Pipeline.queue_wait_stats t.pipeline
let server_utilisation t node = Pipeline.server_utilisation t.pipeline node

(* --- construction ------------------------------------------------------ *)

let create ?(config = default_config) (site : Netsim.Topology.mail_site) =
  if config.replication <= 0 then invalid_arg "Syntax_system.create: replication <= 0";
  if config.users_per_host <= 0 then
    invalid_arg "Syntax_system.create: users_per_host <= 0";
  let engine = Dsim.Engine.create () in
  let trace = Dsim.Trace.create () in
  let counters = Dsim.Stats.Counter.create () in
  let tracer = Telemetry.Tracer.create ~sample:config.span_sample () in
  let metrics = Telemetry.Registry.create ~labels:[ ("design", "syntax") ] () in
  let ledger = Ledger.create () in
  Telemetry.Probe.attach_engine metrics engine;
  let intern = Naming.Intern.create ~capacity:256 () in
  let region_servers = Hashtbl.create 4 in
  let agents = Hashtbl.create 64 in
  let spaces = Hashtbl.create 4 in
  let redirects = Hashtbl.create 4 in
  let t_ref = ref None in
  let the_t () = match !t_ref with Some t -> t | None -> assert false in
  (* The replica group owns every mailbox holder; chain/liveness are
     late-bound through the system so reconfiguration and migration
     stay visible to it. *)
  let storage =
    Replica_group.create ~mailbox_policy:config.mailbox_policy ~ledger ~tracer
      ~metrics ~counters
      ~chain_of:(fun uid ->
        let t = the_t () in
        match agent_by_uid t (canonical_uid t uid) with
        | Some a -> User_agent.authority a
        | None -> [])
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
        Hashtbl.replace spaces region (Naming.Name_space.create Naming.Name_space.By_host))
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
        (fun uid ->
          match agent_by_uid (the_t ()) uid with
          | Some a -> User_agent.authority a
          | None -> []);
      notify_target_uid =
        (fun uid ->
          match agent_by_uid (the_t ()) uid with
          | Some a -> Some (User_agent.host a)
          | None -> None);
      submit_servers = (fun a -> User_agent.authority a);
      on_deposit = (fun _ ~on:_ ~ack:_ -> ());
      cached_authority =
        (fun ~at name ->
          match cache_of (the_t ()) at with
          | Some cache -> Naming.Cache.find cache name
          | None -> None);
      on_forward_resolved =
        (fun ~at name authority ->
          let t = the_t () in
          match cache_of t at with
          | Some cache when authority <> [] -> Naming.Cache.add cache name authority
          | Some _ | None -> ());
      on_undeliverable = (fun msg ~reason -> bounce (the_t ()) msg ~reason);
      on_redirected =
        (fun msg ~old_name:_ ->
          (* §3.1.4: tell the sender about the rename so future mail
             skips the redirection. *)
          let t = the_t () in
          count t "rename_notices";
          match Hashtbl.find_opt t.agents msg.Message.sender with
          | Some sender_agent ->
              ignore
                (Netsim.Net.send (Pipeline.net t.pipeline)
                   ~src:(List.hd (User_agent.authority sender_agent))
                   ~dst:(User_agent.host sender_agent)
                   (Pipeline.Notify (msg.Message.sender, msg.Message.id)))
          | None -> ());
      on_ctrl = (fun _ ~time:_ ~src:_ () -> ());
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
      agents;
      intern;
      agents_by_uid = Array.make 256 None;
      spaces;
      redirects;
      redirects_uid = Hashtbl.create 4;
      caches = Hashtbl.create 8;
      bounced = Hashtbl.create 8;
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
  (* Authority chains: balanced primary assignment + §3.1.1 secondary
     assignment ({!Loadbalance.Replicas}), load-spread so one crash
     cannot dump all failover traffic on a single neighbour.  The
     effective replication factor is capped here, explicitly — assign
     itself refuses infeasible chain lengths. *)
  let problem = Loadbalance.Assignment.problem_of_site site in
  let assignment, _stats = Loadbalance.Balancer.run problem in
  let effective_replication = min config.replication (List.length site.servers) in
  let replicas =
    Loadbalance.Replicas.assign ~replication:effective_replication problem
      assignment
  in
  let host_index =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun i h -> Hashtbl.replace tbl h i) problem.Loadbalance.Assignment.hosts;
    tbl
  in
  List.iter
    (fun (host, _population) ->
      let region = region_of_node site.graph host in
      let host_label = Netsim.Graph.label site.graph host in
      let host_i = Hashtbl.find host_index host in
      if not (Hashtbl.mem spaces region) then
        Hashtbl.replace spaces region (Naming.Name_space.create Naming.Name_space.By_host);
      for k = 0 to config.users_per_host - 1 do
        let name =
          Naming.Name.make ~region ~host:host_label ~user:(Printf.sprintf "u%d" k)
        in
        let authority =
          Loadbalance.Replicas.chain_for replicas ~host:host_i ~user_slot:k
        in
        let uid = uid_of t name in
        let a = User_agent.create ~uid ~name ~host ~authority () in
        Hashtbl.replace agents name a;
        set_agent_uid t uid (Some a);
        let sp = Hashtbl.find spaces region in
        Naming.Name_space.register sp name;
        Naming.Name_space.assign_context sp
          (Naming.Name_space.context_of sp name)
          authority
      done)
    site.hosts;
  t
