type ('ctrl, 'state) t = {
  engine : Dsim.Engine.t;
  pipeline : 'ctrl Pipeline.t;
  graph : Netsim.Graph.t;
  storage : Replica_group.t;
  region_servers : (string, Netsim.Graph.node list) Hashtbl.t;
  nearest : Netsim.Graph.node list option array;
      (* per-host [nearest_servers] answers, indexed by node id and
         filled on a host's first ask. *)
  agents : (Naming.Name.t, User_agent.t) Hashtbl.t;
  holders : User_agent.holders;  (* agents holding a dedup table *)
  intern : Naming.Intern.t;
      (* user names -> dense ids; the pipeline, storage and redirect
         hot paths all key on the id *)
  mutable agents_by_uid : User_agent.t option array;
  redirects : (Naming.Name.t, Naming.Name.t) Hashtbl.t;
  redirects_uid : int Dsim.Id_table.t;  (* mirror of [redirects], by id *)
  counters : Dsim.Stats.Counter.t;
  check_cells : check_cells;  (* [counters]' GetMail tallies *)
  metrics : Telemetry.Registry.t;
  tracer : Telemetry.Tracer.t;
  ledger : Ledger.t;
  mutable next_id : Message.id;
  mutable submitted : Message.t list;
  hooks : ('ctrl, 'state) hooks;
  state : 'state;
}

and check_cells = {
  c_checks : int ref;
  c_polls : int ref;
  c_failed_polls : int ref;
  c_retrieved : int ref;
}

and ('ctrl, 'state) hooks = {
  authority_of : ('ctrl, 'state) t -> Naming.Name.t -> Netsim.Graph.node list;
  authority_of_uid : ('ctrl, 'state) t -> int -> Netsim.Graph.node list;
  notify_target : ('ctrl, 'state) t -> User_agent.t -> Netsim.Graph.node;
  submit_servers : ('ctrl, 'state) t -> User_agent.t -> Netsim.Graph.node list;
  cached_authority :
    ('ctrl, 'state) t -> at:Netsim.Graph.node -> Naming.Name.t -> Netsim.Graph.node list option;
  on_forward_resolved :
    ('ctrl, 'state) t -> at:Netsim.Graph.node -> Naming.Name.t -> Netsim.Graph.node list -> unit;
  on_undeliverable : ('ctrl, 'state) t -> Message.t -> reason:string -> unit;
  on_redirected : ('ctrl, 'state) t -> Message.t -> old_name:Naming.Name.t -> unit;
  on_ctrl :
    ('ctrl, 'state) t -> Netsim.Graph.node -> time:float -> src:Netsim.Graph.node -> 'ctrl -> unit;
  on_check : ('ctrl, 'state) t -> User_agent.t -> User_agent.check_stats -> unit;
  candidates : ('ctrl, 'state) t -> Netsim.Graph.node -> Netsim.Graph.node list;
}

let region_of_node g v =
  let r = Netsim.Graph.region g v in
  if String.equal r "" then "r0" else r

let count ?by t key = Dsim.Stats.Counter.incr ?by t.counters key
let state t = t.state
let pipeline t = t.pipeline
let uid_of t name = Naming.Intern.intern t.intern name
let name_of_uid t uid = Naming.Intern.name t.intern uid
let find_agent t name = Hashtbl.find_opt t.agents name
let iter_agents t f = Hashtbl.iter f t.agents

let region_servers t region =
  match Hashtbl.find_opt t.region_servers region with Some l -> l | None -> []

let agent_by_uid t uid =
  if uid >= 0 && uid < Array.length t.agents_by_uid then t.agents_by_uid.(uid)
  else None

let set_agent_uid t uid a =
  let n = Array.length t.agents_by_uid in
  if uid >= n then begin
    let arr = Array.make (max (2 * n) (uid + 1)) None in
    Array.blit t.agents_by_uid 0 arr 0 n;
    t.agents_by_uid <- arr
  end;
  t.agents_by_uid.(uid) <- a

let rec canonical_uid t uid =
  match Dsim.Id_table.find_opt t.redirects_uid uid with
  | Some target ->
      count t "redirects";
      canonical_uid t target
  | None -> uid

let uids t =
  let acc = ref [] in
  for uid = Array.length t.agents_by_uid - 1 downto 0 do
    (match t.agents_by_uid.(uid) with
    | Some _ -> acc := uid :: !acc
    | None -> ())
  done;
  !acc

let check_cells counters =
  let cell = Dsim.Stats.Counter.cell counters in
  {
    c_checks = cell "checks";
    c_polls = cell "polls";
    c_failed_polls = cell "failed_polls";
    c_retrieved = cell "retrieved";
  }

let record_check c (stats : User_agent.check_stats) =
  incr c.c_checks;
  c.c_polls := !(c.c_polls) + stats.User_agent.polls;
  c.c_failed_polls := !(c.c_failed_polls) + stats.User_agent.failed_polls;
  c.c_retrieved := !(c.c_retrieved) + stats.User_agent.retrieved

let new_message t ~sender ~recipient ~subject ~body ?parts ~at () =
  let id = t.next_id in
  t.next_id <- id + 1;
  let msg =
    Message.create ~id ~sender ~recipient ~recipient_uid:(uid_of t recipient) ~subject
      ~body ?parts ~submitted_at:at ()
  in
  t.submitted <- msg :: t.submitted;
  msg

module Ops = struct
  let engine t = t.engine
  let net t = Pipeline.net t.pipeline
  let graph t = t.graph
  let now t = Dsim.Engine.now t.engine
  let counters t = t.counters
  let metrics t = t.metrics
  let tracer t = t.tracer
  let ledger t = t.ledger
  let submitted t = t.submitted
  let storage t = t.storage
  let server_nodes t = Replica_group.nodes t.storage
  let redirect_target t name = Hashtbl.find_opt t.redirects name
  let queue_wait_stats t = Pipeline.queue_wait_stats t.pipeline
  let server_utilisation t node = Pipeline.server_utilisation t.pipeline node
  let view t = Replica_group.view t.storage
  let authority_of t name = t.hooks.authority_of t name

  let users t =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.agents []
    |> List.sort Naming.Name.compare

  let agent t name =
    match Hashtbl.find_opt t.agents name with
    | Some a -> a
    | None ->
        invalid_arg
          (Printf.sprintf "Mail.Core: unknown user %s" (Naming.Name.to_string name))

  let nearest_servers t host =
    match t.nearest.(host) with
    | Some servers -> servers
    | None ->
        let servers =
          Netsim.Shortest_path.by_distance
            (Netsim.Shortest_path.dijkstra t.graph host)
            (t.hooks.candidates t host)
        in
        t.nearest.(host) <- Some servers;
        servers

  let submit_at t ~at ~sender ~recipient ?(subject = "") ?(body = "") ?parts () =
    let sender_agent = agent t sender in
    (if not (Hashtbl.mem t.agents recipient || Hashtbl.mem t.redirects recipient) then
       invalid_arg
         (Printf.sprintf "Mail.Core.submit: unknown recipient %s"
            (Naming.Name.to_string recipient)));
    let msg = new_message t ~sender ~recipient ~subject ~body ?parts ~at () in
    ignore
      (Dsim.Engine.schedule_at ~category:"mail.submit" t.engine at (fun () ->
           Pipeline.submit t.pipeline ~sender_agent ~msg));
    msg

  let submit t ~sender ~recipient ?subject ?body ?parts () =
    submit_at t ~at:(now t) ~sender ~recipient ?subject ?body ?parts ()

  let check_mail t name =
    let a = agent t name in
    let stats =
      User_agent.get_mail ~tracer:t.tracer ~ledger:t.ledger a ~view:(view t) ~now:(now t)
    in
    record_check t.check_cells stats;
    t.hooks.on_check t a stats;
    stats

  let check_mail_at t ~at name =
    ignore
      (Dsim.Engine.schedule_at ~category:"mail.check" t.engine at (fun () ->
           ignore (check_mail t name)))

  let compact t =
    let prunable = Pipeline.prunable t.pipeline ~ledger:t.ledger in
    let dropped =
      User_agent.compact_holders t.holders prunable
      + Pipeline.compact t.pipeline prunable
      + Replica_group.compact t.storage prunable
    in
    if dropped > 0 then count ~by:dropped t "compacted";
    dropped

  let publish_health t =
    Pipeline.publish_gauges t.pipeline t.metrics;
    Replica_group.publish_gauges t.storage ~users:(fun () -> uids t) t.metrics

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
    if period <= 0. then invalid_arg "Mail.Core.schedule_cleanup: period <= 0";
    let rec arm at =
      if at <= until then
        ignore
          (Dsim.Engine.schedule_at ~category:"mail.cleanup" t.engine at (fun () ->
               let dropped = Replica_group.cleanup_all t.storage ~now:(now t) ~max_age in
               if dropped > 0 then count ~by:dropped t "archive_dropped";
               arm (at +. period)))
    in
    arm (now t +. period)
end

open Ops

let default_hooks =
  {
    authority_of =
      (fun t name ->
        match find_agent t name with Some a -> User_agent.authority a | None -> []);
    authority_of_uid =
      (fun t uid ->
        match agent_by_uid t uid with Some a -> User_agent.authority a | None -> []);
    notify_target = (fun _ a -> User_agent.host a);
    submit_servers = (fun _ a -> User_agent.authority a);
    cached_authority = (fun _ ~at:_ _ -> None);
    on_forward_resolved = (fun _ ~at:_ _ _ -> ());
    on_undeliverable = (fun t _ ~reason:_ -> count t "undeliverable");
    on_redirected = (fun t _ ~old_name:_ -> count t "rename_notices");
    on_ctrl = (fun _ _ ~time:_ ~src:_ _ -> ());
    on_check = (fun _ _ _ -> ());
    candidates = (fun t _ -> server_nodes t);
  }

let register_user t ~name ~host ~authority =
  if Hashtbl.mem t.agents name then
    invalid_arg
      (Printf.sprintf "Mail.Core.register_user: %s already registered"
         (Naming.Name.to_string name));
  let uid = uid_of t name in
  let a = User_agent.create ~uid ~holders:t.holders ~name ~host ~authority () in
  Hashtbl.replace t.agents name a;
  set_agent_uid t uid (Some a);
  a

let unregister_user t name =
  User_agent.retire (agent t name);
  Hashtbl.remove t.agents name;
  set_agent_uid t (uid_of t name) None

let rename t name ~new_host ~authority =
  let _ = agent t name in
  if not (Netsim.Graph.mem_node t.graph new_host) then
    invalid_arg "Mail.Core.rename: unknown host";
  let region = region_of_node t.graph new_host in
  let host = Netsim.Graph.label t.graph new_host in
  (* Names are only locally unique: if the user token is taken at the
     destination, uniquify it (the "temporary inconvenience" of a
     §3.1.4 rename). *)
  let base = Naming.Name.user name in
  let rec pick i =
    let user = if i = 0 then base else Printf.sprintf "%s-m%d" base i in
    let n = Naming.Name.make ~region ~host ~user in
    if Hashtbl.mem t.agents n || Hashtbl.mem t.redirects n then pick (i + 1) else n
  in
  let new_name = pick 0 in
  (* Add at the new location… *)
  let a = register_user t ~name:new_name ~host:new_host ~authority:(authority new_name) in
  (* …then delete at the old location, leaving a redirection. *)
  unregister_user t name;
  Hashtbl.replace t.redirects name new_name;
  Dsim.Id_table.replace t.redirects_uid (uid_of t name) (User_agent.uid a);
  count t "migrations";
  new_name

let create ~design ~users_per_host ~retry_timeout ~resubmit_timeout ~max_retries
    ~mailbox_policy ~bandwidth ~service_rate ~loss_rate ~span_sample ~hooks ~authority state
    (site : Netsim.Topology.mail_site) =
  let engine = Dsim.Engine.create () in
  let counters = Dsim.Stats.Counter.create () in
  let tracer = Telemetry.Tracer.create ~sample:span_sample () in
  let metrics = Telemetry.Registry.create ~labels:[ ("design", design) ] () in
  let ledger = Ledger.create () in
  Telemetry.Probe.attach_engine metrics engine;
  let intern = Naming.Intern.create ~capacity:256 () in
  let by_region = Hashtbl.create 4 in
  let t_ref = ref None in
  let the_t () = match !t_ref with Some t -> t | None -> assert false in
  (* The replica group owns every mailbox holder; chain/liveness are
     late-bound through the system so reconfiguration and migration
     stay visible to it. *)
  let storage =
    Replica_group.create ~mailbox_policy ~ledger ~tracer ~metrics ~counters
      ~chain_of:(fun uid ->
        let t = the_t () in
        hooks.authority_of_uid t (canonical_uid t uid))
      ~is_up:(fun node -> Netsim.Net.is_up (Pipeline.net (the_t ()).pipeline) node)
      ()
  in
  List.iter
    (fun node ->
      let region = region_of_node site.graph node in
      Replica_group.add_holder storage ~node ~region;
      let existing =
        match Hashtbl.find_opt by_region region with Some l -> l | None -> []
      in
      Hashtbl.replace by_region region (existing @ [ node ]))
    site.servers;
  let callbacks =
    {
      Pipeline.region_servers = (fun region -> region_servers (the_t ()) region);
      uid_of = (fun name -> Naming.Intern.intern intern name);
      name_of_uid = (fun uid -> Naming.Intern.name intern uid);
      canonical_uid = (fun uid -> canonical_uid (the_t ()) uid);
      authority_of_uid = (fun uid -> hooks.authority_of_uid (the_t ()) uid);
      notify_target_uid =
        (fun uid ->
          let t = the_t () in
          match agent_by_uid t uid with
          | Some a -> Some (hooks.notify_target t a)
          | None -> None);
      submit_servers = (fun a -> hooks.submit_servers (the_t ()) a);
      cached_authority = (fun ~at name -> hooks.cached_authority (the_t ()) ~at name);
      on_forward_resolved =
        (fun ~at name authority -> hooks.on_forward_resolved (the_t ()) ~at name authority);
      on_undeliverable = (fun msg ~reason -> hooks.on_undeliverable (the_t ()) msg ~reason);
      on_redirected = (fun msg ~old_name -> hooks.on_redirected (the_t ()) msg ~old_name);
      on_ctrl = (fun node ~time ~src ctrl -> hooks.on_ctrl (the_t ()) node ~time ~src ctrl);
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
    Pipeline.create ~engine ~graph:site.graph ~counters ~metrics ~tracer ?bandwidth
      ~loss_rate ~ledger ~route_anchors ~storage
      { Pipeline.retry_timeout; resubmit_timeout; max_retries; service_rate }
      callbacks
  in
  let t =
    {
      engine;
      pipeline;
      graph = site.graph;
      storage;
      region_servers = by_region;
      nearest = Array.make (Netsim.Graph.node_count site.graph) None;
      agents = Hashtbl.create 64;
      holders = User_agent.holders ();
      intern;
      agents_by_uid = Array.make 256 None;
      redirects = Hashtbl.create 4;
      redirects_uid = Dsim.Id_table.create 4;
      counters;
      check_cells = check_cells counters;
      metrics;
      tracer;
      ledger;
      next_id = 0;
      submitted = [];
      hooks;
      state;
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
      for k = 0 to users_per_host - 1 do
        let name = Naming.Name.make ~region ~host:host_label ~user:(Printf.sprintf "u%d" k) in
        ignore (register_user t ~name ~host ~authority:(authority t ~host ~slot:k name))
      done)
    site.hosts;
  t
