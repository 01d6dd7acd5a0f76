type retrieval_mode = Get_mail | Poll_all | Naive

type spec = {
  seed : int;
  duration : float;
  mail_count : int;
  check_period : float;
  failure_rate : float;
  mean_outage : float;
  sender_skew : float;
  retrieval : retrieval_mode;
  faults : Netsim.Fault.campaign option;
  sampling : float option;
  monitors : Telemetry.Monitor.rule list;
}

let default_spec =
  {
    seed = 1;
    duration = 5000.;
    mail_count = 300;
    check_period = 100.;
    failure_rate = 0.;
    mean_outage = 150.;
    sender_skew = 0.9;
    retrieval = Get_mail;
    faults = None;
    sampling = None;
    monitors = [];
  }

type outcome = {
  report : Evaluation.report;
  availability : float;
  server_uptime : float;
  replication_factor : int;
  final_polls_per_check : float;
  inbox_total : int;
  ledger : Ledger.verdict;
  engine_events : int;
  metrics : Telemetry.Registry.t;
  tracer : Telemetry.Tracer.t;
  events : Dsim.Trace.t;
  timeseries : Telemetry.Timeseries.t option;
  monitor : Telemetry.Monitor.t option;
}

(* Zipf-weighted sender (uniform when [skew <= 0]), uniform distinct
   recipient. *)
let pick_pair_skewed rng users skew =
  let n = Array.length users in
  let s = if skew <= 0. then Dsim.Rng.int rng n else Dsim.Rng.zipf rng ~n ~s:skew - 1 in
  let rec other () =
    let r = Dsim.Rng.int rng n in
    if r = s then other () else r
  in
  (users.(s), users.(other ()))

let check_with ?tracer ?ledger mode view sys_agent now =
  match mode with
  | Get_mail -> User_agent.get_mail ?tracer ?ledger sys_agent ~view ~now
  | Poll_all -> User_agent.poll_all ?tracer ?ledger sys_agent ~view ~now
  | Naive -> User_agent.naive_check ?tracer ?ledger sys_agent ~view ~now


let fault_target = function
  | Netsim.Fault.Node v -> Printf.sprintf "node:%d" v
  | Netsim.Fault.Link (u, v) -> Printf.sprintf "link:%d-%d" u v

(* The one driver body, shared by all designs through System.S.  Only
   [on_check_tick] (design 2/3 roaming) is design-specific. *)
let drive (type s) ?(on_check_tick = fun ~rng:_ _ -> ())
    (module M : System.S with type t = s) (sys : s) spec =
  let rng = Dsim.Rng.create spec.seed in
  let traffic_rng = Dsim.Rng.split rng in
  let failure_rng = Dsim.Rng.split rng in
  let roam_rng = Dsim.Rng.split rng in
  let engine = M.engine sys in
  let users = M.users sys in
  let users_arr = Array.of_list users in
  let check name =
    let stats =
      check_with ~tracer:(M.tracer sys) ~ledger:(M.ledger sys) spec.retrieval
        (M.view sys) (M.agent sys name) (M.now sys)
    in
    Core.record_check (M.counters sys) stats;
    stats
  in
  (* Mail injection at uniform times. *)
  let send_times =
    Queueing.Workload.uniform_arrivals ~rng:traffic_rng ~count:spec.mail_count
      ~horizon:spec.duration
  in
  List.iter
    (fun at ->
      let sender, recipient = pick_pair_skewed traffic_rng users_arr spec.sender_skew in
      ignore (M.submit_at sys ~at ~sender ~recipient ()))
    send_times;
  (* Periodic checks, phase-shifted per user. *)
  Array.iteri
    (fun i name ->
      let phase =
        spec.check_period *. float_of_int (i + 1) /. float_of_int (Array.length users_arr + 1)
      in
      let rec arm at =
        if at < spec.duration then
          ignore
            (Dsim.Engine.schedule_at ~category:"scenario.check" engine at (fun () ->
                 on_check_tick ~rng:roam_rng name;
                 ignore (check name);
                 arm (at +. spec.check_period)))
      in
      arm phase)
    users_arr;
  (* Failure injection on servers. *)
  let outages =
    Netsim.Failure.random_outages ~rng:failure_rng ~nodes:(M.server_nodes sys)
      ~rate:spec.failure_rate ~mean_duration:spec.mean_outage ~horizon:spec.duration
  in
  Netsim.Failure.schedule_outages (M.net sys) outages;
  (* Fault campaign, if any: compiled deterministically from the
     campaign's own seed (salted with the run seed) and armed on the
     network; every effective status flip is tallied by fault kind. *)
  let fault_schedule =
    match spec.faults with
    | None -> None
    | Some campaign ->
        let sched =
          Netsim.Fault.compile ~salt:spec.seed ~graph:(M.graph sys)
            ~servers:(M.server_nodes sys) ~horizon:spec.duration campaign
        in
        let counters = M.counters sys in
        Netsim.Fault.apply
          ~on_event:(fun ~time:_ w status ->
            if not status then
              Dsim.Stats.Counter.incr counters ("fault_" ^ w.Netsim.Fault.kind))
          (M.net sys) sched;
        (* Fault windows become spans so trace timelines show the
           outages next to the message lifecycles they disturbed.  They
           are written before the run, so on a long campaign they age
           out of the tracer's ring first instead of overwriting the
           run's own traces. *)
        List.iter
          (fun (w : Netsim.Fault.window) ->
            ignore
              (Telemetry.Tracer.span (M.tracer sys) ~name:"fault" ~start:w.start
                 ~finish:(w.start +. w.duration)
                 ~attrs:[ ("kind", w.kind); ("target", fault_target w.target) ]
                 ()))
          sched.Netsim.Fault.windows;
        Some sched
  in
  (* Periodic compaction keeps dedup/bookkeeping tables bounded on
     long runs; it only touches state the ledger proved settled. *)
  let compact_period = 5. *. spec.check_period in
  let rec arm_compact at =
    if at < spec.duration then
      ignore
        (Dsim.Engine.schedule_at ~category:"scenario.compact" engine at (fun () ->
             ignore (M.compact sys);
             arm_compact (at +. compact_period)))
  in
  arm_compact compact_period;
  (* Observability: a periodic virtual-time sampling event refreshes
     the registry (snapshot_metrics is idempotent), appends a
     timeseries window and evaluates the monitor rules against it.
     Alerts land in the engine trace (level Warn, category "monitor")
     as well as in the alert_* counters the monitor registers. *)
  let observability =
    match spec.sampling with
    | None -> None
    | Some resolution ->
        let ts = Telemetry.Timeseries.create ~resolution () in
        let mon =
          Telemetry.Monitor.create ~registry:(M.metrics sys) spec.monitors
        in
        let sample () =
          System.snapshot_metrics (module M) sys;
          let at = M.now sys in
          ignore (Telemetry.Timeseries.sample ts ~at (M.metrics sys));
          List.iter
            (fun (a : Telemetry.Monitor.alert) ->
              Dsim.Trace.warnf (M.trace sys) ~time:at ~category:"monitor"
                "%s: %s" a.Telemetry.Monitor.a_rule
                a.Telemetry.Monitor.a_message)
            (Telemetry.Monitor.eval mon ~time:at (M.metrics sys))
        in
        Dsim.Engine.every ~category:"scenario.sample" engine ~period:resolution
          ~until:spec.duration sample;
        Some (ts, mon, sample)
  in
  (* Run, restore, drain, final checks. *)
  Dsim.Engine.run ~until:spec.duration engine;
  Option.iter (Netsim.Fault.heal (M.net sys)) fault_schedule;
  List.iter (fun n -> Netsim.Net.set_up (M.net sys) n) (M.server_nodes sys);
  M.quiesce sys;
  List.iter (fun name -> ignore (check name)) users;
  M.quiesce sys;
  ignore (M.compact sys);
  let report = Evaluation.of_system (module M) sys in
  let fault_outages =
    match fault_schedule with
    | None -> []
    | Some sched -> Netsim.Fault.node_outages sched
  in
  let all_outages = outages @ fault_outages in
  (* Raw infrastructure health: mean single-node uptime. *)
  let server_uptime =
    let nodes = M.server_nodes sys in
    if nodes = [] then 1.
    else
      List.fold_left
        (fun acc node ->
          acc
          +. Netsim.Failure.availability ~outages:all_outages ~node
               ~horizon:spec.duration)
        0. nodes
      /. float_of_int (List.length nodes)
  in
  (* Mailbox availability under replication: a user's mail is
     reachable whenever at least one chain member is up, so
     availability is the mean over users of their {e group}
     availability (memoised per distinct chain — many users share
     one). *)
  let availability, replication_factor =
    let memo = Hashtbl.create 16 in
    let group chain =
      match Hashtbl.find_opt memo chain with
      | Some a -> a
      | None ->
          let a =
            Netsim.Failure.group_availability ~outages:all_outages ~nodes:chain
              ~horizon:spec.duration
          in
          Hashtbl.replace memo chain a;
          a
    in
    match users with
    | [] -> (1., 0)
    | _ ->
        List.fold_left
          (fun (sum, repl) name ->
            let chain = M.authority_of sys name in
            (sum +. group chain, max repl (List.length chain)))
          (0., 0) users
        |> fun (sum, repl) -> (sum /. float_of_int (List.length users), repl)
  in
  let ledger_verdict = Ledger.check (M.ledger sys) in
  let inbox_total =
    List.fold_left (fun acc name -> acc + User_agent.inbox_size (M.agent sys name)) 0 users
  in
  System.snapshot_metrics (module M) sys;
  let metrics = M.metrics sys in
  let set name v = Telemetry.Registry.set_gauge (Telemetry.Registry.gauge metrics name) v in
  set "availability" availability;
  set "server_uptime" server_uptime;
  set "replication_factor" (float_of_int replication_factor);
  set "inbox_total" (float_of_int inbox_total);
  set "polls_per_check" report.Evaluation.polls_per_check;
  set "trace_spans" (float_of_int (Telemetry.Tracer.total (M.tracer sys)));
  (* Set unconditionally so every design's registry carries the same
     metric names whether or not a campaign ran. *)
  set "ledger_ok" (if ledger_verdict.Ledger.ok then 1. else 0.);
  set "ledger_lost" (float_of_int ledger_verdict.Ledger.lost);
  set "ledger_duplicates" (float_of_int ledger_verdict.Ledger.duplicates);
  set "fault_windows"
    (float_of_int
       (match fault_schedule with
       | None -> 0
       | Some sched -> List.length sched.Netsim.Fault.windows));
  (* One final window after drain and the end-of-run gauges above, so
     the series always closes on the settled state (and a sampled run
     has at least one window even when duration < resolution). *)
  let timeseries, monitor =
    match observability with
    | None -> (None, None)
    | Some (ts, mon, sample) ->
        sample ();
        (Some ts, Some mon)
  in
  {
    report;
    availability;
    server_uptime;
    replication_factor;
    final_polls_per_check = report.Evaluation.polls_per_check;
    inbox_total;
    ledger = ledger_verdict;
    engine_events = Dsim.Engine.events_executed engine;
    metrics;
    tracer = M.tracer sys;
    events = M.trace sys;
    timeseries;
    monitor;
  }

(* Roaming hook shared by the location-based designs: before a check,
   the user logs in from a random host of their region. *)
let roaming_hook sys graph roam_probability =
  let hosts_by_region = Hashtbl.create 4 in
  List.iter
    (fun v ->
      if Netsim.Graph.kind graph v = Netsim.Graph.Host then begin
        let r = Netsim.Graph.region graph v in
        let cur =
          match Hashtbl.find_opt hosts_by_region r with Some l -> l | None -> []
        in
        Hashtbl.replace hosts_by_region r (v :: cur)
      end)
    (Netsim.Graph.nodes graph);
  let host_arrays = Hashtbl.create 4 in
  Hashtbl.iter (fun r l -> Hashtbl.replace host_arrays r (Array.of_list l)) hosts_by_region;
  fun ~rng name ->
    if Dsim.Rng.bernoulli rng roam_probability then begin
      match Hashtbl.find_opt host_arrays (Naming.Name.region name) with
      | Some hosts ->
          ignore (Location_system.login sys name ~host:(Dsim.Rng.choice rng hosts))
      | None -> ()
    end

let run_syntax ?config site spec =
  let sys = Syntax_system.create ?config site in
  drive (module System.Syntax) sys spec

let run_location ?config ~roam_probability site spec =
  let sys = Location_system.create ?config site in
  let on_check_tick = roaming_hook sys (Location_system.graph sys) roam_probability in
  drive ~on_check_tick (module System.Location) sys spec

let run_attribute ?config ?(roam_probability = 0.) site spec =
  let sys = Attribute_system.create ?config site in
  let base = Attribute_system.base sys in
  let on_check_tick = roaming_hook base (Location_system.graph base) roam_probability in
  drive ~on_check_tick (module System.Location) base spec

type estimate = { mean : float; stddev : float; runs : int }

let replicate ~runs run spec metric =
  if runs <= 0 then invalid_arg "Scenario.replicate: runs <= 0";
  let summary = Dsim.Stats.Summary.create () in
  for i = 0 to runs - 1 do
    let outcome = run { spec with seed = spec.seed + i } in
    Dsim.Stats.Summary.add summary (metric outcome)
  done;
  {
    mean = Dsim.Stats.Summary.mean summary;
    stddev = Dsim.Stats.Summary.stddev summary;
    runs;
  }
