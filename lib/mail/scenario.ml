type retrieval_mode = Get_mail | Poll_all | Naive

type spec = {
  seed : int;
  duration : float;
  mail_count : int;
  check_period : float;
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
  fault_schedule : Netsim.Fault.schedule;
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
  (* Unused, but keeps [roam_rng] the third stream of the run seed. *)
  ignore (Dsim.Rng.split rng : Dsim.Rng.t);
  let roam_rng = Dsim.Rng.split rng in
  let engine = M.engine sys in
  let users = M.users sys in
  let users_arr = Array.of_list users in
  (* The check path touches no name-keyed table: each user's agent is
     resolved once, into an array parallel to [users_arr], and the
     GetMail tallies go through pre-resolved counter cells. *)
  let agents = Array.map (M.agent sys) users_arr in
  let tracer = Some (M.tracer sys) and ledger = Some (M.ledger sys) in
  let cells = Core.check_cells (M.counters sys) in
  let check i =
    let stats =
      check_with ?tracer ?ledger spec.retrieval (M.view sys) agents.(i) (M.now sys)
    in
    (* [view] before the round and [counters] after it, once per check:
       an instrumenting [System.S] wrapper may time a check between
       the two calls. *)
    ignore (M.counters sys);
    Core.record_check cells stats
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
  (* Periodic checks, phase-shifted per user: user [i] checks at
     [check_period * (i+1) / (N+1)], then every [check_period], while
     before [duration].  One sweep visits the users in that phase order
     (the times are non-decreasing around the cycle, since each is the
     last plus the period).  A check strictly earlier than the next
     queued event runs inline, counted by [Engine.advance]; otherwise
     the sweep queues itself once for that check's time, after any
     event already queued there. *)
  let cat_check = Dsim.Engine.category engine "scenario.check" in
  let n_users = Array.length users_arr in
  let next_check =
    Array.init n_users (fun i ->
        spec.check_period *. float_of_int (i + 1) /. float_of_int (n_users + 1))
  in
  let cursor = ref 0 in
  let rec sweep () =
    let i = !cursor in
    on_check_tick ~rng:roam_rng users_arr.(i);
    check i;
    next_check.(i) <- next_check.(i) +. spec.check_period;
    let j = if i + 1 = n_users then 0 else i + 1 in
    cursor := j;
    let at = next_check.(j) in
    if at < spec.duration then
      if at < Dsim.Engine.next_time engine then begin
        Dsim.Engine.advance engine cat_check at;
        sweep ()
      end
      else Dsim.Engine.schedule_at_cat engine cat_check at sweep
  in
  if n_users > 0 && next_check.(0) < spec.duration then
    Dsim.Engine.schedule_at_cat engine cat_check next_check.(0) sweep;
  (* Fault campaign, if any: compiled deterministically from the
     campaign's own seed (salted with the run seed) and armed on the
     network; every effective status flip is tallied by fault kind. *)
  let fault_schedule =
    match spec.faults with
    | None -> { Netsim.Fault.windows = []; horizon = spec.duration }
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
        sched
  in
  (* Periodic compaction keeps dedup/bookkeeping tables bounded on
     long runs; it only touches state the ledger proved settled. *)
  let compact_period = 5. *. spec.check_period in
  let rec arm_compact at =
    if at < spec.duration then
      Dsim.Engine.schedule_at ~category:"scenario.compact" engine at (fun () ->
          ignore (M.compact sys);
          arm_compact (at +. compact_period))
  in
  arm_compact compact_period;
  (* Observability: a periodic virtual-time sampling event refreshes
     the registry (snapshot_metrics is idempotent), appends a
     timeseries window and evaluates the monitor rules against it;
     alerts accumulate in the monitor's typed stream and the alert_*
     counters it registers. *)
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
          ignore (Telemetry.Monitor.eval mon ~time:at (M.metrics sys))
        in
        Dsim.Engine.every ~category:"scenario.sample" engine ~period:resolution
          ~until:spec.duration sample;
        Some (ts, mon, sample)
  in
  (* Run, restore, drain, final checks. *)
  Dsim.Engine.run ~until:spec.duration engine;
  Netsim.Fault.heal (M.net sys) fault_schedule;
  M.quiesce sys;
  Array.iteri (fun i _ -> check i) users_arr;
  M.quiesce sys;
  (* [quiesce] gives up silently after its step budget, so a timer
     that re-arms forever would otherwise leave no trace in the
     outcome. *)
  (match Dsim.Engine.pending engine with
  | 0 -> ()
  | left ->
      failwith
        (Printf.sprintf
           "Scenario.drive: %d events still queued at virtual time %g after the drain"
           left (M.now sys)));
  ignore (M.compact sys);
  let report = Evaluation.of_system (module M) sys in
  (* Raw infrastructure health: mean single-node uptime. *)
  let server_uptime =
    let nodes = M.server_nodes sys in
    if nodes = [] then 1.
    else
      List.fold_left
        (fun acc node ->
          acc +. Netsim.Fault.availability fault_schedule ~node)
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
          let a = Netsim.Fault.group_availability fault_schedule ~nodes:chain in
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
  let inbox_total = Array.fold_left (fun acc a -> acc + User_agent.inbox_size a) 0 agents in
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
  set "fault_windows" (float_of_int (List.length fault_schedule.Netsim.Fault.windows));
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
    fault_schedule;
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
