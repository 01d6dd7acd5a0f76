(* One workload, measured: repeated set-up and drive of a mail system
   through [Mail.Scenario.drive], optionally wrapped in a bench-side
   timing layer, plus the isolated kernels of a traced run.  Everything
   here uses only the library's public API; all wall-clock reads live
   in this file. *)

let clock = Unix.gettimeofday

(* Span times are reported relative to process start. *)
let origin = clock ()

(* ---------------------------------------------------------------- *)
(* Bench-side probe                                                  *)
(* ---------------------------------------------------------------- *)

(* Calls through one boundary: count, summed seconds, and the first
   start and last end, so an aggregate can stand in for its spans.  All
   fields are floats so the record is flat and updating it on every
   check allocates nothing. *)
type acc = { mutable n : float; mutable s : float; mutable first : float; mutable last : float }

let acc () = { n = 0.; s = 0.; first = nan; last = nan }

let add a ~t0 ~t1 =
  if a.n = 0. then a.first <- t0;
  a.n <- a.n +. 1.;
  a.s <- a.s +. (t1 -. t0);
  a.last <- t1

let count_of a = int_of_float a.n

(* A boundary split by whether its calls finished inside the engine's
   main run slice (the [Engine.run ~until:duration] of [drive]) or
   after it, in the final checks and the end-of-run bookkeeping. *)
type boundary = { in_main : acc; after : acc }

let boundary () = { in_main = acc (); after = acc () }
let total b = b.in_main.s +. b.after.s
let calls b = count_of b.in_main + count_of b.after

(* Flat for the same reason as [acc]. *)
type instant = { mutable at : float }

type probe = {
  inject : acc;
  check : boundary;
  fetch : boundary;
  compact : boundary;
  health : boundary;
  login : boundary;
  drain : acc;
  mutable main_slice : float option;
  mutable main_end : float;
  bracket : instant;  (** start of the open check bracket, or nan *)
  mutable pending : int list;  (** [Engine.pending] at each health sample *)
}

let probe () =
  {
    inject = acc ();
    check = boundary ();
    fetch = boundary ();
    compact = boundary ();
    health = boundary ();
    login = boundary ();
    drain = acc ();
    main_slice = None;
    main_end = nan;
    bracket = { at = nan };
    pending = [];
  }

(* A call that finishes before the engine reports its first slice lies
   inside that slice: nothing but injection runs before [drive] starts
   the engine, and injection has its own accumulator. *)
let slot p b = match p.main_slice with None -> b.in_main | Some _ -> b.after

let on_slice p ~seconds =
  match p.main_slice with
  | None ->
      p.main_slice <- Some seconds;
      p.main_end <- clock ()
  | Some _ -> ()

module type PROBE = sig
  val probe : probe
end

(* The system as [drive] sees it, with every call at a layer boundary
   timed into the probe. *)
module Timed (P : PROBE) (M : Mail.System.S) : Mail.System.S with type t = M.t =
struct
  include M

  let p = P.probe

  let submit_at t ~at ~sender ~recipient () =
    let t0 = clock () in
    let m = M.submit_at t ~at ~sender ~recipient () in
    add p.inject ~t0 ~t1:(clock ());
    m

  let compact t =
    let t0 = clock () in
    let n = M.compact t in
    add (slot p p.compact) ~t0 ~t1:(clock ());
    n

  let quiesce ?step ?max_steps t =
    let t0 = clock () in
    M.quiesce ?step ?max_steps t;
    add p.drain ~t0 ~t1:(clock ())

  let publish_health t =
    if Option.is_none p.main_slice then
      p.pending <- Dsim.Engine.pending (M.engine t) :: p.pending;
    let t0 = clock () in
    M.publish_health t;
    add (slot p p.health) ~t0 ~t1:(clock ())

  (* A GetMail check runs from [view] to the next [counters]: [drive]
     evaluates [view] among the check's arguments and reads [counters]
     right after [User_agent.get_mail].  [agent] would open the bracket
     too early and too often — the inbox fold at the end calls it. *)
  let view t =
    p.bracket.at <- clock ();
    let v = M.view t in
    let fetch node ~uid name ~at =
      let t0 = clock () in
      let r = v.Mail.User_agent.fetch node ~uid name ~at in
      add (slot p p.fetch) ~t0 ~t1:(clock ());
      r
    in
    { v with Mail.User_agent.fetch }

  let counters t =
    if not (Float.is_nan p.bracket.at) then begin
      add (slot p p.check) ~t0:p.bracket.at ~t1:(clock ());
      p.bracket.at <- nan
    end;
    M.counters t
end

(* [Scenario.run_location]'s roaming hook, rebuilt from public API so
   the login can be timed: before a check the user logs in from a
   random host of their region.  Host order and random draws match the
   library's hook exactly, so runs agree with [Scenario.run_location]. *)
let roaming ?probe sys ~roam =
  let graph = Mail.Location_system.graph sys in
  let lists = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if Netsim.Graph.kind graph v = Netsim.Graph.Host then begin
        let r = Netsim.Graph.region graph v in
        let cur = Option.value ~default:[] (Hashtbl.find_opt lists r) in
        Hashtbl.replace lists r (v :: cur)
      end)
    (Netsim.Graph.nodes graph);
  let hosts = Hashtbl.create 16 in
  Hashtbl.iter (fun r l -> Hashtbl.replace hosts r (Array.of_list l)) lists;
  let login name host = ignore (Mail.Location_system.login sys name ~host) in
  fun ~rng name ->
    if Dsim.Rng.bernoulli rng roam then
      match Hashtbl.find_opt hosts (Naming.Name.region name) with
      | Some arr when Array.length arr > 0 -> (
          let host = Dsim.Rng.choice rng arr in
          match probe with
          | None -> login name host
          | Some p ->
              let t0 = clock () in
              login name host;
              add (slot p p.login) ~t0 ~t1:(clock ()))
      | Some _ | None -> ()

(* ---------------------------------------------------------------- *)
(* One repetition: set up, drive, read everything out                *)
(* ---------------------------------------------------------------- *)

type rep = {
  started : float;
  topology_s : float;
  create_s : float;
  drive_start : float;
  run_s : float;
  servers : Netsim.Graph.node list;  (** the fault campaign's targets, in system order *)
  verdict : Mail.Ledger.verdict;
  availability : float;
  polls_per_check : float;
  deliver_n : int;
  deliver_p50 : float;
  deliver_p99 : float;
  peak_heap_words : int;
  minor_words : float;
  major_collections : int;
  counts : (string * int) list;
      (** the program's own counters under their per-layer names; they
          repeat exactly for a seed, traced or not *)
  probe : probe option;
}

(* Engine categories reported one by one, as (metric suffix, category);
   every other category is summed into [engine.events.other].  Net
   deliveries are scheduled in the engine's default category, which
   nothing else in these workloads uses. *)
let categories =
  [
    ("net", "event");
    ("mail.submit", "mail.submit");
    ("pipeline.retry", "pipeline.retry");
    ("pipeline.replicate", "pipeline.replicate");
    ("pipeline.resubmit", "pipeline.resubmit");
    ("scenario.check", "scenario.check");
    ("scenario.sample", "scenario.sample");
    ("scenario.compact", "scenario.compact");
    ("fault", "fault");
  ]

let count rep name =
  match List.assoc_opt name rep.counts with
  | Some n -> n
  | None -> invalid_arg ("Harness.count: " ^ name)

(* Lets a test drive a deliberately broken system through the same
   code path as the real runs. *)
type wrap = {
  wrap : 's. (module Mail.System.S with type t = 's) -> (module Mail.System.S with type t = 's);
}

let drive_rep (type s) ?wrap (m : (module Mail.System.S with type t = s)) (sys : s)
    ?on_check_tick ~probe (w : Workload.t) ~seed ~started ~topology_s ~create_s =
  let (module M : Mail.System.S with type t = s) =
    match wrap with None -> m | Some f -> f.wrap m
  in
  let (module D : Mail.System.S with type t = s) =
    match probe with
    | None -> (module M)
    | Some p ->
        Dsim.Engine.set_instrument ~timer:clock (M.engine sys) (on_slice p);
        (module Timed (struct
          let probe = p
        end) (M))
  in
  let gc0 = Gc.quick_stat () in
  let drive_start = clock () in
  let o = Mail.Scenario.drive ?on_check_tick (module D) sys (Workload.spec w ~seed) in
  let run_s = clock () -. drive_start in
  let gc1 = Gc.quick_stat () in
  let latencies =
    List.filter_map Mail.Message.delivery_latency (M.submitted sys) |> Array.of_list
  in
  Array.sort Float.compare latencies;
  let c = M.counters sys in
  let counter k = Dsim.Stats.Counter.get c k in
  let net = M.net sys in
  let profile = Dsim.Engine.profile (M.engine sys) in
  let category k = Option.value ~default:0 (List.assoc_opt k profile) in
  let other =
    List.fold_left
      (fun acc (k, n) ->
        if List.exists (fun (_, c) -> String.equal c k) categories then acc else acc + n)
      0 profile
  in
  let alerts =
    match o.Mail.Scenario.monitor with
    | Some m -> List.length (Telemetry.Monitor.alerts m)
    | None -> 0
  in
  let counts =
    [ ("engine.events", o.Mail.Scenario.engine_events) ]
    @ List.map (fun (k, c) -> ("engine.events." ^ k, category c)) categories
    @ [
        ("engine.events.other", other);
        ("net.sends", Netsim.Net.messages_sent net);
        ("net.hops", Netsim.Net.hops_traversed net);
        ("net.dropped", Netsim.Net.messages_dropped net);
        ("net.route_recomputes", Netsim.Net.route_recomputes net);
        ("net.route_hits", Netsim.Net.route_cache_hits net);
        ("net.route_repairs", Netsim.Net.route_invalidations net);
        ("pipeline.deposits", counter "deposits");
        ("pipeline.retries", counter "retries");
        ("pipeline.resubmissions", counter "resubmissions");
        ("replica_group.quorum_acks", counter "replica_quorum_acks");
        ("replica_group.degraded_acks", counter "replica_degraded_acks");
        ("replica_group.failovers", counter "replica_failovers");
        ("replica_group.resyncs", counter "replica_resyncs");
        ("replica_group.purges", counter "replica_purges");
        ("user_agent.checks", counter "checks");
        ("user_agent.polls", counter "polls");
        ("user_agent.failed_polls", counter "failed_polls");
        ("ledger.compacted", counter "compacted");
        ("location_system.logins", counter "logins");
        ("location_system.location_updates", counter "location_updates");
        ("location_system.location_gossip", counter "location_gossip");
        ("telemetry.spans", Telemetry.Tracer.total o.Mail.Scenario.tracer);
        ("telemetry.spans_dropped", Telemetry.Tracer.dropped o.Mail.Scenario.tracer);
        ("telemetry.alerts", alerts);
      ]
  in
  {
    started;
    topology_s;
    create_s;
    drive_start;
    run_s;
    servers = M.server_nodes sys;
    verdict = o.Mail.Scenario.ledger;
    availability = o.Mail.Scenario.availability;
    polls_per_check = o.Mail.Scenario.final_polls_per_check;
    deliver_n = Array.length latencies;
    deliver_p50 = Stats.percentile_sorted latencies 0.5;
    deliver_p99 = Stats.percentile_sorted latencies 0.99;
    peak_heap_words = gc1.Gc.top_heap_words;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    counts;
    probe;
  }

type built =
  | Built : {
      system : (module Mail.System.S with type t = 's);
      sys : 's;
      on_check_tick : (rng:Dsim.Rng.t -> Naming.Name.t -> unit) option;
      started : float;
      topology_s : float;
      create_s : float;
    }
      -> built

(* The set-up that [setup_s] measures: topology build plus [create]. *)
let build ?probe (w : Workload.t) =
  let started = clock () in
  let site = Workload.site w in
  let t1 = clock () in
  let topology_s = t1 -. started in
  match w.Workload.design with
  | Workload.Syntax ->
      let sys = Mail.Syntax_system.create ~config:(Workload.syntax_config w) site in
      let create_s = clock () -. t1 in
      Built
        {
          system = (module Mail.System.Syntax);
          sys;
          on_check_tick = None;
          started;
          topology_s;
          create_s;
        }
  | Workload.Location { roam } ->
      let sys = Mail.Location_system.create ~config:(Workload.location_config w) site in
      let create_s = clock () -. t1 in
      Built
        {
          system = (module Mail.System.Location);
          sys;
          on_check_tick = Some (roaming ?probe sys ~roam);
          started;
          topology_s;
          create_s;
        }

let run_rep ?(traced = false) ?wrap (w : Workload.t) ~seed =
  let probe = if traced then Some (probe ()) else None in
  let (Built b) = build ?probe w in
  drive_rep ?wrap b.system b.sys ?on_check_tick:b.on_check_tick ~probe w ~seed
    ~started:b.started ~topology_s:b.topology_s ~create_s:b.create_s

(* ---------------------------------------------------------------- *)
(* Isolated kernels of a traced run                                  *)
(* ---------------------------------------------------------------- *)

(* Engine dispatch alone: [events] no-op events, each re-arming itself
   so the queue stays [depth] deep — the depth the workload itself ran
   at.  Returns ns per event. *)
let dispatch_ns ~events ~depth =
  let depth = max 1 depth in
  let engine = Dsim.Engine.create ~capacity:(depth + 1) () in
  let cat = Dsim.Engine.category engine "kernel" in
  let rng = Dsim.Rng.create 1 in
  let delays = Array.init 4096 (fun _ -> Dsim.Rng.float rng 2.) in
  let left = ref (events - depth) and i = ref 0 in
  let rec fire () =
    if !left > 0 then begin
      decr left;
      i := (!i + 1) land 4095;
      ignore (Dsim.Engine.schedule_after_cat engine cat delays.(!i) fire)
    end
  in
  for k = 0 to depth - 1 do
    ignore (Dsim.Engine.schedule_at_cat engine cat delays.(k land 4095) fire)
  done;
  let t0 = clock () in
  Dsim.Engine.run engine;
  let dt = clock () -. t0 in
  dt *. 1e9 /. float_of_int (max 1 (Dsim.Engine.events_executed engine))

(* Net alone: a fresh network anchored on the infrastructure like the
   systems' own, under the workload's fault schedule, carrying [sends]
   routed sends between random host/infrastructure pairs spread over
   the horizon.  Returns ns per send, delivery included. *)
let net_replay_ns (w : Workload.t) ~seed ~servers ~sends =
  let site = Workload.site w in
  let graph = site.Netsim.Topology.graph in
  let engine = Dsim.Engine.create ~capacity:(sends + 1024) () in
  let net : unit Netsim.Net.t = Netsim.Net.create ~engine graph in
  let is_host = Array.make (Netsim.Graph.node_count graph) false in
  List.iter (fun (h, _) -> is_host.(h) <- true) site.Netsim.Topology.hosts;
  let infra = List.filter (fun v -> not is_host.(v)) (Netsim.Graph.nodes graph) in
  Netsim.Net.set_route_anchors net infra;
  Option.iter
    (fun c ->
      Netsim.Fault.apply net
        (Netsim.Fault.compile ~salt:seed ~graph ~servers ~horizon:Workload.duration c))
    (Workload.campaign w ~seed);
  let hosts = Array.of_list (List.map fst site.Netsim.Topology.hosts) in
  let infra = Array.of_list infra in
  let rng = Dsim.Rng.create seed in
  for _ = 1 to sends do
    let at = Dsim.Rng.float rng Workload.duration in
    let h = Dsim.Rng.choice rng hosts and v = Dsim.Rng.choice rng infra in
    let src, dst = if Dsim.Rng.bool rng then (h, v) else (v, h) in
    ignore
      (Dsim.Engine.schedule_at engine at (fun () -> ignore (Netsim.Net.send net ~src ~dst ())))
  done;
  let t0 = clock () in
  Dsim.Engine.run engine;
  (clock () -. t0) *. 1e9 /. float_of_int (max 1 sends)

(* [Shortest_path.dijkstra] from every host, the call design 2 makes
   on each submit and login.  Returns µs per call. *)
let dijkstra_us (w : Workload.t) =
  let site = Workload.site w in
  let hosts = List.map fst site.Netsim.Topology.hosts in
  let passes = 5 in
  let t0 = clock () in
  for _ = 1 to passes do
    List.iter
      (fun h -> ignore (Netsim.Shortest_path.dijkstra site.Netsim.Topology.graph h))
      hosts
  done;
  (clock () -. t0) *. 1e6 /. float_of_int (passes * max 1 (List.length hosts))

type kernel = { k_name : string; k_start : float; k_value : float; k_end : float }

let timed_kernel name f =
  let k_start = clock () in
  let k_value = f () in
  { k_name = name; k_start; k_value; k_end = clock () }

(* ---------------------------------------------------------------- *)
(* A measured run: repetitions within the time budget                *)
(* ---------------------------------------------------------------- *)

type result = {
  workload : Workload.t;
  seed : int;
  cold : rep;
      (** the first repetition of the process: it pays for growing the
          heap from nothing, so it is timed apart; its virtual-time
          results and peak heap are the run's *)
  untraced : rep list;  (** warm untraced repetitions, in run order; never empty *)
  traced : rep list;  (** warm traced repetitions; non-empty exactly when tracing *)
  setups : float list;  (** every set-up timed in the run *)
  kernels : kernel list;
}

(* [setup_s] is the median of the repetitions' own set-ups and of
   extra ones, run until there are at least [setup_samples] and the
   extra ones took [setup_budget] seconds, so that a set-up of a few
   milliseconds still gets a median of many samples. *)
let setup_samples = 5
let setup_budget = 0.5

let pending_p50 rep =
  match rep.probe with
  | Some p when p.pending <> [] ->
      int_of_float (Stats.median (Array.of_list (List.map float_of_int p.pending)))
  | Some _ | None -> 0

(* After the cold repetition, warm ones run while the next, estimated
   from the last, still fits in [seconds]; there is always at least one
   untraced warm repetition and, when tracing, one traced, alternating
   from a traced one. *)
let measure ?wrap (w : Workload.t) ~seed ~seconds ~trace =
  let start = clock () in
  let cold = run_rep ?wrap w ~seed in
  Gc.compact ();
  let untraced = ref [] and traced = ref [] and last = ref 0. in
  let more () =
    !untraced = [] || (trace && !traced = []) || clock () -. start +. !last <= seconds
  in
  while more () do
    let t = trace && List.length !traced <= List.length !untraced in
    let t0 = clock () in
    let r = run_rep ?wrap ~traced:t w ~seed in
    last := clock () -. t0;
    if t then traced := r :: !traced else untraced := r :: !untraced;
    Gc.compact ()
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let reps = (cold :: untraced) @ traced in
  let setups = ref (List.map (fun r -> r.topology_s +. r.create_s) reps) in
  let extra = ref 0. in
  while List.length !setups < setup_samples || !extra < setup_budget do
    let (Built b) = build w in
    let s = b.topology_s +. b.create_s in
    extra := !extra +. s;
    setups := s :: !setups
  done;
  let kernels =
    match traced with
    | [] -> []
    | r :: _ ->
        let dispatch =
          timed_kernel "kernel.dispatch" (fun () ->
              dispatch_ns ~events:(count r "engine.events") ~depth:(pending_p50 r))
        in
        let replay =
          timed_kernel "kernel.net_replay" (fun () ->
              net_replay_ns w ~seed ~servers:r.servers ~sends:(count r "net.sends"))
        in
        [ dispatch; replay; timed_kernel "kernel.dijkstra" (fun () -> dijkstra_us w) ]
  in
  { workload = w; seed; cold; untraced; traced; setups = List.rev !setups; kernels }
