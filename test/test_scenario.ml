(* Scenario-level regression tests: the paper's quantitative claims
   (C1/C2/C6) hold on every run. *)

let fig1 = Netsim.Topology.paper_fig1

let small_spec =
  {
    Mail.Scenario.default_spec with
    duration = 2000.;
    mail_count = 120;
    check_period = 80.;
  }

(* Random server crashes: [rate] per server per unit time, each
   repaired after an exponential time of mean [mean]. *)
let crashes ?(mean = 150.) rate =
  Some
    {
      Netsim.Fault.seed = 0;
      faults = [ Netsim.Fault.Crashes { rate; repair = Exp_mean mean } ];
    }

let test_no_failures_lossless_and_one_poll () =
  let o = Mail.Scenario.run_syntax (fig1 ()) small_spec in
  let r = o.Mail.Scenario.report in
  Alcotest.(check int) "all deposited" 0 r.Mail.Evaluation.undelivered;
  Alcotest.(check int) "all retrieved" 0 r.Mail.Evaluation.unretrieved;
  Alcotest.(check int) "inbox total equals traffic" 120 o.Mail.Scenario.inbox_total;
  (* the paper's headline: ~1 poll per retrieval under normal conditions *)
  Alcotest.(check bool) "polls/check near 1" true
    (o.Mail.Scenario.final_polls_per_check < 1.15);
  Alcotest.(check (float 1e-9)) "fully available" 1. o.Mail.Scenario.availability

let test_failures_still_lossless () =
  let spec = { small_spec with faults = crashes ~mean:120. 0.002 } in
  let o = Mail.Scenario.run_syntax (fig1 ()) spec in
  let r = o.Mail.Scenario.report in
  Alcotest.(check bool) "servers actually failed" true
    (o.Mail.Scenario.server_uptime < 1.);
  Alcotest.(check int) "zero undelivered" 0 r.Mail.Evaluation.undelivered;
  Alcotest.(check int) "zero unretrieved" 0 r.Mail.Evaluation.unretrieved;
  Alcotest.(check int) "every message reached an inbox" 120 o.Mail.Scenario.inbox_total;
  Alcotest.(check bool) "polls rise under failures" true
    (o.Mail.Scenario.final_polls_per_check > 1.0)

let test_outages_reported () =
  let spec = { small_spec with mail_count = 20; faults = crashes 0.002 } in
  let site = fig1 () in
  let o = Mail.Scenario.run_syntax site spec in
  let sched = o.Mail.Scenario.fault_schedule in
  Alcotest.(check bool) "outages scheduled" true (sched.Netsim.Fault.windows <> []);
  Alcotest.(check (float 0.)) "horizon is the duration" spec.duration
    sched.Netsim.Fault.horizon;
  List.iter
    (fun (w : Netsim.Fault.window) ->
      Alcotest.(check bool) "on a server" true
        (match w.target with
        | Netsim.Fault.Node node -> List.mem node site.Netsim.Topology.servers
        | Netsim.Fault.Link _ -> false);
      Alcotest.(check bool) "starts within the horizon" true
        (w.start >= 0. && w.start < spec.duration))
    sched.Netsim.Fault.windows;
  let calm = Mail.Scenario.run_syntax (fig1 ()) { spec with faults = None } in
  Alcotest.(check int) "none without a campaign" 0
    (List.length calm.Mail.Scenario.fault_schedule.Netsim.Fault.windows)

let test_polls_monotone_in_crash_rate () =
  let run rate =
    let spec = { small_spec with faults = crashes rate } in
    (Mail.Scenario.run_syntax (fig1 ()) spec).Mail.Scenario.final_polls_per_check
  in
  let p0 = run 0.0 and p1 = run 0.004 in
  Alcotest.(check bool) "more failures, more polls" true (p1 > p0)

let test_getmail_beats_poll_all () =
  let run mode =
    let spec = { small_spec with faults = crashes 0.002; retrieval = mode } in
    Mail.Scenario.run_syntax (fig1 ()) spec
  in
  let gm = run Mail.Scenario.Get_mail in
  let pa = run Mail.Scenario.Poll_all in
  Alcotest.(check bool) "fewer polls" true
    (gm.Mail.Scenario.final_polls_per_check < pa.Mail.Scenario.final_polls_per_check);
  (* poll-all always pays the full list *)
  Alcotest.(check bool) "poll-all = replication" true
    (Float.abs (pa.Mail.Scenario.final_polls_per_check -. 3.) < 1e-9);
  (* both are lossless *)
  Alcotest.(check int) "getmail lossless" 0
    gm.Mail.Scenario.report.Mail.Evaluation.unretrieved;
  Alcotest.(check int) "poll-all lossless" 0
    pa.Mail.Scenario.report.Mail.Evaluation.unretrieved

let test_naive_loses_mail_under_failures () =
  (* Whether one run strands mail depends on how its crashes fall
     (about a quarter of seeds strand none), so the claim is made over
     seeds 1-10: the lossy baseline leaves mail behind, and GetMail on
     the very same runs leaves none. *)
  let unretrieved mode =
    List.fold_left
      (fun acc seed ->
        let spec = { small_spec with faults = crashes 0.004; seed; retrieval = mode } in
        acc + (Mail.Scenario.run_syntax (fig1 ()) spec).report.Mail.Evaluation.unretrieved)
      0 (List.init 10 succ)
  in
  Alcotest.(check bool) "naive strands mail" true (unretrieved Mail.Scenario.Naive > 0);
  Alcotest.(check int) "getmail strands none" 0 (unretrieved Mail.Scenario.Get_mail)

let test_deterministic_runs () =
  let o1 = Mail.Scenario.run_syntax (fig1 ()) small_spec in
  let o2 = Mail.Scenario.run_syntax (fig1 ()) small_spec in
  Alcotest.(check (float 1e-9)) "same polls"
    o1.Mail.Scenario.final_polls_per_check o2.Mail.Scenario.final_polls_per_check;
  Alcotest.(check int) "same traffic"
    o1.Mail.Scenario.report.Mail.Evaluation.messages_sent
    o2.Mail.Scenario.report.Mail.Evaluation.messages_sent

let hier_site seed =
  let rng = Dsim.Rng.create seed in
  let g = Netsim.Topology.hierarchical ~rng Netsim.Topology.default_hierarchy in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }

let test_location_roaming_overhead () =
  let spec = { small_spec with mail_count = 80 } in
  let fixed = Mail.Scenario.run_location ~roam_probability:0.0 (hier_site 11) spec in
  let roaming = Mail.Scenario.run_location ~roam_probability:0.4 (hier_site 11) spec in
  (* §3.2.2c: "overhead is only incurred if a user moves". *)
  Alcotest.(check bool) "roaming costs more messages" true
    (roaming.Mail.Scenario.report.Mail.Evaluation.messages_sent
    > fixed.Mail.Scenario.report.Mail.Evaluation.messages_sent);
  Alcotest.(check int) "fixed lossless" 0
    fixed.Mail.Scenario.report.Mail.Evaluation.unretrieved;
  Alcotest.(check int) "roaming lossless" 0
    roaming.Mail.Scenario.report.Mail.Evaluation.unretrieved

let test_large_hierarchy_stress () =
  (* A heavyweight end-to-end run: 5 regions, 150 users, 800 messages,
     server failures, multimedia sizes — everything must still arrive. *)
  let rng = Dsim.Rng.create 2026 in
  let spec_h = { Netsim.Topology.default_hierarchy with regions = 5 } in
  let g = Netsim.Topology.hierarchical ~rng spec_h in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  let site =
    { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }
  in
  let spec =
    {
      Mail.Scenario.default_spec with
      seed = 17;
      duration = 8000.;
      mail_count = 800;
      check_period = 150.;
      faults = crashes 0.0005;
    }
  in
  let o = Mail.Scenario.run_syntax site spec in
  let r = o.Mail.Scenario.report in
  Alcotest.(check bool) "failures occurred" true (o.Mail.Scenario.server_uptime < 1.);
  Alcotest.(check int) "zero undelivered" 0 r.Mail.Evaluation.undelivered;
  Alcotest.(check int) "zero unretrieved" 0 r.Mail.Evaluation.unretrieved;
  Alcotest.(check int) "every message in an inbox" 800 o.Mail.Scenario.inbox_total;
  Alcotest.(check bool) "cross-region forwarding happened" true
    (r.Mail.Evaluation.mean_forward_hops > 0.5)

let test_metric_name_parity () =
  (* The three designs are only comparable if their registries expose
     the same measurement surface: identical metric names, labels
     aside. *)
  let spec = { small_spec with mail_count = 80; faults = crashes 0.002 } in
  let syn = Mail.Scenario.run_syntax (fig1 ()) spec in
  let loc = Mail.Scenario.run_location ~roam_probability:0.2 (hier_site 11) spec in
  let names o = Telemetry.Registry.metric_names o.Mail.Scenario.metrics in
  Alcotest.(check (list string)) "syntax/location same metric names" (names syn)
    (names loc);
  let att = Mail.Scenario.run_attribute ~roam_probability:0.1 (hier_site 11) spec in
  Alcotest.(check (list string)) "attribute matches too" (names syn) (names att);
  (* typed registry access replaced the old stringly counter shim *)
  Alcotest.(check bool) "typed counter access works" true
    (Telemetry.Registry.get_counter syn.Mail.Scenario.metrics "polls" > 0)

let test_arpanet_mail () =
  (* A full mail scenario over the 1977 ARPANET backbone: BBN, UCLA
     and Illinois serve mail for the other seventeen sites. *)
  let site = Netsim.Topology.arpanet_mail_site () in
  let spec =
    {
      Mail.Scenario.default_spec with
      seed = 1969;
      duration = 6000.;
      mail_count = 400;
      check_period = 200.;
      faults = crashes 0.0003;
    }
  in
  let o = Mail.Scenario.run_syntax site spec in
  let r = o.Mail.Scenario.report in
  Alcotest.(check int) "zero undelivered" 0 r.Mail.Evaluation.undelivered;
  Alcotest.(check int) "zero unretrieved" 0 r.Mail.Evaluation.unretrieved;
  Alcotest.(check int) "every message landed" 400 o.Mail.Scenario.inbox_total;
  Alcotest.(check bool) "coast-to-coast traffic forwarded" true
    (r.Mail.Evaluation.mean_forward_hops > 0.1)

(* --- determinism regression: seeded runs are byte-identical ------------ *)

let test_double_run_identical () =
  let spec =
    {
      Mail.Scenario.default_spec with
      duration = 1500.;
      mail_count = 100;
      check_period = 80.;
      faults = crashes 0.002;
    }
  in
  let run () = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) spec in
  let o1 = run () and o2 = run () in
  let metrics o =
    Telemetry.Json.to_string
      (Telemetry.Registry.to_json o.Mail.Scenario.metrics)
  in
  let ledger o =
    Telemetry.Json.to_string (Mail.Ledger.verdict_to_json o.Mail.Scenario.ledger)
  in
  Alcotest.(check string) "metrics export byte-identical" (metrics o1) (metrics o2);
  Alcotest.(check string) "ledger verdict byte-identical" (ledger o1) (ledger o2)

(* The drive tallies checks through pre-resolved counter cells.  With
   every round traced ([span_sample] 1), each "getmail.check" root
   span carries its round's check_stats, so the counters must equal
   the sums over those spans — on a faulted run, where failed polls
   happen. *)
let test_check_counters_match_rounds () =
  let sys = Mail.Syntax_system.create (fig1 ()) in
  let spec = { small_spec with faults = crashes ~mean:120. 0.004 } in
  let o = Mail.Scenario.drive (module Mail.System.Syntax) sys spec in
  let tracer = o.Mail.Scenario.tracer in
  Alcotest.(check int) "no span dropped" 0 (Telemetry.Tracer.dropped tracer);
  let rounds =
    List.filter
      (fun sp -> String.equal sp.Telemetry.Span.name "getmail.check")
      (Telemetry.Tracer.spans tracer)
  in
  let sum key =
    List.fold_left
      (fun acc sp ->
        match Telemetry.Span.attr sp key with
        | Some v -> acc + int_of_string v
        | None -> Alcotest.failf "getmail.check span without %s" key)
      0 rounds
  in
  let counter = Dsim.Stats.Counter.get (Mail.Syntax_system.counters sys) in
  Alcotest.(check int) "checks" (List.length rounds) (counter "checks");
  List.iter
    (fun key -> Alcotest.(check int) key (sum key) (counter key))
    [ "polls"; "failed_polls"; "retrieved" ];
  Alcotest.(check bool) "the run had failed polls" true (counter "failed_polls" > 0);
  Alcotest.(check int) "every message retrieved once" spec.mail_count (counter "retrieved")

(* The check sweep visits users in phase order at exactly the per-user
   schedule: user [i] of [N] first at [period * (i+1) / (N+1)], then by
   repeated additions of the period, while before [duration].  The
   horizon here cuts the last round mid-way, and the traffic and
   outages interleave queued events with the inline checks. *)
let test_check_sweep_schedule () =
  let sys = Mail.Syntax_system.create (fig1 ()) in
  let spec =
    { small_spec with duration = 1000.; check_period = 80.; faults = crashes 0.002 }
  in
  let engine = Mail.System.Syntax.engine sys in
  let seen = ref [] in
  let on_check_tick ~rng:_ name = seen := (Dsim.Engine.now engine, name) :: !seen in
  ignore (Mail.Scenario.drive ~on_check_tick (module Mail.System.Syntax) sys spec);
  let users = Array.of_list (Mail.System.Syntax.users sys) in
  let n = Array.length users in
  let times =
    Array.init n (fun i ->
        spec.check_period *. float_of_int (i + 1) /. float_of_int (n + 1))
  in
  let expected = ref [] in
  while times.(0) < spec.duration do
    Array.iteri
      (fun i at ->
        if at < spec.duration then expected := (at, users.(i)) :: !expected;
        times.(i) <- at +. spec.check_period)
      times
  done;
  let show l =
    List.rev_map (fun (at, u) -> Printf.sprintf "%h %s" at (Naming.Name.to_string u)) l
  in
  Alcotest.(check (list string)) "phase-ordered schedule" (show !expected) (show !seen);
  let last_round = List.filter (fun (at, _) -> at >= 960.) !expected in
  Alcotest.(check bool) "the horizon cuts the last round" true
    (last_round <> [] && List.length last_round < n)

(* C1's deterministic core: with no failures every check of every
   user, the first included, is exactly one poll, on designs 1 and 2.
   No server ever restarts, so each reads LastStartTime = -inf and the
   primary is stable from a user's first check. *)
let test_c1_exact_one_poll () =
  let check_design label (o : Mail.Scenario.outcome) =
    let counter = Telemetry.Registry.get_counter o.Mail.Scenario.metrics in
    let checks = counter "checks" in
    Alcotest.(check bool) (label ^ ": users checked") true (checks > 0);
    Alcotest.(check int) (label ^ ": one poll per check") checks (counter "polls");
    Alcotest.(check int) (label ^ ": no failed polls") 0 (counter "failed_polls");
    Alcotest.(check int) (label ^ ": all retrieved") 0
      o.Mail.Scenario.report.Mail.Evaluation.unretrieved;
    Alcotest.(check (float 0.)) (label ^ ": polls/check") 1.
      o.Mail.Scenario.final_polls_per_check
  in
  check_design "design 1" (Mail.Scenario.run_syntax (fig1 ()) small_spec);
  check_design "design 2"
    (Mail.Scenario.run_location ~roam_probability:0.0 (hier_site 11)
       { small_spec with mail_count = 80 })

(* The reported uptime is what the network did: integrating the
   [Net.on_status_change] flips of a run with heavily overlapping
   crashes gives every server's up time, and [server_uptime] is their
   mean.  A node covered by two overlapping windows stays down until
   the later one ends, and the report must count exactly that. *)
let test_uptime_matches_network () =
  let spec =
    { small_spec with mail_count = 40; faults = crashes ~mean:300. 0.01 }
  in
  let sys = Mail.Syntax_system.create (fig1 ()) in
  let servers = Mail.System.Syntax.server_nodes sys in
  let down_since = Hashtbl.create 4 and down_total = Hashtbl.create 4 in
  let clip t = Float.min t spec.duration in
  Netsim.Net.on_status_change (Mail.System.Syntax.net sys) (fun ~time node up ->
      if up then begin
        let since = Hashtbl.find down_since node in
        Hashtbl.remove down_since node;
        let acc = Option.value (Hashtbl.find_opt down_total node) ~default:0. in
        Hashtbl.replace down_total node (acc +. (clip time -. clip since))
      end
      else Hashtbl.replace down_since node time);
  let o = Mail.Scenario.drive (module Mail.System.Syntax) sys spec in
  Alcotest.(check int) "every server back up" 0 (Hashtbl.length down_since);
  let node_windows node =
    List.filter
      (fun (w : Netsim.Fault.window) -> w.target = Netsim.Fault.Node node)
      o.Mail.Scenario.fault_schedule.Netsim.Fault.windows
  in
  let overlapping node =
    let rec any = function
      | (a : Netsim.Fault.window) :: (b :: _ as rest) ->
          b.start < a.start +. a.duration || any rest
      | _ -> false
    in
    any (node_windows node)
  in
  Alcotest.(check bool) "some crash windows overlap" true (List.exists overlapping servers);
  let measured =
    List.fold_left
      (fun acc node ->
        let down = Option.value (Hashtbl.find_opt down_total node) ~default:0. in
        acc +. ((spec.duration -. down) /. spec.duration))
      0. servers
    /. float_of_int (List.length servers)
  in
  Alcotest.(check bool) "servers actually failed" true (measured < 1.);
  Alcotest.(check (float 1e-9)) "server_uptime as measured on the net" measured
    o.Mail.Scenario.server_uptime

let suite =
  [
    ( "scenario",
      [
        Alcotest.test_case "C1: lossless, ~1 poll, no failures" `Slow
          test_no_failures_lossless_and_one_poll;
        Alcotest.test_case "C1: lossless under failures" `Slow
          test_failures_still_lossless;
        Alcotest.test_case "C1: polls monotone in failure rate" `Slow
          test_polls_monotone_in_crash_rate;
        Alcotest.test_case "C2: GetMail beats poll-all" `Slow test_getmail_beats_poll_all;
        Alcotest.test_case "C2: naive baseline strands mail" `Slow
          test_naive_loses_mail_under_failures;
        Alcotest.test_case "determinism" `Slow test_deterministic_runs;
        Alcotest.test_case "C6: roaming overhead" `Slow test_location_roaming_overhead;
        Alcotest.test_case "metric-name parity across designs" `Slow
          test_metric_name_parity;
        Alcotest.test_case "large hierarchy stress" `Slow test_large_hierarchy_stress;
        Alcotest.test_case "mail over the 1977 ARPANET" `Slow test_arpanet_mail;
        Alcotest.test_case "double-run: metrics and ledger identical" `Slow
          test_double_run_identical;
        Alcotest.test_case "outcome lists the random outages" `Quick
          test_outages_reported;
        Alcotest.test_case "check counters equal per-round stats" `Quick
          test_check_counters_match_rounds;
        Alcotest.test_case "check sweep follows the per-user schedule" `Quick
          test_check_sweep_schedule;
        Alcotest.test_case "C1 exact: no failures, one poll per check" `Quick
          test_c1_exact_one_poll;
        Alcotest.test_case "reported uptime matches the network" `Quick
          test_uptime_matches_network;
      ] );
  ]
