(* From a measured run to the benchmark's output: the end-to-end and
   per-layer metric tables, the correctness verdict, the result JSON and
   the span file. *)

open Harness

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let median_of f l = Stats.median (Array.of_list (List.map f l))
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let word_mib = float_of_int (Sys.word_size / 8) /. 1048576.

let all_reps r = (r.cold :: r.untraced) @ r.traced

(* Virtual-time results and memory come from the cold repetition;
   every repetition of a seed must agree on the former anyway. *)
let end_to_end r =
  let f = r.cold in
  [
    m "setup_s" "s" (Stats.median (Array.of_list r.setups));
    m "run_s" "s" (median_of (fun x -> x.run_s) r.untraced);
    m "peak_heap_mb" "MiB" (float_of_int f.peak_heap_words *. word_mib);
    m "deliver_p50_vt" "vt" f.deliver_p50;
    m "deliver_p99_vt" "vt" f.deliver_p99;
    m "availability" "fraction" f.availability;
    m "polls_per_check" "polls/check" f.polls_per_check;
  ]

let failures (v : Mail.Ledger.verdict) =
  v.Mail.Ledger.lost + v.Mail.Ledger.duplicates + v.Mail.Ledger.undeliverable
  + v.Mail.Ledger.spurious_bounces

(* Printed next to the end-to-end metrics: their bases, and the failed
   share, which is zero on every workload and so cannot carry a bound. *)
let context r =
  let f = r.cold in
  [
    m "deliver_n" "count" (float_of_int f.deliver_n);
    m "submitted" "count" (float_of_int f.verdict.Mail.Ledger.submitted);
    m "failed_share" "fraction" (ratio (failures f.verdict) f.verdict.Mail.Ledger.submitted);
    m "warm_reps" "count" (float_of_int (List.length r.untraced));
  ]

let per_layer r =
  let f = r.cold in
  let c name = float_of_int (count f name) in
  let probe x = Option.get x.probe in
  let med g = median_of (fun x -> g x (probe x)) r.traced in
  let main p = Option.value ~default:0. p.main_slice in
  let in_main p =
    p.check.in_main.s +. p.compact.in_main.s +. p.health.in_main.s +. p.login.in_main.s
  in
  let after_main p =
    p.check.after.s +. p.compact.after.s +. p.health.after.s +. p.login.after.s
  in
  let kernel name =
    match List.find_opt (fun k -> String.equal k.k_name name) r.kernels with
    | Some k -> k.k_value
    | None -> 0.
  in
  let untraced_run = median_of (fun x -> x.run_s) r.untraced in
  let p0 = probe (List.hd r.traced) in
  let checks = calls p0.check in
  let engine_events =
    List.map
      (fun (k, _) -> m ("engine.events." ^ k) "count" (c ("engine.events." ^ k)))
      categories
  in
  [
    m "topology.build_s" "s" (median_of (fun x -> x.topology_s) (all_reps r));
    m "system.create_s" "s" (median_of (fun x -> x.create_s) (all_reps r));
    m "scenario.inject_s" "s" (med (fun _ p -> p.inject.s));
    m "scenario.drain_s" "s" (med (fun _ p -> p.drain.s));
    m "scenario.self_s" "s"
      (med (fun x p -> x.run_s -. p.inject.s -. main p -. p.drain.s -. after_main p));
    m "engine.run_s" "s" (med (fun _ p -> main p));
    m "engine.self_s" "s" (med (fun _ p -> main p -. in_main p));
    m "engine.events" "count" (c "engine.events");
  ]
  @ engine_events
  @ [
      m "engine.events.other" "count" (c "engine.events.other");
      m "engine.events_per_s" "1/s" (c "engine.events" /. untraced_run);
      m "engine.pending_p50" "count" (float_of_int (pending_p50 (List.hd r.traced)));
      m "engine.dispatch_ns" "ns" (kernel "kernel.dispatch");
      m "gc.minor_words_per_event" "words/event" (f.minor_words /. c "engine.events");
      m "gc.major_collections" "count" (float_of_int f.major_collections);
      m "net.sends" "count" (c "net.sends");
      m "net.hops" "count" (c "net.hops");
      m "net.dropped" "count" (c "net.dropped");
      m "net.route_recomputes" "count" (c "net.route_recomputes");
      m "net.route_hits" "count" (c "net.route_hits");
      m "net.route_repairs" "count" (c "net.route_repairs");
      m "net.route_hit_ratio" "fraction"
        (ratio (count f "net.route_hits")
           (count f "net.route_hits" + count f "net.route_recomputes"));
      m "net.replay_ns" "ns" (kernel "kernel.net_replay");
      m "pipeline.deposits" "count" (c "pipeline.deposits");
      m "pipeline.retries" "count" (c "pipeline.retries");
      m "pipeline.resubmissions" "count" (c "pipeline.resubmissions");
      m "pipeline.retry_ratio" "fraction"
        (ratio (count f "pipeline.retries") (count f "pipeline.deposits"));
      m "replica_group.fetch_calls" "count" (float_of_int (calls p0.fetch));
      m "replica_group.fetch_s" "s" (med (fun _ p -> total p.fetch));
      m "replica_group.quorum_acks" "count" (c "replica_group.quorum_acks");
      m "replica_group.degraded_acks" "count" (c "replica_group.degraded_acks");
      m "replica_group.failovers" "count" (c "replica_group.failovers");
      m "replica_group.resyncs" "count" (c "replica_group.resyncs");
      m "replica_group.purges" "count" (c "replica_group.purges");
      m "replica_group.quorum_ratio" "fraction"
        (ratio (count f "replica_group.quorum_acks")
           (count f "replica_group.quorum_acks" + count f "replica_group.degraded_acks"));
      m "user_agent.checks" "count" (c "user_agent.checks");
      m "user_agent.check_s" "s" (med (fun _ p -> total p.check));
      m "user_agent.check_ns" "ns"
        (if checks = 0 then 0. else med (fun _ p -> total p.check) *. 1e9 /. float_of_int checks);
      m "user_agent.polls" "count" (c "user_agent.polls");
      m "user_agent.failed_polls" "count" (c "user_agent.failed_polls");
      m "ledger.compact_calls" "count" (float_of_int (calls p0.compact));
      m "ledger.compact_s" "s" (med (fun _ p -> total p.compact));
      m "ledger.compacted" "count" (c "ledger.compacted");
      m "telemetry.health_s" "s" (med (fun _ p -> total p.health));
      m "telemetry.spans" "count" (c "telemetry.spans");
      m "telemetry.spans_dropped" "count" (c "telemetry.spans_dropped");
      m "telemetry.alerts" "count" (c "telemetry.alerts");
      m "location_system.login_s" "s" (med (fun _ p -> total p.login));
      m "location_system.logins" "count" (c "location_system.logins");
      m "location_system.location_updates" "count" (c "location_system.location_updates");
      m "location_system.location_gossip" "count" (c "location_system.location_gossip");
      m "shortest_path.dijkstra_us" "us" (kernel "kernel.dijkstra");
      m "trace.overhead" "fraction"
        ((median_of (fun x -> x.run_s) r.traced /. untraced_run) -. 1.);
    ]

(* ---------------------------------------------------------------- *)
(* Correctness                                                       *)
(* ---------------------------------------------------------------- *)

(* Everything a seed fixes: two repetitions of one seed, traced or
   not, must agree on all of it. *)
let fingerprint x =
  ( (x.deliver_n, x.deliver_p50, x.deliver_p99, x.availability, x.polls_per_check),
    { x.verdict with Mail.Ledger.violations = [] },
    x.counts )

let problems r =
  let w = r.workload in
  let f = r.cold in
  let rep_problems x =
    let v = x.verdict in
    (if v.Mail.Ledger.ok then []
     else
       [
         Printf.sprintf "ledger violated: %d lost, %d duplicated" v.Mail.Ledger.lost
           v.Mail.Ledger.duplicates;
       ])
    @ if fingerprint x = fingerprint f then [] else [ "repetitions of one seed differ" ]
  in
  let bracket_problems x =
    match x.probe with
    | None -> []
    | Some p ->
        let expect what got want =
          if got = want then [] else [ Printf.sprintf "%s: traced %d, counted %d" what got want ]
        in
        expect "checks" (calls p.check)
          (count x "user_agent.checks" - count x "location_system.logins")
        @ expect "injections" (count_of p.inject) w.mail_count
        @
        match w.design with
        | Workload.Syntax ->
            expect "fetches" (calls p.fetch)
              (count x "user_agent.polls" - count x "user_agent.failed_polls")
        | Workload.Location _ -> []
  in
  List.concat_map (fun x -> rep_problems x @ bracket_problems x) (all_reps r)

(* ---------------------------------------------------------------- *)
(* Output                                                            *)
(* ---------------------------------------------------------------- *)

module J = Telemetry.Json

let metrics_json ms =
  J.Obj
    (List.map
       (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit) ]))
       ms)

let attempted r =
  List.fold_left (fun acc x -> acc + x.verdict.Mail.Ledger.submitted) 0 (all_reps r)

let failed r = List.fold_left (fun acc x -> acc + failures x.verdict) 0 (all_reps r)

(* The one-line result: end-to-end metrics untraced, per-layer traced. *)
let summary r =
  J.Obj
    [
      ("correct", J.Bool (problems r = []));
      ("attempted", J.Int (attempted r));
      ("failed", J.Int (failed r));
      ("metrics", metrics_json (if r.traced = [] then end_to_end r else per_layer r));
    ]

(* The [--json] document: everything above plus the raw repetitions,
   so [compare] and the history files can be rebuilt from it. *)
let document r =
  let floats l = J.List (List.map (fun x -> J.Float x) l) in
  J.Obj
    ([
       ("workload", J.String r.workload.Workload.name);
       ("seed", J.Int r.seed);
       ("trace", J.Bool (r.traced <> []));
       ("correct", J.Bool (problems r = []));
       ("problems", J.List (List.map (fun s -> J.String s) (problems r)));
       ("attempted", J.Int (attempted r));
       ("failed", J.Int (failed r));
       ("metrics", metrics_json (end_to_end r));
       ("context", metrics_json (context r));
       ("counts", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) r.cold.counts));
       ("cold_run_s", J.Float r.cold.run_s);
       ("run_s", floats (List.map (fun x -> x.run_s) r.untraced));
       ("setup_s", floats r.setups);
     ]
    @
    if r.traced = [] then []
    else
      [
        ("traced_run_s", floats (List.map (fun x -> x.run_s) r.traced));
        ("per_layer", metrics_json (per_layer r));
      ])

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-34s %18.6f %s\n" x.name x.value x.unit) ms

let print r =
  let w = r.workload in
  Printf.printf "workload %s  seed %d  reps: 1 cold, %d warm untraced, %d warm traced\n"
    w.Workload.name r.seed (List.length r.untraced) (List.length r.traced);
  print_table "end-to-end" (end_to_end r);
  print_table "context" (context r);
  print_table "counts"
    (List.map (fun (k, n) -> m k "count" (float_of_int n)) r.cold.counts);
  if r.traced <> [] then print_table "per-layer" (per_layer r);
  List.iter (fun s -> Printf.printf "PROBLEM: %s\n" s) (problems r)

(* ---------------------------------------------------------------- *)
(* Spans                                                             *)
(* ---------------------------------------------------------------- *)

(* One line per span: name, start and end in seconds since the process
   started, parent id, and — for boundaries crossed many times, such as
   the checks — the call count and summed seconds of the aggregate. *)
let spans_jsonl r =
  let buf = Buffer.create 4096 and next = ref 0 in
  let emit ?parent ~name ~start ~stop ?(n = 1) ?seconds () =
    incr next;
    let id = !next in
    let seconds = Option.value ~default:(stop -. start) seconds in
    Buffer.add_string buf
      (J.to_string
         (J.Obj
            [
              ("id", J.Int id);
              ("name", J.String name);
              ("parent", match parent with None -> J.Null | Some p -> J.Int p);
              ("start", J.Float (start -. origin));
              ("end", J.Float (stop -. origin));
              ("count", J.Int n);
              ("seconds", J.Float seconds);
            ]));
    Buffer.add_char buf '\n';
    id
  in
  let agg ~parent name a =
    if a.n = 0. then None
    else Some (emit ~parent ~name ~start:a.first ~stop:a.last ~n:(count_of a) ~seconds:a.s ())
  in
  let calls_under parent p pick =
    Option.iter
      (fun check -> ignore (agg ~parent:check "replica_group.fetch" (pick p.fetch)))
      (agg ~parent "user_agent.check" (pick p.check));
    ignore (agg ~parent "ledger.compact" (pick p.compact));
    ignore (agg ~parent "telemetry.publish_health" (pick p.health));
    ignore (agg ~parent "location_system.login" (pick p.login))
  in
  List.iter
    (fun x ->
      let p = Option.get x.probe in
      let finish = x.drive_start +. x.run_s in
      let rep = emit ~name:"rep" ~start:x.started ~stop:finish () in
      let setup_end = x.started +. x.topology_s +. x.create_s in
      let setup = emit ~parent:rep ~name:"setup" ~start:x.started ~stop:setup_end () in
      ignore
        (emit ~parent:setup ~name:"topology.build" ~start:x.started
           ~stop:(x.started +. x.topology_s) ());
      ignore
        (emit ~parent:setup ~name:"system.create" ~start:(x.started +. x.topology_s)
           ~stop:setup_end ());
      let drive = emit ~parent:rep ~name:"scenario.drive" ~start:x.drive_start ~stop:finish () in
      ignore (agg ~parent:drive "scenario.inject" p.inject);
      Option.iter
        (fun s ->
          let engine =
            emit ~parent:drive ~name:"engine.run" ~start:(p.main_end -. s) ~stop:p.main_end ()
          in
          calls_under engine p (fun b -> b.in_main))
        p.main_slice;
      ignore (agg ~parent:drive "scenario.drain" p.drain);
      calls_under drive p (fun b -> b.after))
    r.traced;
  List.iter
    (fun k -> ignore (emit ~name:k.k_name ~start:k.k_start ~stop:k.k_end ()))
    r.kernels;
  Buffer.contents buf

(* The command fails whenever the run is not correct: a ledger
   violation, repetitions of one seed that disagree, or trace brackets
   that disagree with the program's own counters. *)
let exit_code r = if problems r = [] then 0 else 1
