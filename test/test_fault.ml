(* Fault campaigns, link outages, the delivery ledger, and the
   delivery-guarantee regressions of the retry pipeline. *)

let nm u = Naming.Name.make ~region:"r0" ~host:"H1" ~user:u

let msg id =
  Mail.Message.create ~id ~sender:(nm "alice") ~recipient:(nm "bob")
    ~submitted_at:0. ()

(* --- campaign DSL and compilation ----------------------------------- *)

let test_parse_roundtrip () =
  let c =
    Netsim.Fault.parse
      "seed:7,crash:0.002/150,link:0.001/=30,partition:r1@100+50,burst:0.3@200+40"
  in
  Alcotest.(check int) "seed" 7 c.Netsim.Fault.seed;
  Alcotest.(check int) "faults" 4 (List.length c.Netsim.Fault.faults);
  let c' = Netsim.Fault.parse (Netsim.Fault.to_string c) in
  Alcotest.(check bool) "round-trip" true (c = c');
  Alcotest.check_raises "malformed" (Invalid_argument "Fault.parse: unknown fault kind \"bogus\"")
    (fun () -> ignore (Netsim.Fault.parse "bogus:1"))

let two_region_graph () =
  let g = Netsim.Graph.create () in
  let a1 = Netsim.Graph.add_node ~label:"A1" ~kind:Netsim.Graph.Server ~region:"ra" g in
  let a2 = Netsim.Graph.add_node ~label:"A2" ~kind:Netsim.Graph.Server ~region:"ra" g in
  let b1 = Netsim.Graph.add_node ~label:"B1" ~kind:Netsim.Graph.Server ~region:"rb" g in
  let b2 = Netsim.Graph.add_node ~label:"B2" ~kind:Netsim.Graph.Server ~region:"rb" g in
  Netsim.Graph.add_edge g a1 a2 1.;
  Netsim.Graph.add_edge g b1 b2 1.;
  Netsim.Graph.add_edge g a2 b1 1.;
  (g, a1, a2, b1, b2)

let test_compile_deterministic () =
  let g, a1, a2, b1, b2 = two_region_graph () in
  let servers = [ a1; a2; b1; b2 ] in
  let c = Netsim.Fault.parse "seed:3,crash:0.01,link:0.005,burst:0.5" in
  let s1 = Netsim.Fault.compile ~graph:g ~servers ~horizon:1000. c in
  let s2 = Netsim.Fault.compile ~graph:g ~servers ~horizon:1000. c in
  Alcotest.(check bool) "same schedule" true
    (s1.Netsim.Fault.windows = s2.Netsim.Fault.windows);
  Alcotest.(check bool) "windows generated" true
    (List.length s1.Netsim.Fault.windows > 0);
  let s3 = Netsim.Fault.compile ~salt:1 ~graph:g ~servers ~horizon:1000. c in
  Alcotest.(check bool) "salt changes the draw" true
    (s1.Netsim.Fault.windows <> s3.Netsim.Fault.windows)

let test_partition_targets_boundary () =
  let g, a1, a2, b1, b2 = two_region_graph () in
  let c = { Netsim.Fault.seed = 0; faults = [ Netsim.Fault.Partition { region = "rb"; start = Some 10.; duration = Some 5. } ] } in
  let s = Netsim.Fault.compile ~graph:g ~servers:[ a1; a2; b1; b2 ] ~horizon:100. c in
  (* The only edge crossing rb's boundary is a2-b1. *)
  Alcotest.(check int) "one boundary window" 1 (List.length s.Netsim.Fault.windows);
  (match s.Netsim.Fault.windows with
  | [ w ] ->
      Alcotest.(check string) "kind" "partition" w.Netsim.Fault.kind;
      Alcotest.(check bool) "targets the boundary link" true
        (w.Netsim.Fault.target = Netsim.Fault.Link (a2, b1)
        || w.Netsim.Fault.target = Netsim.Fault.Link (b1, a2))
  | _ -> Alcotest.fail "expected one window");
  Alcotest.check_raises "unknown region"
    (Invalid_argument "Fault.compile: unknown region \"mars\"") (fun () ->
      ignore
        (Netsim.Fault.compile ~graph:g ~servers:[ a1 ]
           ~horizon:100.
           { Netsim.Fault.seed = 0; faults = [ Netsim.Fault.Partition { region = "mars"; start = None; duration = None } ] }))

(* --- link outages in the network substrate --------------------------- *)

let test_link_cut_reroutes () =
  (* Square a-b-c-d-a: cutting a-b must detour a→b via d,c. *)
  let g = Netsim.Graph.create () in
  let a = Netsim.Graph.add_node ~region:"r0" g in
  let b = Netsim.Graph.add_node ~region:"r0" g in
  let c = Netsim.Graph.add_node ~region:"r0" g in
  let d = Netsim.Graph.add_node ~region:"r0" g in
  Netsim.Graph.add_edge g a b 1.;
  Netsim.Graph.add_edge g b c 1.;
  Netsim.Graph.add_edge g c d 1.;
  Netsim.Graph.add_edge g d a 1.;
  let engine = Dsim.Engine.create () in
  let net = Netsim.Net.create ~engine g in
  let got = ref [] in
  Netsim.Net.set_handler net b (fun ~time:_ ~src:_ m -> got := m :: !got);
  Alcotest.(check bool) "direct hop count" true (Netsim.Net.hops net a b = 1);
  Netsim.Net.set_link_down net a b;
  Alcotest.(check bool) "link reported down" false (Netsim.Net.link_is_up net a b);
  Alcotest.(check bool) "detour is 3 hops" true (Netsim.Net.hops net a b = 3);
  Alcotest.(check bool) "send accepted" true (Netsim.Net.send net ~src:a ~dst:b "x");
  Dsim.Engine.run engine;
  Alcotest.(check (list string)) "delivered via detour" [ "x" ] !got;
  (* Cutting the other incident edge isolates a entirely. *)
  Netsim.Net.set_link_down net a d;
  Alcotest.(check bool) "no route left" false (Netsim.Net.send net ~src:a ~dst:b "y");
  Netsim.Net.set_link_up net a b;
  Netsim.Net.set_link_up net a d;
  Alcotest.(check (list (pair int int))) "all links restored" []
    (Netsim.Net.links_down net);
  Alcotest.(check bool) "direct route back" true (Netsim.Net.hops net a b = 1)

let test_apply_depth_counting () =
  let g = Netsim.Graph.create () in
  let a = Netsim.Graph.add_node ~region:"r0" g in
  let b = Netsim.Graph.add_node ~region:"r0" g in
  Netsim.Graph.add_edge g a b 1.;
  let engine = Dsim.Engine.create () in
  let net = Netsim.Net.create ~engine g in
  (* Two overlapping windows on the same node: up only at the last end. *)
  let sched =
    {
      Netsim.Fault.windows =
        [
          { Netsim.Fault.target = Netsim.Fault.Node a; kind = "crash"; start = 10.; duration = 20. };
          { Netsim.Fault.target = Netsim.Fault.Node a; kind = "crash"; start = 20.; duration = 30. };
        ];
      horizon = 100.;
    }
  in
  let flips = ref [] in
  Netsim.Fault.apply
    ~on_event:(fun ~time w status -> flips := (time, w.Netsim.Fault.kind, status) :: !flips)
    net sched;
  ignore (Dsim.Engine.schedule_at engine 25. (fun () ->
      Alcotest.(check bool) "down inside overlap" false (Netsim.Net.is_up net a)));
  ignore (Dsim.Engine.schedule_at engine 35. (fun () ->
      Alcotest.(check bool) "still down after first window ends" false
        (Netsim.Net.is_up net a)));
  Dsim.Engine.run engine;
  Alcotest.(check bool) "up after last window" true (Netsim.Net.is_up net a);
  Alcotest.(check (list (triple (float 0.01) string bool)))
    "one effective down, one effective up"
    [ (10., "crash", false); (50., "crash", true) ]
    (List.rev !flips)

(* --- the delivery ledger --------------------------------------------- *)

let test_ledger_verdicts () =
  let l = Mail.Ledger.create () in
  let m1 = msg 1 and m2 = msg 2 and m3 = msg 3 and m4 = msg 4 in
  (* m1: clean delivery. *)
  Mail.Ledger.record_submit l m1 ~at:0.;
  Mail.Ledger.record_deposit l m1 ~at:1.;
  Mail.Ledger.record_fetch l m1 ~at:2.;
  Mail.Ledger.record_retrieve l m1 ~at:2.;
  (* m2: lost — submitted, never resolved. *)
  Mail.Ledger.record_submit l m2 ~at:0.;
  (* m3: duplicated into the inbox. *)
  Mail.Ledger.record_submit l m3 ~at:0.;
  Mail.Ledger.record_deposit l m3 ~at:1.;
  Mail.Ledger.record_fetch l m3 ~at:2.;
  Mail.Ledger.record_retrieve l m3 ~at:2.;
  Mail.Ledger.record_retrieve l m3 ~at:3.;
  (* m4: explicit bounce — not a violation. *)
  Mail.Ledger.record_submit l m4 ~at:0.;
  Mail.Ledger.record_undeliverable l m4 ~reason:"retries exhausted" ~at:5.;
  let v = Mail.Ledger.check l in
  Alcotest.(check int) "submitted" 4 v.Mail.Ledger.submitted;
  Alcotest.(check int) "delivered" 1 v.Mail.Ledger.delivered;
  Alcotest.(check int) "undeliverable" 1 v.Mail.Ledger.undeliverable;
  Alcotest.(check int) "lost" 1 v.Mail.Ledger.lost;
  Alcotest.(check int) "duplicates" 1 v.Mail.Ledger.duplicates;
  Alcotest.(check bool) "not ok" false v.Mail.Ledger.ok;
  Alcotest.(check (list int)) "violations sorted by id" [ 2; 3 ]
    (List.map (fun x -> x.Mail.Ledger.id) v.Mail.Ledger.violations);
  Alcotest.(check bool) "m1 settled" true (Mail.Ledger.settled l 1);
  Alcotest.(check bool) "m2 not settled" false (Mail.Ledger.settled l 2);
  Alcotest.(check bool) "unknown id settled" true (Mail.Ledger.settled l 99)

let test_ledger_spurious_bounce_ok () =
  let l = Mail.Ledger.create () in
  let m = msg 1 in
  Mail.Ledger.record_submit l m ~at:0.;
  Mail.Ledger.record_deposit l m ~at:1.;
  Mail.Ledger.record_fetch l m ~at:2.;
  Mail.Ledger.record_retrieve l m ~at:2.;
  (* The deposit ack vanished and the pipeline later bounced: delivered
     at-least-once, so counted but not a violation. *)
  Mail.Ledger.record_undeliverable l m ~reason:"retries exhausted" ~at:9.;
  let v = Mail.Ledger.check l in
  Alcotest.(check bool) "ok" true v.Mail.Ledger.ok;
  Alcotest.(check int) "spurious bounce counted" 1 v.Mail.Ledger.spurious_bounces;
  Alcotest.(check int) "delivered" 1 v.Mail.Ledger.delivered

(* --- pipeline regressions (stub world, as in test_pipeline) ---------- *)

let tiny_world ?(config = Mail.Pipeline.default_pipeline_config) () =
  let g = Netsim.Graph.create () in
  let h1 = Netsim.Graph.add_node ~label:"H1" ~kind:Netsim.Graph.Host ~region:"r0" g in
  let s1 = Netsim.Graph.add_node ~label:"S1" ~kind:Netsim.Graph.Server ~region:"r0" g in
  let s2 = Netsim.Graph.add_node ~label:"S2" ~kind:Netsim.Graph.Server ~region:"r0" g in
  let h2 = Netsim.Graph.add_node ~label:"H2" ~kind:Netsim.Graph.Host ~region:"r0" g in
  Netsim.Graph.add_edge g h1 s1 1.;
  Netsim.Graph.add_edge g s1 s2 1.;
  Netsim.Graph.add_edge g s2 h2 1.;
  let engine = Dsim.Engine.create () in
  let counters = Dsim.Stats.Counter.create () in
  let pipeline_ref = ref None in
  let the_pipeline () = Option.get !pipeline_ref in
  let storage =
    Mail.Replica_group.create ~counters
      ~chain_of:(fun _ -> [ s2 ])
      ~is_up:(fun node -> Netsim.Net.is_up (Mail.Pipeline.net (the_pipeline ())) node)
      ()
  in
  Mail.Replica_group.add_holder storage ~node:s1 ~region:"r0";
  Mail.Replica_group.add_holder storage ~node:s2 ~region:"r0";
  let intern = Naming.Intern.create () in
  let callbacks =
    {
      Mail.Pipeline.region_servers = (fun r -> if r = "r0" then [ s1; s2 ] else []);
      uid_of = Naming.Intern.intern intern;
      name_of_uid = Naming.Intern.name intern;
      canonical_uid = Fun.id;
      authority_of_uid = (fun _ -> [ s2 ]);
      notify_target_uid = (fun _ -> None);
      submit_servers = (fun _ -> [ s1; s2 ]);
      cached_authority = (fun ~at:_ _ -> None);
      on_forward_resolved = (fun ~at:_ _ _ -> ());
      on_undeliverable = (fun _ ~reason:_ -> ());
      on_redirected = (fun _ ~old_name:_ -> ());
      on_ctrl = (fun _ ~time:_ ~src:_ () -> ());
    }
  in
  let pipeline =
    Mail.Pipeline.create ~engine ~graph:g ~trace:(Dsim.Trace.create ()) ~counters
      ~storage config callbacks
  in
  pipeline_ref := Some pipeline;
  (engine, pipeline, counters, (h1, s1, s2, h2))

let agent h1 =
  Mail.User_agent.create ~name:(nm "alice") ~host:h1 ~authority:[ 1; 2 ] ()

let test_no_submit_timer_storm () =
  (* Regression: [try_submit] used to arm BOTH the retry-deferral timer
     and the resubmission safety net on every invocation, so timers —
     and submit attempts — doubled every round during a long outage.
     With one outstanding submit timer per message, attempts stay
     linear in the outage length. *)
  let config =
    { Mail.Pipeline.default_pipeline_config with retry_timeout = 20.; resubmit_timeout = 50. }
  in
  let engine, pipeline, counters, (h1, s1, s2, _) = tiny_world ~config () in
  let net = Mail.Pipeline.net pipeline in
  Netsim.Net.set_down net s1;
  Netsim.Net.set_down net s2;
  let m = msg 1 in
  Mail.Pipeline.submit pipeline ~sender_agent:(agent h1) ~msg:m;
  ignore
    (Dsim.Engine.schedule_at engine 2000. (fun () ->
         Netsim.Net.set_up net s1;
         Netsim.Net.set_up net s2));
  Dsim.Engine.run engine;
  Alcotest.(check bool) "delivered after recovery" true (Mail.Message.is_deposited m);
  (* 2000 time units / 20 per deferral round, 2 servers tried per round:
     ~200 attempts when linear; thousands when timers multiply. *)
  let attempts = Dsim.Stats.Counter.get counters "submit_attempts" in
  Alcotest.(check bool)
    (Printf.sprintf "submit attempts linear in outage (%d)" attempts)
    true
    (attempts <= 2 * ((2000 / 20) + 3));
  let deferred = Dsim.Stats.Counter.get counters "submit_deferred" in
  Alcotest.(check bool)
    (Printf.sprintf "deferrals linear in outage (%d)" deferred)
    true
    (deferred <= (2000 / 20) + 3)

let test_no_false_retry_exhaustion () =
  (* Regression: [arm_retry] used to burn the retry budget while the
     HOLDER of a pending transfer was down, then declare "retries
     exhausted" even though pending state survives holder crashes and
     delivery would have succeeded on recovery. *)
  let config =
    { Mail.Pipeline.default_pipeline_config with retry_timeout = 20.; max_retries = 3 }
  in
  let engine, pipeline, counters, (h1, s1, s2, _) = tiny_world ~config () in
  let net = Mail.Pipeline.net pipeline in
  (* The deposit target is down at submit time, so S1 accepts the
     submission and becomes the pending holder retrying toward S2. *)
  Netsim.Net.set_down net s2;
  let m = msg 1 in
  Mail.Pipeline.submit pipeline ~sender_agent:(agent h1) ~msg:m;
  (* Crash the holder too, for far longer than max_retries x timeout. *)
  ignore (Dsim.Engine.schedule_at engine 5. (fun () -> Netsim.Net.set_down net s1));
  ignore
    (Dsim.Engine.schedule_at engine 600. (fun () ->
         Netsim.Net.set_up net s1;
         Netsim.Net.set_up net s2));
  Dsim.Engine.run engine;
  Alcotest.(check int) "never gave up" 0 (Dsim.Stats.Counter.get counters "gave_up");
  Alcotest.(check bool) "delivered after the long crash" true
    (Mail.Message.is_deposited m);
  Alcotest.(check bool) "not declared dead" false (Mail.Pipeline.is_dead pipeline 1);
  Alcotest.(check int) "no pendings left" 0 (Mail.Pipeline.pending_count pipeline)

(* --- user-agent PUS list and compaction ------------------------------ *)

let test_pus_fifo_order () =
  let ua =
    Mail.User_agent.create ~name:(nm "alice") ~host:0 ~authority:[ 10; 11; 12 ] ()
  in
  let down = Hashtbl.create 4 in
  List.iter (fun s -> Hashtbl.replace down s ()) [ 10; 11; 12 ];
  let view =
    {
      Mail.User_agent.is_alive = (fun s -> not (Hashtbl.mem down s));
      last_start = (fun _ -> 0.);
      fetch = (fun _ ~uid:_ _ ~at:_ -> []);
    }
  in
  ignore (Mail.User_agent.get_mail ua ~view ~now:10.);
  Alcotest.(check (list int)) "marked in poll order" [ 10; 11; 12 ]
    (Mail.User_agent.previously_unavailable ua);
  (* 11 recovers and is drained; the others stay in order. *)
  Hashtbl.remove down 11;
  ignore (Mail.User_agent.get_mail ua ~view ~now:20.);
  Alcotest.(check (list int)) "drained server removed, order kept" [ 10; 12 ]
    (Mail.User_agent.previously_unavailable ua)

let test_compaction_bounds_tables () =
  let sys = Mail.Syntax_system.create (Netsim.Topology.paper_fig1 ()) in
  let users = Array.of_list (Mail.Syntax_system.users sys) in
  for i = 0 to 19 do
    ignore
      (Mail.Syntax_system.submit_at sys
         ~at:(float_of_int i *. 5.)
         ~sender:users.(i mod 10)
         ~recipient:users.(10 + (i mod 10))
         ())
  done;
  Mail.Syntax_system.quiesce sys;
  Array.iter (fun u -> ignore (Mail.Syntax_system.check_mail sys u)) users;
  let verdict = Mail.Ledger.check (Mail.Syntax_system.ledger sys) in
  Alcotest.(check bool) "all delivered" true verdict.Mail.Ledger.ok;
  Alcotest.(check int) "delivered count" 20 verdict.Mail.Ledger.delivered;
  let dropped = Mail.Syntax_system.compact sys in
  Alcotest.(check bool)
    (Printf.sprintf "compaction dropped settled entries (%d)" dropped)
    true (dropped >= 20);
  Alcotest.(check int) "second pass finds nothing" 0 (Mail.Syntax_system.compact sys)

(* --- the invariant under a full campaign, all three designs ---------- *)

let hier_site seed =
  let rng = Dsim.Rng.create seed in
  let spec = { Netsim.Topology.default_hierarchy with regions = 3; hosts_per_region = 4 } in
  let g = Netsim.Topology.hierarchical ~rng spec in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }

let campaign_spec =
  {
    Mail.Scenario.default_spec with
    seed = 13;
    duration = 2500.;
    mail_count = 120;
    faults =
      Some
        (Netsim.Fault.parse
           "seed:9,crash:0.003/100,link:0.001,partition:r1@800+300,burst:0.3@1500+150");
  }

let check_campaign name run =
  let o = run campaign_spec in
  let v = o.Mail.Scenario.ledger in
  Alcotest.(check bool)
    (Printf.sprintf "%s: faults actually fired" name)
    true
    (Telemetry.Registry.get_gauge o.Mail.Scenario.metrics "fault_windows" > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "%s: server uptime dented" name)
    true
    (o.Mail.Scenario.server_uptime < 1.);
  Alcotest.(check bool)
    (Printf.sprintf "%s: replication keeps mailboxes more available than servers" name)
    true
    (o.Mail.Scenario.availability >= o.Mail.Scenario.server_uptime);
  Alcotest.(check int) (name ^ ": all submissions accounted") 120 v.Mail.Ledger.submitted;
  Alcotest.(check int) (name ^ ": nothing lost") 0 v.Mail.Ledger.lost;
  Alcotest.(check int) (name ^ ": nothing duplicated") 0 v.Mail.Ledger.duplicates;
  Alcotest.(check bool) (name ^ ": invariant holds") true v.Mail.Ledger.ok

let test_campaign_syntax () =
  check_campaign "syntax" (Mail.Scenario.run_syntax (hier_site 13))

let test_failover_keeps_invariant () =
  (* The tentpole regression: under the standard fault campaign a
     primary crash must actually be exercised — GetMail served by a
     lower-priority chain member ([replica_failovers] > 0) — and the
     delivery invariant must survive it with zero lost and zero
     duplicated, while replicated mailbox availability clears the 0.99
     target the raw server uptime misses. *)
  let config = { Mail.Syntax_system.default_config with replication = 4 } in
  let spec =
    {
      Mail.Scenario.default_spec with
      seed = 13;
      duration = 2500.;
      mail_count = 150;
      faults = Some Netsim.Fault.standard;
    }
  in
  let o = Mail.Scenario.run_syntax ~config (hier_site 13) spec in
  let failovers =
    Telemetry.Registry.get_counter o.Mail.Scenario.metrics "replica_failovers"
  in
  Alcotest.(check bool)
    (Printf.sprintf "a failover actually occurred (%d)" failovers)
    true (failovers > 0);
  Alcotest.(check int) "effective replication" 4 o.Mail.Scenario.replication_factor;
  Alcotest.(check bool)
    (Printf.sprintf "availability >= 0.99 (%.4f)" o.Mail.Scenario.availability)
    true
    (o.Mail.Scenario.availability >= 0.99);
  Alcotest.(check bool)
    (Printf.sprintf "servers were genuinely unreliable (%.4f)"
       o.Mail.Scenario.server_uptime)
    true
    (o.Mail.Scenario.server_uptime < 0.99);
  let v = o.Mail.Scenario.ledger in
  Alcotest.(check int) "zero lost across failover" 0 v.Mail.Ledger.lost;
  Alcotest.(check int) "zero duplicated across failover" 0 v.Mail.Ledger.duplicates;
  Alcotest.(check bool) "ledger ok" true v.Mail.Ledger.ok

let test_late_replicate_never_resurrects () =
  (* Regression: with a wide chain (replication 5, quorum 3) the
     coordinator can reach quorum while Replicates to the remaining
     chain members are still in flight.  The ledger then balances, the
     id compacts (retrieved set, agent seen set), and the late arrival
     used to store a *fresh* copy — served as a duplicate by the next
     failover fetch.  In-flight message fences now keep the id
     uncompactable until every scheduled arrival has passed.  This is
     the exact run that caught the bug (scale topology, seed 1,
     5000 messages, standard campaign). *)
  let site =
    let rng = Dsim.Rng.create 1 in
    Netsim.Topology.scale_site ~rng
      (Netsim.Topology.sized_hierarchy ~regions:6 ~hosts_per_region:8
         ~servers_per_region:3 ~degree:10. ())
  in
  let config = { Mail.Syntax_system.default_config with replication = 5 } in
  let spec =
    {
      Mail.Scenario.default_spec with
      seed = 1;
      duration = 5000.;
      mail_count = 5000;
      check_period = 250.;
      faults = Some Netsim.Fault.standard;
    }
  in
  let o = Mail.Scenario.run_syntax ~config site spec in
  let v = o.Mail.Scenario.ledger in
  Alcotest.(check int) "zero duplicates with a 5-wide chain" 0
    v.Mail.Ledger.duplicates;
  Alcotest.(check int) "zero lost" 0 v.Mail.Ledger.lost;
  Alcotest.(check bool) "ledger ok" true v.Mail.Ledger.ok

let test_pooled_reuse_never_aliases () =
  (* Flat-core regression: the pipeline now re-arms one pooled closure
     per retry/replication timer and the net reuses delivery slots, so
     a stale firing crediting the *wrong* message would surface in the
     ledger as a lost or duplicated copy.  Run a full standard fault
     campaign at replication 3 with lifecycle sampling on (both the
     traced and untraced submit paths exercised) and require the
     ledger to balance exactly: pooled reuse must not alias state. *)
  let config =
    { Mail.Syntax_system.default_config with replication = 3; span_sample = 4 }
  in
  let spec =
    {
      Mail.Scenario.default_spec with
      seed = 29;
      duration = 2500.;
      mail_count = 150;
      faults = Some Netsim.Fault.standard;
    }
  in
  let o = Mail.Scenario.run_syntax ~config (hier_site 29) spec in
  let v = o.Mail.Scenario.ledger in
  let retries = Telemetry.Registry.get_counter o.Mail.Scenario.metrics "retries" in
  let rounds =
    Telemetry.Registry.get_counter o.Mail.Scenario.metrics "replica_replicate_sends"
  in
  Alcotest.(check bool)
    (Printf.sprintf "pooled retry timers actually re-armed (%d)" retries)
    true (retries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "pooled replication rounds actually ran (%d)" rounds)
    true (rounds > 0);
  Alcotest.(check int) "all submissions accounted" 150 v.Mail.Ledger.submitted;
  Alcotest.(check int) "zero lost under pooled reuse" 0 v.Mail.Ledger.lost;
  Alcotest.(check int) "zero duplicated under pooled reuse" 0
    v.Mail.Ledger.duplicates;
  Alcotest.(check bool) "ledger ok" true v.Mail.Ledger.ok

let test_campaign_location () =
  check_campaign "location"
    (Mail.Scenario.run_location ~roam_probability:0.3 (hier_site 13))

let test_campaign_attribute () =
  check_campaign "attribute"
    (Mail.Scenario.run_attribute ~roam_probability:0.3 (hier_site 13))

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "parse round-trip" `Quick test_parse_roundtrip;
        Alcotest.test_case "compile deterministic" `Quick test_compile_deterministic;
        Alcotest.test_case "partition targets boundary" `Quick test_partition_targets_boundary;
        Alcotest.test_case "link cut reroutes" `Quick test_link_cut_reroutes;
        Alcotest.test_case "overlapping windows depth-counted" `Quick test_apply_depth_counting;
      ] );
    ( "ledger",
      [
        Alcotest.test_case "verdict classification" `Quick test_ledger_verdicts;
        Alcotest.test_case "spurious bounce is not a violation" `Quick
          test_ledger_spurious_bounce_ok;
      ] );
    ( "pipeline-guarantees",
      [
        Alcotest.test_case "no submit-timer storm" `Quick test_no_submit_timer_storm;
        Alcotest.test_case "no false retry exhaustion" `Quick
          test_no_false_retry_exhaustion;
        Alcotest.test_case "PUS list keeps FIFO order" `Quick test_pus_fifo_order;
        Alcotest.test_case "compaction bounds dedup tables" `Quick
          test_compaction_bounds_tables;
      ] );
    ( "fault-campaign",
      [
        Alcotest.test_case "syntax survives campaign" `Slow test_campaign_syntax;
        Alcotest.test_case "failover exercised, invariant intact" `Slow
          test_failover_keeps_invariant;
        Alcotest.test_case "late replicate never resurrects" `Slow
          test_late_replicate_never_resurrects;
        Alcotest.test_case "pooled reuse never aliases" `Slow
          test_pooled_reuse_never_aliases;
        Alcotest.test_case "location survives campaign" `Slow test_campaign_location;
        Alcotest.test_case "attribute survives campaign" `Slow test_campaign_attribute;
      ] );
  ]
