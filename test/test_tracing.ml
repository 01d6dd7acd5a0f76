(* Tests for per-message span tracing: the Tracer collector, trace
   reassembly, the critical-path analyzer, and the end-to-end
   propagation through all three mail-system designs. *)

module Span = Telemetry.Span
module Tracer = Telemetry.Tracer

(* --- collector ---------------------------------------------------------- *)

let test_span_lifecycle () =
  let tr = Tracer.create () in
  let s = Tracer.span tr ~name:"stage" ~start:1. () in
  Alcotest.(check bool) "open" false (Span.is_finished s);
  Alcotest.(check bool) "no duration yet" true (Span.duration s = None);
  Span.finish s ~at:3.;
  Span.finish s ~at:99.;
  Alcotest.(check (float 1e-9)) "first finish wins" 2.
    (Option.get (Span.duration s));
  Span.set_attr s "k" "v1";
  Span.set_attr s "k" "v2";
  Alcotest.(check (option string)) "attr overridden" (Some "v2") (Span.attr s "k");
  Alcotest.(check (option string)) "missing attr" None (Span.attr s "nope")

let test_tracer_capacity_bounds () =
  (* The ring keeps the newest [capacity] spans, drops oldest-first,
     and [total] keeps counting. *)
  let tr = Tracer.create ~capacity:3 () in
  for i = 1 to 5 do
    ignore (Tracer.span tr ~name:(Printf.sprintf "s%d" i) ~start:(float_of_int i) ())
  done;
  let retained = Tracer.spans tr in
  Alcotest.(check int) "retained" 3 (List.length retained);
  Alcotest.(check (list string)) "kept newest" [ "s3"; "s4"; "s5" ]
    (List.map (fun (s : Span.t) -> s.Span.name) retained);
  Alcotest.(check int) "total counts all" 5 (Tracer.total tr);
  Alcotest.(check int) "count sees retained only" 1 (Tracer.count ~name:"s4" tr);
  Alcotest.(check int) "dropped span invisible" 0 (Tracer.count ~name:"s1" tr);
  Tracer.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Tracer.spans tr));
  Alcotest.(check int) "total reset" 0 (Tracer.total tr)

let test_reassembly () =
  let tr = Tracer.create () in
  let root = Tracer.span tr ~name:"root" ~start:0. () in
  let a = Tracer.span tr ~parent:root ~name:"a" ~start:1. ~finish:2. () in
  let _a1 = Tracer.span tr ~parent:a ~name:"a1" ~start:1.5 ~finish:1.8 () in
  let _b = Tracer.span tr ~parent:root ~name:"b" ~start:3. ~finish:4. () in
  let other = Tracer.span tr ~name:"other-root" ~start:0. () in
  Alcotest.(check bool) "distinct traces" true
    (other.Span.trace_id <> root.Span.trace_id);
  Alcotest.(check int) "two traces" 2 (List.length (Tracer.trace_ids tr));
  let spans = Tracer.trace_spans tr root.Span.trace_id in
  Alcotest.(check int) "four spans in trace" 4 (List.length spans);
  Alcotest.(check bool) "single connected tree" true (Tracer.is_connected spans);
  (match Tracer.trees tr root.Span.trace_id with
  | [ t ] ->
      Alcotest.(check string) "root on top" "root" t.Tracer.span.Span.name;
      Alcotest.(check (list string)) "children ordered by start" [ "a"; "b" ]
        (List.map (fun c -> c.Tracer.span.Span.name) t.Tracer.children)
  | l -> Alcotest.failf "expected one tree, got %d" (List.length l));
  (* A span whose parent is not in the list becomes a root. *)
  let orphan = { a with Span.parent = Some 99999; span_id = 424242 } in
  Alcotest.(check bool) "orphan breaks connectivity" false
    (Tracer.is_connected (orphan :: spans))

let test_exports () =
  let tr = Tracer.create () in
  let root = Tracer.span tr ~name:"message" ~start:0. ~finish:10. () in
  ignore
    (Tracer.span tr ~parent:root ~name:"submit" ~start:0. ~finish:1.
       ~attrs:[ ("server", "S1") ] ());
  let lines = String.split_on_char '\n' (String.trim (Tracer.to_jsonl tr)) in
  Alcotest.(check int) "one line per span" 2 (List.length lines);
  List.iter
    (fun line ->
      match Telemetry.Json.of_string line with
      | Telemetry.Json.Obj fields ->
          Alcotest.(check bool) "has trace field" true
            (List.mem_assoc "trace" fields)
      | _ -> Alcotest.fail "span line is not an object")
    lines;
  match Tracer.to_chrome tr with
  | Telemetry.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Telemetry.Json.List events ->
          Alcotest.(check int) "one event per span" 2 (List.length events);
          List.iter
            (fun ev ->
              Alcotest.(check (option string)) "complete event"
                (Some "X")
                (match Telemetry.Json.member "ph" ev with
                | Some (Telemetry.Json.String s) -> Some s
                | _ -> None))
            events
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "chrome export is not an object"

(* --- critical path ------------------------------------------------------ *)

let test_critical_path_synthetic () =
  let tr = Tracer.create () in
  let mk total_wait =
    let root = Tracer.span tr ~name:"message" ~start:0. ~finish:(10. +. total_wait) () in
    ignore (Tracer.span tr ~parent:root ~name:"submit" ~start:0. ~finish:10. ());
    (* two queue waits per trace: the analyzer sums same-name spans *)
    ignore
      (Tracer.span tr ~parent:root ~name:"queue_wait" ~start:10.
         ~finish:(10. +. (total_wait /. 2.)) ());
    ignore
      (Tracer.span tr ~parent:root ~name:"queue_wait" ~start:12.
         ~finish:(12. +. (total_wait /. 2.)) ())
  in
  mk 2.;
  mk 4.;
  mk 6.;
  (* an unfinished root counts as a trace but not a complete one *)
  ignore (Tracer.span tr ~name:"message" ~start:0. ());
  (* a foreign trace family is not selected *)
  ignore (Tracer.span tr ~name:"getmail.check" ~start:0. ~finish:1. ());
  let r = Telemetry.Critical_path.analyze tr in
  Alcotest.(check string) "root name" "message" r.Telemetry.Critical_path.root;
  Alcotest.(check int) "traces" 4 r.Telemetry.Critical_path.traces;
  Alcotest.(check int) "complete" 3 r.Telemetry.Critical_path.complete;
  let stage name =
    List.find
      (fun s -> String.equal s.Telemetry.Critical_path.stage name)
      r.Telemetry.Critical_path.stages
  in
  let qw = stage "queue_wait" in
  Alcotest.(check int) "queue_wait traces" 3 qw.Telemetry.Critical_path.traces;
  Alcotest.(check int) "queue_wait spans" 6 qw.Telemetry.Critical_path.spans;
  Alcotest.(check (float 1e-9)) "queue_wait mean of per-trace sums" 4.
    qw.Telemetry.Critical_path.mean;
  Alcotest.(check (float 1e-9)) "queue_wait p50" 4. qw.Telemetry.Critical_path.p50;
  Alcotest.(check (float 1e-9)) "queue_wait max" 6. qw.Telemetry.Critical_path.max;
  let total = stage "total" in
  Alcotest.(check (float 1e-9)) "total p50" 14. total.Telemetry.Critical_path.p50;
  Alcotest.(check (float 1e-9)) "total p90 interpolates" 15.6
    total.Telemetry.Critical_path.p90;
  (* JSON export keeps the stage list *)
  match Telemetry.Critical_path.to_json r with
  | Telemetry.Json.Obj fields -> (
      match List.assoc "stages" fields with
      | Telemetry.Json.List l ->
          Alcotest.(check int) "stages exported"
            (List.length r.Telemetry.Critical_path.stages)
            (List.length l)
      | _ -> Alcotest.fail "stages is not a list")
  | _ -> Alcotest.fail "report is not an object"

(* --- end-to-end through the designs ------------------------------------- *)

let small_spec =
  {
    Mail.Scenario.default_spec with
    duration = 2000.;
    mail_count = 120;
    check_period = 80.;
  }

let hier_site seed =
  let rng = Dsim.Rng.create seed in
  let g = Netsim.Topology.hierarchical ~rng Netsim.Topology.default_hierarchy in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }

let message_traces tracer =
  List.filter
    (fun (_, spans) ->
      List.exists
        (fun (s : Span.t) -> s.Span.parent = None && s.Span.name = "message")
        spans)
    (Tracer.traces tracer)

let stage_names spans =
  List.sort_uniq String.compare (List.map (fun (s : Span.t) -> s.Span.name) spans)

let check_message_traces ~label (o : Mail.Scenario.outcome) =
  let traces = message_traces o.Mail.Scenario.tracer in
  Alcotest.(check bool) (label ^ ": non-empty trace") true (traces <> []);
  (* Every reassembled message trace is one connected span tree
     covering the full lifecycle: submit → queue-wait → deposit →
     retrieval poll (plus the mailbox dwell). *)
  let full =
    List.filter
      (fun (_, spans) ->
        Tracer.is_connected spans
        && List.for_all
             (fun stage -> List.mem stage (stage_names spans))
             [ "submit"; "queue_wait"; "deposit"; "getmail.poll"; "mailbox.wait" ])
      traces
  in
  Alcotest.(check bool) (label ^ ": >=1 full connected lifecycle tree") true
    (full <> []);
  List.iter
    (fun (_, spans) ->
      Alcotest.(check bool) (label ^ ": trace connected") true
        (Tracer.is_connected spans))
    traces

let test_syntax_end_to_end () =
  let config =
    { Mail.Syntax_system.default_config with service_rate = Some 1.0 }
  in
  let o = Mail.Scenario.run_syntax ~config (Netsim.Topology.paper_fig1 ()) small_spec in
  check_message_traces ~label:"syntax" o;
  (* every injected message opened a trace, and all were retrieved *)
  Alcotest.(check int) "one message trace per submission" 120
    (List.length (message_traces o.Mail.Scenario.tracer));
  List.iter
    (fun (_, spans) ->
      let root =
        List.find (fun (s : Span.t) -> s.Span.parent = None) spans
      in
      Alcotest.(check bool) "message trace complete" true (Span.is_finished root))
    (message_traces o.Mail.Scenario.tracer);
  (* under the service model, queue waits reconstructed from spans
     agree with the pipeline's summary statistics *)
  let r = Telemetry.Critical_path.analyze o.Mail.Scenario.tracer in
  let qw =
    List.find
      (fun s -> s.Telemetry.Critical_path.stage = "queue_wait")
      r.Telemetry.Critical_path.stages
  in
  Alcotest.(check bool) "queue_wait observed" true
    (qw.Telemetry.Critical_path.spans > 0);
  let gauge name = Telemetry.Registry.get_gauge o.Mail.Scenario.metrics name in
  Alcotest.(check (float 1e-9)) "trace_spans gauge matches tracer"
    (float_of_int (Tracer.total o.Mail.Scenario.tracer))
    (gauge "trace_spans")

let test_all_designs_trace () =
  let syn = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) small_spec in
  check_message_traces ~label:"syntax" syn;
  let loc = Mail.Scenario.run_location ~roam_probability:0.2 (hier_site 11) small_spec in
  check_message_traces ~label:"location" loc;
  let att = Mail.Scenario.run_attribute ~roam_probability:0.1 (hier_site 11) small_spec in
  check_message_traces ~label:"attribute" att

let test_getmail_one_poll_per_check () =
  (* §3.1.2c: under no failures the retrieval traces must show ~1 poll
     per check — the claim behind [final_polls_per_check], asserted
     here from the reassembled spans instead of the counters. *)
  let o = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) small_spec in
  let checks = ref 0 and polls = ref 0 in
  List.iter
    (fun (_, spans) ->
      match
        List.find_opt
          (fun (s : Span.t) -> s.Span.parent = None && s.Span.name = "getmail.check")
          spans
      with
      | None -> ()
      | Some root ->
          incr checks;
          Alcotest.(check bool) "check span finished" true (Span.is_finished root);
          let in_trace =
            List.filter (fun (s : Span.t) -> s.Span.name = "getmail.poll") spans
          in
          polls := !polls + List.length in_trace;
          (* the root's attributes summarise its own children *)
          Alcotest.(check (option string)) "polls attr matches children"
            (Some (string_of_int (List.length in_trace)))
            (Span.attr root "polls");
          Alcotest.(check (option string)) "no failed polls" (Some "0")
            (Span.attr root "failed_polls"))
    (Tracer.traces o.Mail.Scenario.tracer);
  Alcotest.(check bool) "checks traced" true (!checks > 0);
  (* trace-derived ratio equals the counter-derived one... *)
  Alcotest.(check int) "poll spans = polls counter"
    (Telemetry.Registry.get_counter o.Mail.Scenario.metrics "polls")
    !polls;
  Alcotest.(check int) "check traces = checks counter"
    (Telemetry.Registry.get_counter o.Mail.Scenario.metrics "checks")
    !checks;
  let per_check = float_of_int !polls /. float_of_int !checks in
  Alcotest.(check (float 1e-9)) "agrees with final_polls_per_check"
    o.Mail.Scenario.final_polls_per_check per_check;
  (* ...and shows the paper's headline number. *)
  Alcotest.(check bool) "~1 poll per check" true
    (per_check >= 1.0 && per_check < 1.15)

(* --- head sampling -------------------------------------------------------- *)

let test_sampled_rule () =
  List.iter
    (fun sample ->
      let tr = Tracer.create ~sample () in
      for key = -3 to 20 do
        Alcotest.(check bool)
          (Printf.sprintf "sample %d keeps every key (%d)" sample key)
          true (Tracer.sampled tr key)
      done)
    [ -1; 0; 1 ];
  let tr = Tracer.create ~sample:4 () in
  for key = -3 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "sample 4, key %d" key)
      (key mod 4 = 0) (Tracer.sampled tr key)
  done;
  Alcotest.(check bool) "default keeps everything" true
    (Tracer.sampled (Tracer.create ()) 7)

let roots name spans =
  List.filter (fun (s : Span.t) -> s.Span.parent = None && s.Span.name = name) spans

(* One faulted design-1 run at [span_sample = 4], shared by the sampled
   round, message-completion and fault-ordering tests.  It is
   [Scenario.run_syntax]'s body, keeping the system so that the tests
   can look agents' uids up. *)
let sampled_run =
  lazy
    (let config = { Mail.Syntax_system.default_config with span_sample = 4 } in
     let spec =
       {
         small_spec with
         seed = 5;
         mail_count = 200;
         faults = Some Netsim.Fault.standard;
       }
     in
     let site = hier_site 5 in
     let sys = Mail.Syntax_system.create ~config site in
     let o = Mail.Scenario.drive (module Mail.System.Syntax) sys spec in
     (sys, o))

let test_sampled_check_rounds () =
  let sys, o = Lazy.force sampled_run in
  let spans = Tracer.spans o.Mail.Scenario.tracer in
  Alcotest.(check bool) "some rounds traced" true (roots "getmail.check" spans <> []);
  List.iter
    (fun name ->
      List.iter
        (fun (s : Span.t) ->
          let user = Naming.Name.of_string_exn (Option.get (Span.attr s "user")) in
          let uid = Mail.User_agent.uid (Mail.Syntax_system.agent sys user) in
          Alcotest.(check int) (name ^ " of a sampled uid") 0 (uid mod 4))
        (roots name spans))
    [ "getmail.check"; "getmail.failover" ]

let test_sampled_messages_complete () =
  (* A sampled message's trace is finished by whichever round fetches
     it; before the sampling rule moved into the tracer, a recipient
     whose rounds were unsampled left it open. *)
  let sys, o = Lazy.force sampled_run in
  let tracer = o.Mail.Scenario.tracer in
  Alcotest.(check int) "ring held the whole run" 0 (Tracer.dropped tracer);
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (_, spans) ->
      match roots "message" spans with
      | [ root ] -> Hashtbl.replace by_id (Option.get (Span.attr root "id")) (root, spans)
      | _ -> ())
    (Tracer.traces tracer);
  let unsampled_recipients = ref 0 and checked = ref 0 in
  List.iter
    (fun (m : Mail.Message.t) ->
      if m.Mail.Message.id mod 4 = 0 && Mail.Message.is_retrieved m then begin
        incr checked;
        match Hashtbl.find_opt by_id (string_of_int m.Mail.Message.id) with
        | None -> Alcotest.failf "message %d has no trace" m.Mail.Message.id
        | Some (root, spans) ->
            Alcotest.(check bool)
              (Printf.sprintf "message %d root finished" m.Mail.Message.id)
              true (Span.is_finished root);
            Alcotest.(check bool)
              (Printf.sprintf "message %d has mailbox.wait" m.Mail.Message.id)
              true
              (List.exists (fun (s : Span.t) -> s.Span.name = "mailbox.wait") spans);
            let r = Mail.Syntax_system.agent sys m.Mail.Message.recipient in
            if Mail.User_agent.uid r mod 4 <> 0 then incr unsampled_recipients
      end)
    (Mail.Syntax_system.submitted sys);
  Alcotest.(check bool) "sampled messages retrieved" true (!checked > 0);
  Alcotest.(check bool) "some recipient's rounds unsampled" true
    (!unsampled_recipients > 0)

let test_fault_spans_first () =
  let _, o = Lazy.force sampled_run in
  let spans = Tracer.spans o.Mail.Scenario.tracer in
  let ids name =
    List.filter_map
      (fun (s : Span.t) -> if s.Span.name = name then Some s.Span.span_id else None)
      spans
  in
  let faults = ids "fault" and messages = ids "message" in
  Alcotest.(check bool) "fault windows traced" true (faults <> []);
  Alcotest.(check bool) "messages traced" true (messages <> []);
  Alcotest.(check bool) "every fault span precedes every message span" true
    (List.fold_left max min_int faults < List.fold_left min max_int messages)

let test_unsampled_checks_match_counter () =
  (* With [span_sample = 1] every round is traced, faults or not. *)
  let spec = { small_spec with seed = 5; faults = Some Netsim.Fault.standard } in
  let o = Mail.Scenario.run_syntax (hier_site 5) spec in
  Alcotest.(check int) "ring held the whole run" 0
    (Tracer.dropped o.Mail.Scenario.tracer);
  Alcotest.(check int) "check roots = checks counter"
    (Telemetry.Registry.get_counter o.Mail.Scenario.metrics "checks")
    (List.length (roots "getmail.check" (Tracer.spans o.Mail.Scenario.tracer)))

let suite =
  [
    ( "tracing",
      [
        Alcotest.test_case "span lifecycle" `Quick test_span_lifecycle;
        Alcotest.test_case "tracer ring-buffer bounds" `Quick
          test_tracer_capacity_bounds;
        Alcotest.test_case "trace reassembly" `Quick test_reassembly;
        Alcotest.test_case "JSONL and Chrome exports" `Quick test_exports;
        Alcotest.test_case "critical-path analyzer" `Quick
          test_critical_path_synthetic;
        Alcotest.test_case "syntax end-to-end trace" `Slow test_syntax_end_to_end;
        Alcotest.test_case "all designs produce lifecycle traces" `Slow
          test_all_designs_trace;
        Alcotest.test_case "3.1.2c: one poll span per check" `Slow
          test_getmail_one_poll_per_check;
        Alcotest.test_case "Tracer.sampled rule" `Quick test_sampled_rule;
        Alcotest.test_case "sampled rounds belong to sampled uids" `Slow
          test_sampled_check_rounds;
        Alcotest.test_case "sampled messages complete whoever fetches" `Slow
          test_sampled_messages_complete;
        Alcotest.test_case "fault windows traced before the run" `Slow
          test_fault_spans_first;
        Alcotest.test_case "span_sample 1: check roots = checks" `Slow
          test_unsampled_checks_match_counter;
      ] );
  ]
