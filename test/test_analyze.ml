(* Tests for the static gate (bin/analyze) over the compiled fixture
   corpus in [analyze_fixtures/] and its [lib/] sub-library: building
   those libraries is what produces the .cmt files fed to
   Analyze_core, so every rule is exercised on real typed ASTs.  Docs
   and baselines are injected through [~read_source], never read from
   disk; fixture sources are read from the build tree, so their allow
   comments apply. *)

let objs = Filename.concat "analyze_fixtures" ".analyze_fixtures.objs/byte"
let lib_objs = Filename.concat "analyze_fixtures/lib" ".analyze_fixtures_lib.objs/byte"
let cmt name = Filename.concat objs ("analyze_fixtures__Fix_" ^ name ^ ".cmt")
let lib_cmt name = Filename.concat lib_objs ("analyze_fixtures_lib__Fix_" ^ name ^ ".cmt")
let fixmod name = "Analyze_fixtures.Fix_" ^ name

(* Fixture sources as the .cmt files record them: relative to the
   workspace root, one level above the test's working directory. *)
let src name = "test/analyze_fixtures/fix_" ^ name ^ ".ml"
let lib_src name = "test/analyze_fixtures/lib/fix_" ^ name ^ ".ml"

(* A markdown table in the shape the analyzer parses from
   docs/METRICS.md and docs/TRACING.md. *)
let table names =
  "| name | axis | meaning |\n|---|---|---|\n"
  ^ String.concat ""
      (List.map (fun n -> Printf.sprintf "| `%s` | — | fixture |\n" n) names)

let run_units ?(hot = []) ?(baseline = "") ?(metrics = []) ?(spans = [])
    ?(sources = []) units =
  let read_source f =
    if String.equal f Analyze_core.baseline_file then
      if baseline <> "" then Some baseline else None
    else if String.equal f Analyze_core.metrics_doc then Some (table metrics)
    else if String.equal f Analyze_core.tracing_doc then Some (table spans)
    else Analyze_core.read_source_from_disk (Filename.concat ".." f)
  in
  Analyze_core.analyze_tree ~hot_set:hot ~read_source ~sources units

let run ?hot ?baseline ?metrics ?spans ?sources cmts =
  run_units ?hot ?baseline ?metrics ?spans ?sources (Analyze_core.load_units cmts)

let findings analysis =
  List.map
    (fun v -> (v.Analyze_core.line, v.Analyze_core.rule))
    analysis.Analyze_core.an_findings

let messages analysis =
  List.map (fun v -> v.Analyze_core.message) analysis.Analyze_core.an_findings

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let check_rules msg expected analysis =
  Alcotest.(check (list (pair int string))) msg expected (findings analysis)

(* --- A1: hot-path allocation counting and the ratchet ------------------- *)

let hot_fixture = [ (fixmod "hot", [ "churn"; "calm" ]) ]

let baseline_json entries =
  Telemetry.Json.to_string (Analyze_core.baseline_to_json entries)

let churn = fixmod "hot" ^ ".churn"
let calm = fixmod "hot" ^ ".calm"

let test_a1_counts () =
  let analysis =
    run ~hot:hot_fixture
      ~baseline:(baseline_json [ (churn, 3); (calm, 0) ])
      [ cmt "hot" ]
  in
  check_rules "counts match the baseline: clean" [] analysis;
  let hot_fns =
    List.concat_map (fun f -> f.Analyze_core.f_hot) analysis.Analyze_core.an_facts
  in
  let sites name =
    match
      List.find_opt (fun h -> String.equal h.Analyze_core.hf_name name) hot_fns
    with
    | Some h ->
        List.map (fun s -> s.Analyze_core.al_kind) h.Analyze_core.hf_sites
        |> List.sort String.compare
    | None -> Alcotest.failf "hot function %s not reported" name
  in
  Alcotest.(check (list string))
    "churn: List.map call + closure + tuple"
    [ "alloc-call"; "closure"; "tuple" ]
    (sites churn);
  Alcotest.(check (list string)) "calm: allocation-free" [] (sites calm)

let test_a1_ratchet_red () =
  let analysis =
    run ~hot:hot_fixture
      ~baseline:(baseline_json [ (churn, 2); (calm, 0) ])
      [ cmt "hot" ]
  in
  check_rules "count above baseline fails"
    [ (6, "hot-path-alloc") ]
    analysis;
  Alcotest.(check bool)
    "message states count and baseline" true
    (contains (List.hd (messages analysis)) "3 allocation site(s), baseline is 2")

let test_a1_missing_entry () =
  let analysis =
    run ~hot:hot_fixture ~baseline:(baseline_json [ (calm, 0) ]) [ cmt "hot" ]
  in
  check_rules "function without a baseline entry fails"
    [ (6, "hot-path-alloc") ]
    analysis;
  Alcotest.(check bool)
    "message asks for a baseline" true
    (contains (List.hd (messages analysis)) "no baseline entry")

let test_a1_stale_entry () =
  let analysis =
    run ~hot:hot_fixture
      ~baseline:
        (baseline_json [ (churn, 3); (calm, 0); (fixmod "hot" ^ ".gone", 1) ])
      [ cmt "hot" ]
  in
  check_rules "baseline entry without a function fails"
    [ (1, "hot-path-alloc") ]
    analysis;
  Alcotest.(check bool)
    "message points at the stale entry" true
    (contains (List.hd (messages analysis)) "matches no function")

let test_a1_improvement () =
  let analysis =
    run ~hot:hot_fixture
      ~baseline:(baseline_json [ (churn, 5); (calm, 0) ])
      [ cmt "hot" ]
  in
  check_rules "dropping below baseline is not a failure" [] analysis;
  Alcotest.(check (list (triple string int int)))
    "the improvement is reported for re-ratcheting"
    [ (churn, 3, 5) ]
    analysis.Analyze_core.an_improvements

let test_a1_declared_missing () =
  let analysis =
    run
      ~hot:[ (fixmod "hot", [ "churn"; "calm"; "ghost" ]) ]
      ~baseline:(baseline_json [ (churn, 3); (calm, 0) ])
      [ cmt "hot" ]
  in
  check_rules "declared hot function absent from the module fails"
    [ (1, "hot-path-alloc") ]
    analysis;
  Alcotest.(check bool)
    "message names the missing declaration" true
    (contains (List.hd (messages analysis)) "ghost not found")

(* --- A2: metric-name consistency ----------------------------------------- *)

let test_a2_bad () =
  let analysis =
    run ~metrics:[ "ghost_metric" ] [ cmt "metric_bad" ]
  in
  (* one emitted-but-undocumented (through the local helper sink), one
     documented-but-unemitted, one dangling monitor rule *)
  check_rules "all three drift directions are found"
    [ (3, "metric-name"); (9, "metric-name"); (11, "metric-name") ]
    analysis;
  let msgs = String.concat "\n" (messages analysis) in
  Alcotest.(check bool) "undocumented emission" true
    (contains msgs "\"undocumented_metric\" is emitted but undocumented");
  Alcotest.(check bool) "stale catalogue entry" true
    (contains msgs "\"ghost_metric\" has no emitter");
  Alcotest.(check bool) "dangling monitor rule" true
    (contains msgs "references metric \"missing_metric\"")

let test_a2_ok () =
  check_rules "helper-sink and promoted-list emissions match the catalogue" []
    (run
       ~metrics:[ "documented_metric"; "batch_metric_a"; "batch_metric_b" ]
       [ cmt "metric_ok" ])

(* --- A3: span/stage drift ------------------------------------------------ *)

let test_a3_bad () =
  let analysis = run ~spans:[ "documented.span" ] [ cmt "span_bad" ] in
  (* the stale stage table entry (line 3 of the injected doc), the
     undocumented creation and the unpaired open span *)
  check_rules "undocumented, stale and leaking spans are all found"
    [ (3, "span-drift"); (8, "span-drift"); (8, "span-drift") ]
    analysis;
  let msgs = String.concat "\n" (messages analysis) in
  Alcotest.(check bool) "undocumented span" true
    (contains msgs "\"rogue.span\" is created here but missing");
  Alcotest.(check bool) "stale stage entry" true
    (contains msgs "\"documented.span\" is never created");
  Alcotest.(check bool) "unpaired open span" true
    (contains msgs "never calls Span.finish")

let test_a3_ok () =
  (* closed.span directly, helper.span through the sink, latent.span by
     literal evidence only *)
  check_rules "closed, sink-emitted and literal-evidenced spans pass" []
    (run
       ~spans:[ "closed.span"; "helper.span"; "latent.span" ]
       [ cmt "span_ok" ])

(* --- A4: typed polymorphic comparison ------------------------------------ *)

let test_a4_bad () =
  let analysis = run [ cmt "poly_bad" ] in
  check_rules
    "function, tyvar, lazy and abstract comparisons are all flagged"
    [ (5, "poly-compare"); (7, "poly-compare"); (9, "poly-compare");
      (11, "poly-compare") ]
    analysis;
  let msgs = String.concat "\n" (messages analysis) in
  Alcotest.(check bool) "abstract type named in the finding" true
    (contains msgs "Fix_abstract.t is abstract")

let test_a4_ok () =
  check_rules
    "ground types, containers, records and variants are not flagged" []
    (run [ cmt "poly_ok" ])

(* --- shared suppression machinery ---------------------------------------- *)

let test_suppression_filter () =
  let read_source _ =
    Some "let x = 1 (* lint: allow metric-name — covered by fixture *)\n"
  in
  let viol rule = { Analyze_core.file = "x.ml"; line = 1; rule; message = "m" } in
  let kept =
    Analyze_core.filter_suppressed ~read_source
      [ viol "metric-name"; viol "span-drift" ]
  in
  Alcotest.(check (list string))
    "only the matching rule is suppressed" [ "span-drift" ]
    (List.map (fun v -> v.Analyze_core.rule) kept)

(* --- one typed tree per source file --------------------------------------- *)

let test_one_unit_per_source () =
  (* Dune can leave a byte and a native .cmt of one unit side by side;
     both copies must collapse to one unit with one set of findings. *)
  let original = cmt "fold_bad" in
  let copy = Filename.temp_file "fix_fold_bad" ".cmt" in
  let body = In_channel.with_open_bin original In_channel.input_all in
  Out_channel.with_open_bin copy (fun oc -> Out_channel.output_string oc body);
  let units = Analyze_core.load_units [ original; copy ] in
  Sys.remove copy;
  Alcotest.(check (list string))
    "one unit, keyed by its source" [ src "fold_bad" ]
    (List.map (fun u -> u.Analyze_core.u_file) units);
  check_rules "one set of findings" [ (4, "unsorted-fold") ] (run_units units)

(* --- report and baseline serialisation ----------------------------------- *)

let test_report_schema () =
  let analysis =
    run ~hot:hot_fixture
      ~baseline:(baseline_json [ (churn, 3); (calm, 0) ])
      [ cmt "hot" ]
  in
  let json =
    Analyze_core.report_to_json ~baseline:analysis.Analyze_core.an_baseline
      ~findings:analysis.Analyze_core.an_findings
      ~facts_list:analysis.Analyze_core.an_facts
  in
  (match Telemetry.Json.member "schema" json with
  | Some (Telemetry.Json.String s) ->
      Alcotest.(check string) "schema tag" "mailsys.analysis/1" s
  | _ -> Alcotest.fail "ANALYSIS.json has no schema tag");
  match Telemetry.Json.member "hot" json with
  | Some (Telemetry.Json.List hot) ->
      Alcotest.(check int) "one entry per hot function" 2 (List.length hot)
  | _ -> Alcotest.fail "ANALYSIS.json has no hot section"

let test_baseline_roundtrip () =
  let entries = [ (calm, 0); (churn, 3) ] in
  let json = Telemetry.Json.of_string (baseline_json entries) in
  (match Telemetry.Json.member "schema" json with
  | Some (Telemetry.Json.String s) ->
      Alcotest.(check string) "baseline schema tag" "mailsys.analysis-baseline/1" s
  | _ -> Alcotest.fail "baseline has no schema tag");
  Alcotest.(check (list (pair string int)))
    "entries survive the roundtrip, sorted" entries
    (Analyze_core.baseline_of_json json)

(* --- doc-table parsing ---------------------------------------------------- *)

let test_doc_parsing () =
  let md =
    "# t\n\
     | name | axis |\n\
     |---|---|\n\
     | `plain_metric` | x |\n\
     | `labelled{rule=\"r\"}` | x |\n\
     | not_backticked | x |\n\
     Also **`bold_metric{event=\"e\"}`** in prose.\n"
  in
  Alcotest.(check (list (pair string int)))
    "first-cell backticks and bold entries, labels stripped"
    [ ("plain_metric", 4); ("labelled", 5); ("bold_metric", 7) ]
    (Analyze_core.doc_metric_names md);
  Alcotest.(check (list (pair string int)))
    "span names keep dotted shape"
    [ ("forward.hop", 2) ]
    (Analyze_core.doc_span_names "\n| `forward.hop` | x |\n")

(* --- R1–R5: the determinism rules ------------------------------------------ *)

(* Findings of one fixture unit, with its source as the only file the
   gate reads besides the typed tree. *)
let lint ?(lib = false) name =
  if lib then run ~sources:[ lib_src name ] [ lib_cmt name ]
  else run ~sources:[ src name ] [ cmt name ]

let test_unsorted_fold () =
  check_rules "fold consing without a sort is flagged"
    [ (4, "unsorted-fold") ]
    (lint "fold_bad")

let test_sorted_fold_ok () =
  check_rules "sorted escape and pure aggregation pass" [] (lint "fold_ok")

let test_cross_unit_fold () =
  (* Fix_table is a Hashtbl.Make instance exported from its own unit;
     the gate learns that from Fix_table's typed tree, so it is
     analysed alongside the unit that folds over it. *)
  let table = [ cmt "table" ] and table_src = [ src "table" ] in
  check_rules "a consing fold over another unit's instance is flagged"
    [ (4, "unsorted-fold") ]
    (run ~sources:(table_src @ [ src "table_bad" ]) (table @ [ cmt "table_bad" ]));
  check_rules "sorted escape and pure aggregation pass" []
    (run ~sources:(table_src @ [ src "table_ok" ]) (table @ [ cmt "table_ok" ]))

let test_poly_compare () =
  check_rules "Hashtbl.hash flagged, compare at int left alone"
    [ (7, "poly-compare") ]
    (lint "hash_bad")

let test_typed_compare_ok () =
  check_rules "typed comparators and a module-local compare pass" []
    (lint "typed_compare_ok")

let test_wall_clock () =
  check_rules "Sys.time, Unix.gettimeofday and global Random are flagged"
    [ (3, "wall-clock"); (5, "wall-clock"); (7, "wall-clock") ]
    (lint "clock_bad")

let test_suppression_ok () =
  check_rules "audited allow comments (preceding or same line) suppress" []
    (lint "allow_ok")

let test_multiline_allow () =
  check_rules "allow annotations inside multi-line comment blocks suppress" []
    (lint "allow_multiline_ok")

let test_bad_suppression () =
  (* A reason-less allow does not suppress (the finding survives) and is
     itself reported; so is an unknown rule name. *)
  check_rules "reason-less and unknown-rule allows are reported"
    [ (4, "bad-suppression"); (5, "wall-clock"); (7, "bad-suppression") ]
    (lint "allow_bad")

let test_bad_suppression_alone () =
  check_rules "a reason-less allow is reported where nothing else is"
    [ (4, "bad-suppression") ]
    (lint "bare_allow")

let test_unused_suppression () =
  (* The first allow covers nothing; the second tries to silence the
     meta-finding and is itself malformed; the third is used. *)
  check_rules "an allow that silences nothing is reported"
    [ (4, "unused-suppression"); (7, "bad-suppression") ]
    (lint "allow_unused")

let test_stdout_in_lib () =
  check_rules "print/printf/exit under a lib/ path are flagged"
    [ (4, "stdout"); (6, "stdout"); (8, "stdout") ]
    (lint ~lib:true "stdout")

let test_stdout_outside_lib_ok () =
  (* The same typed tree recorded under a path outside lib/ is clean:
     executables may print. *)
  let units =
    Analyze_core.load_units [ lib_cmt "stdout" ]
    |> List.map (fun u -> { u with Analyze_core.u_file = "bin/fix_stdout.ml" })
  in
  check_rules "no stdout findings outside lib/" [] (run_units units)

let test_resolved_paths () =
  (* None of these is visible to a pass that matches source syntax. *)
  check_rules "open, module alias and functor instance resolve"
    [ (7, "wall-clock"); (11, "unsorted-fold"); (15, "unsorted-fold") ]
    (lint "resolved");
  check_rules "Stdlib.-qualified print in lib/ is flagged"
    [ (5, "stdout") ]
    (lint ~lib:true "resolved_stdout")

(* Every fixture source under [dir], as the gate's source walk finds
   it, with the workspace-relative prefix the .cmt files record. *)
let fixture_sources dir =
  Analyze_core.collect_sources dir [] |> List.map (fun p -> "test/" ^ p)

let test_missing_mli () =
  let analysis =
    run
      ~sources:(fixture_sources "analyze_fixtures/lib")
      (List.map lib_cmt
         [ "stdout"; "no_interface"; "with_interface"; "resolved_stdout" ])
  in
  (* Only the module without an interface and without a file-level
     allow is reported. *)
  Alcotest.(check (list string))
    "exactly the uninterfaced module" [ lib_src "no_interface" ]
    (List.filter_map
       (fun v ->
         if String.equal v.Analyze_core.rule "missing-mli" then
           Some v.Analyze_core.file
         else None)
       analysis.Analyze_core.an_findings)

let test_whole_corpus () =
  (* The whole corpus at once: every per-unit and per-file finding is
     there, in canonical order. *)
  let vs =
    (run
       ~sources:(fixture_sources "analyze_fixtures")
       (Analyze_core.collect_cmts "analyze_fixtures" [] |> List.sort String.compare))
      .Analyze_core.an_findings
  in
  let count rule =
    List.length (List.filter (fun v -> String.equal v.Analyze_core.rule rule) vs)
  in
  Alcotest.(check int) "unsorted-fold count" 4 (count "unsorted-fold");
  Alcotest.(check int) "poly-compare count (R2 + A4)" 5 (count "poly-compare");
  Alcotest.(check int) "wall-clock count" 5 (count "wall-clock");
  Alcotest.(check int) "stdout count" 4 (count "stdout");
  Alcotest.(check int) "missing-mli count" 1 (count "missing-mli");
  Alcotest.(check int) "bad-suppression count" 4 (count "bad-suppression");
  Alcotest.(check int) "unused-suppression count" 1 (count "unused-suppression");
  let sorted = List.sort Analyze_core.compare_violation vs in
  Alcotest.(check bool) "output is canonically sorted" true (vs = sorted)

let suite =
  [
    ( "analyze",
      [
        Alcotest.test_case "A1: allocation sites counted" `Quick test_a1_counts;
        Alcotest.test_case "A1: ratchet fails above baseline" `Quick
          test_a1_ratchet_red;
        Alcotest.test_case "A1: missing baseline entry fails" `Quick
          test_a1_missing_entry;
        Alcotest.test_case "A1: stale baseline entry fails" `Quick
          test_a1_stale_entry;
        Alcotest.test_case "A1: improvement reported, not failed" `Quick
          test_a1_improvement;
        Alcotest.test_case "A1: declared hot function must exist" `Quick
          test_a1_declared_missing;
        Alcotest.test_case "A2: drift in all three directions" `Quick
          test_a2_bad;
        Alcotest.test_case "A2: sinks and promoted lists pass" `Quick
          test_a2_ok;
        Alcotest.test_case "A3: undocumented, stale, leaking spans" `Quick
          test_a3_bad;
        Alcotest.test_case "A3: closed and sink-emitted spans pass" `Quick
          test_a3_ok;
        Alcotest.test_case "A4: unsafe comparisons flagged" `Quick test_a4_bad;
        Alcotest.test_case "A4: safe comparisons pass" `Quick test_a4_ok;
        Alcotest.test_case "suppressions shared with the R1-R5 rules" `Quick
          test_suppression_filter;
        Alcotest.test_case "one unit per source file" `Quick
          test_one_unit_per_source;
        Alcotest.test_case "ANALYSIS.json schema and shape" `Quick
          test_report_schema;
        Alcotest.test_case "baseline JSON roundtrip" `Quick
          test_baseline_roundtrip;
        Alcotest.test_case "doc-table name extraction" `Quick test_doc_parsing;
      ] );
    ( "lint",
      [
        Alcotest.test_case "R1: unsorted fold flagged" `Quick test_unsorted_fold;
        Alcotest.test_case "R1: sorted fold passes" `Quick test_sorted_fold_ok;
        Alcotest.test_case "R2: poly compare flagged" `Quick test_poly_compare;
        Alcotest.test_case "R2: typed compare passes" `Quick test_typed_compare_ok;
        Alcotest.test_case "R3: wall clock flagged" `Quick test_wall_clock;
        Alcotest.test_case "suppression: audited allows work" `Quick
          test_suppression_ok;
        Alcotest.test_case "suppression: multi-line comment blocks" `Quick
          test_multiline_allow;
        Alcotest.test_case "suppression: unaudited allows reported" `Quick
          test_bad_suppression;
        Alcotest.test_case "suppression: reported in a clean file" `Quick
          test_bad_suppression_alone;
        Alcotest.test_case "suppression: unused allows reported" `Quick
          test_unused_suppression;
        Alcotest.test_case "R4: stdout in lib flagged" `Quick test_stdout_in_lib;
        Alcotest.test_case "R4: stdout outside lib passes" `Quick
          test_stdout_outside_lib_ok;
        Alcotest.test_case "R5: missing mli flagged" `Quick test_missing_mli;
        Alcotest.test_case "resolved paths flagged" `Quick test_resolved_paths;
        Alcotest.test_case "directory pass aggregates and sorts" `Quick
          test_whole_corpus;
        Alcotest.test_case "R1: fold over another unit's instance" `Quick
          test_cross_unit_fold;
      ] );
  ]
