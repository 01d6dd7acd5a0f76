(* mailsys.analyze CLI: run the static gate — determinism rules R1–R5
   and the type-aware analyses A1–A4 — over the .cmt files dune
   emitted for the given source directories.

     mailsys.analyze [options] [DIR...]        (default: lib bin)

   Options:
     --write-baseline     rewrite analysis_baseline.json from the
                          current tree and exit 0 (the
                          conscious-re-ratchet path)
     --json FILE          write the ANALYSIS.json report here

   Run from the repository root after [dune build @all @check]: .cmt
   files are a build artifact, and @check is what emits them for
   executables' main modules.  Every .ml under the DIRs must have one.
   Exits 1 when findings survive suppression, 2 on usage errors or
   missing typed trees. *)

let build = "_build/default"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("mailsys.analyze: " ^ msg);
      exit 2)
    fmt

let write_json path json =
  let oc = open_out path in
  output_string oc (Telemetry.Json.to_string ~indent:2 json);
  output_string oc "\n";
  close_out oc

let () =
  let write_baseline = ref false in
  let json_out = ref None in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--write-baseline" :: rest -> write_baseline := true; parse rest
    | "--json" :: v :: rest -> json_out := Some v; parse rest
    | s :: _ when String.length s > 1 && s.[0] = '-' ->
        fail "unknown option %s\nusage: mailsys.analyze [--write-baseline] \
              [--json FILE] [DIR...]" s
    | d :: rest -> dirs := d :: !dirs; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dirs = match List.rev !dirs with [] -> [ "lib"; "bin" ] | ds -> ds in
  List.iter
    (fun d ->
      if not (Sys.file_exists d) then fail "no such path %s" d;
      if not (Sys.file_exists (Filename.concat build d)) then
        fail "no build tree at %s — run `dune build @all @check` first"
          (Filename.concat build d))
    dirs;
  let sources =
    List.fold_left (fun acc d -> Analyze_core.collect_sources d acc) [] dirs
    |> List.sort_uniq String.compare
  in
  let units =
    List.fold_left
      (fun acc d -> Analyze_core.collect_cmts (Filename.concat build d) acc)
      [] dirs
    |> List.sort String.compare |> Analyze_core.load_units
  in
  let untyped =
    List.filter
      (fun s ->
        Filename.check_suffix s ".ml"
        && not (List.exists (fun u -> String.equal u.Analyze_core.u_file s) units))
      sources
  in
  if untyped <> [] then
    fail "no .cmt for %s — run `dune build @all @check` first (.cmt files \
          are a build artifact)"
      (String.concat " " untyped);
  let analysis = Analyze_core.analyze_tree ~sources units in
  if !write_baseline then begin
    let counts = Analyze_core.current_counts analysis.Analyze_core.an_facts in
    write_json Analyze_core.baseline_file (Analyze_core.baseline_to_json counts);
    Printf.printf "mailsys.analyze: baseline written to %s (%d hot function(s))\n"
      Analyze_core.baseline_file (List.length counts);
    exit 0
  end;
  Option.iter
    (fun path ->
      write_json path
        (Analyze_core.report_to_json
           ~baseline:analysis.Analyze_core.an_baseline
           ~findings:analysis.Analyze_core.an_findings
           ~facts_list:analysis.Analyze_core.an_facts))
    !json_out;
  List.iter
    (fun (name, now, base) ->
      Printf.printf
        "mailsys.analyze: note: %s improved to %d allocation site(s) \
         (baseline %d) — ratchet down with `make analyze-baseline`\n"
        name now base)
    analysis.Analyze_core.an_improvements;
  match analysis.Analyze_core.an_findings with
  | [] ->
      Printf.printf "mailsys.analyze: clean (%s; %d compilation unit(s))\n"
        (String.concat " " dirs)
        (List.length analysis.Analyze_core.an_facts);
      exit 0
  | findings ->
      List.iter
        (fun v -> Format.printf "%a@." Analyze_core.pp_violation v)
        findings;
      Printf.eprintf "mailsys.analyze: %d finding(s)\n" (List.length findings);
      exit 1
