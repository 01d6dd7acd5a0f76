open Perfbench

let usage =
  {|usage:
  perf.exe --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--json FILE]
  perf.exe compare PARENT_DIR CHANGE_DIR
workloads: d1-faults d1-calm d1-reads d2-roam (default seed 13, held-out seed 29,
default seconds 12)|}

let fail msg =
  prerr_endline ("perf: " ^ msg);
  prerr_endline usage;
  exit 2

let parse conv what s =
  match conv s with Some v -> v | None -> fail (Printf.sprintf "bad %s %S" what s)

let write path contents = Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let run args =
  let workload = ref None and seed = ref Workload.default_seed in
  let seconds = ref Workload.run_seconds in
  let trace = ref false and json = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some (parse Workload.find "workload" w);
        go rest
    | "--seed" :: s :: rest ->
        seed := parse int_of_string_opt "seed" s;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := parse float_of_string_opt "seconds" s;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := String.equal v "1";
        go rest
    | "--trace" :: rest ->
        trace := true;
        go rest
    | "--json" :: f :: rest ->
        json := Some f;
        go rest
    | a :: _ -> fail ("unexpected argument " ^ a)
  in
  go args;
  let w = match !workload with Some w -> w | None -> fail "--workload is required" in
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = Workload.minor_heap_words };
  let r = Harness.measure w ~seed:!seed ~seconds:!seconds ~trace:!trace in
  Report.print r;
  if !trace then write "spans.jsonl" (Report.spans_jsonl r);
  Option.iter
    (fun f -> write f (Telemetry.Json.to_string ~indent:2 (Report.document r) ^ "\n"))
    !json;
  print_endline (Telemetry.Json.to_string (Report.summary r));
  exit (Report.exit_code r)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; parent_dir; change_dir ] ->
      exit (if Compare.run ~parent_dir ~change_dir then 1 else 0)
  | "compare" :: _ -> fail "compare takes PARENT_DIR CHANGE_DIR"
  | args -> run args
