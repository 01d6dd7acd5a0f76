(* [perf.exe compare PARENT_DIR CHANGE_DIR]: judge a change against its
   parent from the [--json] result files of alternating runs, by the
   rule the benchmark's bounds are defined for.  Per workload and
   end-to-end metric:

   - improved: over at least ten pairs, the change wins at least 9 in
     10 (ties count for neither side), its median beats the parent's
     by more than the parent's own interquartile range, and its runs
     failed no more operations in total than the parent's;
   - worse: the change's median is worse than the parent's by more than
     the metric's bound;
   - unresolved: a gain that misses only the pair count or the failure
     condition, or the parent's own spread is wider than the bound,
     unless every change run beats every parent run;
   - unchanged: otherwise. *)

module J = Telemetry.Json

type bound = { metric : string; lower_better : bool; bound : float }

let number = function
  | J.Int n -> Some (float_of_int n)
  | J.Float f -> Some f
  | J.Null | J.Bool _ | J.String _ | J.List _ | J.Obj _ -> None

let read_file path = In_channel.with_open_bin path In_channel.input_all

let bounds path =
  match J.member "end_to_end" (J.of_string (read_file path)) with
  | Some (J.List l) ->
      List.filter_map
        (fun o ->
          match (J.member "name" o, J.member "better" o, Option.bind (J.member "bound" o) number) with
          | Some (J.String metric), Some (J.String better), Some bound ->
              Some { metric; lower_better = String.equal better "lower"; bound }
          | _ -> None)
        l
  | _ -> failwith (path ^ ": no end_to_end list")

type result = { workload : string; failed : int; metrics : (string * float) list }

(* Every result file of a directory, in file-name order — the order the
   runs were made in when they are numbered. *)
let results dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.filter_map (fun f ->
         let doc = J.of_string (read_file (Filename.concat dir f)) in
         match (J.member "workload" doc, J.member "failed" doc, J.member "metrics" doc) with
         | Some (J.String workload), Some (J.Int failed), Some (J.Obj ms) ->
             let value m = Option.bind (J.member "value" m) number in
             let metrics =
               List.filter_map (fun (k, m) -> Option.map (fun v -> (k, v)) (value m)) ms
             in
             Some { workload; failed; metrics }
         | _ -> None)

let of_workload rs w = List.filter (fun r -> String.equal r.workload w) rs

let values rs ~metric = Array.of_list (List.filter_map (fun r -> List.assoc_opt metric r.metrics) rs)
let failed rs = List.fold_left (fun acc r -> acc + r.failed) 0 rs

type row = {
  parent : float * float * float;  (** q1, median, q3 *)
  change : float * float * float;
  win_fraction : float;
  verdict : string;
}

(* The fewest pairs a gain may rest on. *)
let min_pairs = 10

(* [failed] is the total of failed operations over the parent's runs and
   over the change's. *)
let judge b ~parent ~change ~failed:(parent_failed, change_failed) =
  let better x y = if b.lower_better then x < y else x > y in
  let quart a =
    let q1, q3 = Stats.quartiles a in
    (q1, Stats.median a, q3)
  in
  let ((pq1, pm, pq3) as p) = quart parent and ((_, cm, _) as c) = quart change in
  let pairs = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better change.(i) parent.(i) then incr wins
  done;
  let win_fraction = if pairs = 0 then 0. else float_of_int !wins /. float_of_int pairs in
  let worse_by = (if b.lower_better then cm -. pm else pm -. cm) /. Float.abs pm in
  let all_better =
    Array.for_all (fun x -> Array.for_all (fun y -> better x y) parent) change
  in
  let gain = win_fraction >= 0.9 && better cm pm && Float.abs (cm -. pm) > pq3 -. pq1 in
  let verdict =
    if gain then
      if pairs >= min_pairs && change_failed <= parent_failed then "improved" else "unresolved"
    else if worse_by > b.bound then "worse"
    else if (pq3 -. pq1) /. Float.abs pm > b.bound && not all_better then "unresolved"
    else "unchanged"
  in
  { parent = p; change = c; win_fraction; verdict }

(* Prints one row per workload and metric, with the bounds of the
   [BENCHMARK.json] in the current directory; returns whether any row
   was worse. *)
let run ~parent_dir ~change_dir =
  let bounds = bounds "BENCHMARK.json" in
  let parent = results parent_dir and change = results change_dir in
  Printf.printf "%-10s %-16s %30s %30s %5s %s\n" "workload" "metric" "parent q1/median/q3"
    "change q1/median/q3" "wins" "verdict";
  let worse = ref false in
  List.iter
    (fun (w : Workload.t) ->
      let parent = of_workload parent w.name and change = of_workload change w.name in
      let failures = (failed parent, failed change) in
      if not (List.is_empty parent || List.is_empty change) then
        Printf.printf "%-10s failed operations: parent %d, change %d\n" w.name (fst failures)
          (snd failures);
      List.iter
        (fun b ->
          let p = values parent ~metric:b.metric and c = values change ~metric:b.metric in
          if Array.length p > 0 && Array.length c > 0 then begin
            let r = judge b ~parent:p ~change:c ~failed:failures in
            let show (q1, m, q3) = Printf.sprintf "%.4g/%.4g/%.4g" q1 m q3 in
            if String.equal r.verdict "worse" then worse := true;
            Printf.printf "%-10s %-16s %30s %30s %5.2f %s\n" w.name b.metric (show r.parent)
              (show r.change) r.win_fraction r.verdict
          end)
        bounds)
    Workload.all;
  !worse
