(* Declarative health rules evaluated once per timeseries window.

   A rule names a metric (plus optional labels), a selector (value,
   delta, rate, or a histogram readout) and a condition: a threshold,
   an absence bound, or a sliding-window SLO burn.  Evaluation is
   side-effect-light — the only state is per-rule history for deltas,
   absence streaks and burn windows — and fully deterministic, so
   alert streams byte-compare across identical seeded runs. *)

type selector = Value | Delta | Rate | Mean | P50 | P90 | P99

type condition =
  | Above of float
  | Below of float
  | Absent of int
  | Burn of { threshold : float; window : int; budget : float }

type rule = {
  rule_name : string;
  metric : string;
  labels : Registry.labels;
  selector : selector;
  condition : condition;
}

type alert = {
  a_rule : string;
  a_window : int;
  a_time : float;
  a_value : float;
  a_message : string;
}

type rule_state = {
  rule : rule;
  counter : Registry.counter option;  (* alert_fired{rule=...} *)
  mutable prev : Registry.snapshot_value option;
      (* last reading, for delta/rate/absence and histogram windows;
         a histogram is held as a frozen copy *)
  mutable prev_time : float;
  mutable stuck : int;  (* consecutive windows without change (Absent) *)
  mutable recent : bool list;  (* Burn: violation flags, newest first *)
  mutable fires : int;
  mutable worst_window : int;
  mutable worst_value : float;
  mutable last_burn : float;
}

type t = {
  rules : rule_state list;
  total : Registry.counter option;  (* alert_total *)
  mutable next_window : int;
  mutable rev_alerts : alert list;
}

let selector_to_string = function
  | Value -> "value"
  | Delta -> "delta"
  | Rate -> "rate"
  | Mean -> "mean"
  | P50 -> "p50"
  | P90 -> "p90"
  | P99 -> "p99"

let float_str v =
  (* %.12g keeps round-trip precision while printing integral
     thresholds without a trailing ".000000". *)
  Printf.sprintf "%.12g" v

let condition_to_string = function
  | Above x -> ">" ^ float_str x
  | Below x -> "<" ^ float_str x
  | Absent n -> "!" ^ string_of_int n
  | Burn { threshold; window; budget } ->
      Printf.sprintf "~%s/%d/%s" (float_str threshold) window (float_str budget)

let rule_to_string r =
  let labels =
    match r.labels with
    | [] -> ""
    | l ->
        "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"
  in
  let sel =
    match r.selector with Value -> "" | s -> "." ^ selector_to_string s
  in
  r.rule_name ^ "=" ^ r.metric ^ labels ^ sel ^ condition_to_string r.condition

let to_string rules = String.concat "," (List.map rule_to_string rules)

(* --- parsing ------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Monitor.parse: " ^ m)) fmt

(* Split on commas that sit outside label braces, so
   "a=m{k=v,l=w}>1,b=n<2" yields two rules. *)
let split_rules s =
  let out = ref [] and buf = Buffer.create 32 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '{' ->
          incr depth;
          Buffer.add_char buf c
      | '}' ->
          decr depth;
          Buffer.add_char buf c
      | ',' when !depth = 0 ->
          out := Buffer.contents buf :: !out;
          Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  out := Buffer.contents buf :: !out;
  List.rev_map String.trim !out |> List.filter (fun x -> x <> "")

let parse_float what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail "%s %S is not a number" what s

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "%s %S is not an integer" what s

let parse_selector = function
  | "value" -> Value
  | "delta" -> Delta
  | "rate" -> Rate
  | "mean" -> Mean
  | "p50" -> P50
  | "p90" -> P90
  | "p99" -> P99
  | other -> fail "unknown selector %S" other

let parse_condition s =
  if s = "" then fail "missing condition (expected >x, <x, !n or ~t/w/b)";
  let rest = String.sub s 1 (String.length s - 1) in
  match s.[0] with
  | '>' -> Above (parse_float "threshold" rest)
  | '<' -> Below (parse_float "threshold" rest)
  | '!' ->
      let n = parse_int "absence window" rest in
      if n <= 0 then fail "absence window must be positive";
      Absent n
  | '~' -> (
      match String.split_on_char '/' rest with
      | [ t; w; b ] ->
          let window = parse_int "burn window" w in
          if window <= 0 then fail "burn window must be positive";
          let budget = parse_float "burn budget" b in
          if budget < 0. || budget > 1. then fail "burn budget must be in [0,1]";
          Burn { threshold = parse_float "burn threshold" t; window; budget }
      | _ -> fail "burn condition %S is not THRESHOLD/WINDOW/BUDGET" rest)
  | c -> fail "unknown condition operator %C" c

(* metric[{k=v,...}][.sel]COND — the metric part ends at the first
   condition operator outside braces. *)
let parse_body rule_name body =
  let n = String.length body in
  let cond_at = ref n and depth = ref 0 in
  String.iteri
    (fun i c ->
      match c with
      | '{' -> incr depth
      | '}' -> decr depth
      | ('>' | '<' | '!' | '~') when !depth = 0 && !cond_at = n -> cond_at := i
      | _ -> ())
    body;
  if !cond_at = n then fail "rule %S has no condition" rule_name;
  let head = String.sub body 0 !cond_at in
  let condition = parse_condition (String.sub body !cond_at (n - !cond_at)) in
  let head, selector =
    match String.rindex_opt head '.' with
    | Some i when (not (String.contains_from head i '}')) && i > 0 ->
        ( String.sub head 0 i,
          parse_selector (String.sub head (i + 1) (String.length head - i - 1)) )
    | _ -> (head, Value)
  in
  let metric, labels =
    match String.index_opt head '{' with
    | None -> (head, [])
    | Some i ->
        if head.[String.length head - 1] <> '}' then
          fail "unterminated labels in %S" head;
        let inside = String.sub head (i + 1) (String.length head - i - 2) in
        let labels =
          List.map
            (fun kv ->
              match String.index_opt kv '=' with
              | Some j ->
                  ( String.sub kv 0 j,
                    String.sub kv (j + 1) (String.length kv - j - 1) )
              | None -> fail "label %S is not k=v" kv)
            (String.split_on_char ',' inside)
        in
        (String.sub head 0 i, labels)
  in
  if metric = "" then fail "rule %S names no metric" rule_name;
  (* Registry keys store labels sorted by key; match that order so a
     rule's labels compare structurally equal to the stored binding. *)
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  { rule_name; metric; labels; selector; condition }

let parse_rule s =
  match String.index_opt s '=' with
  | None -> fail "rule %S is not NAME=METRIC..." s
  | Some i ->
      let name = String.trim (String.sub s 0 i) in
      if name = "" then fail "rule %S has an empty name" s;
      parse_body name (String.sub s (i + 1) (String.length s - i - 1))

let parse s = List.map parse_rule (split_rules s)

(* --- the standard rule set ---------------------------------------------- *)

let standard_dsl =
  String.concat ","
    [
      (* Any authority chain running below full strength — guaranteed
         to trip during a crash campaign. *)
      "chains-degraded=replica_chains_degraded>0";
      (* Retry backlog: undeposited transfers piling up at holders. *)
      "queue-backlog=pipeline_pending>500";
      (* Retry storm: more than 200 new retries inside one window. *)
      "retry-burst=retries.delta>200";
      (* SLO burn: each window's own p99 delivery latency over budget
         in more than half of the last 10 windows. *)
      "delivery-p99=delivery_latency.p99~250/10/0.5";
      (* Liveness: no deposit completed for 20 consecutive windows. *)
      "deposit-stall=deposits!20";
    ]

let standard = parse standard_dsl

(* --- evaluation --------------------------------------------------------- *)

let create ?registry rules =
  let counter_for r =
    Option.map
      (fun reg ->
        (* Registered eagerly so the alert metric names exist (and the
           JSON shape is stable) even when a rule never fires. *)
        Registry.counter ~labels:[ ("rule", r.rule_name) ] reg "alert_fired")
      registry
  in
  {
    rules =
      List.map
        (fun rule ->
          {
            rule;
            counter = counter_for rule;
            prev = None;
            prev_time = 0.;
            stuck = 0;
            recent = [];
            fires = 0;
            worst_window = -1;
            worst_value = nan;
            last_burn = 0.;
          })
        rules;
    total = Option.map (fun reg -> Registry.counter reg "alert_total") registry;
    next_window = 0;
    rev_alerts = [];
  }

let rules t = List.map (fun s -> s.rule) t.rules

(* Scalar reading of a metric: the counter or gauge value, or a
   histogram's observation count. *)
let raw = function
  | Registry.Counter_value c -> float_of_int c
  | Registry.Gauge_value g -> g
  | Registry.Histogram_value h -> float_of_int (Registry.hist_count h)

let freeze = function
  | Registry.Histogram_value h ->
      Registry.Histogram_value (Dsim.Stats.Log_histogram.copy h)
  | v -> v

let truncate n l =
  let rec go i = function
    | [] -> []
    | _ when i >= n -> []
    | x :: rest -> x :: go (i + 1) rest
  in
  go 0 l

let eval t ~time reg =
  let window = t.next_window in
  t.next_window <- window + 1;
  (* One sorted pass collects the readings the rules need; going
     through the snapshot API (rather than find-or-create handles)
     cannot accidentally create or typo a metric. *)
  let wanted = Hashtbl.create 8 in
  let interesting name =
    List.exists (fun s -> String.equal s.rule.metric name) t.rules
  in
  Registry.iter_sorted
    (fun name labels v ->
      if interesting name then Hashtbl.replace wanted (name, labels) v)
    reg;
  let fired = ref [] in
  List.iter
    (fun s ->
      let r = s.rule in
      let reading = Hashtbl.find_opt wanted (r.metric, r.labels) in
      let before = Option.fold ~none:0. ~some:raw s.prev in
      (* Absence streak: no reading, or a reading that did not move. *)
      (match (reading, s.prev) with
      | None, _ -> s.stuck <- s.stuck + 1
      | Some v, Some p when raw v = raw p -> s.stuck <- s.stuck + 1
      | Some _, _ -> s.stuck <- 0);
      let selected =
        match (reading, r.selector) with
        | None, _ -> None
        | Some (Registry.Histogram_value h), (Mean | P50 | P90 | P99) ->
            (* The window's own observations: the bucket delta since the
               previous reading, not everything since t = 0. *)
            let w =
              match s.prev with
              | Some (Registry.Histogram_value p) ->
                  Dsim.Stats.Log_histogram.diff h p
              | _ -> h
            in
            Some
              (match r.selector with
              | Mean -> Registry.hist_mean w
              | P50 -> Registry.percentile w 50.
              | P90 -> Registry.percentile w 90.
              | _ -> Registry.percentile w 99.)
        | Some v, (Value | Mean | P50 | P90 | P99) -> Some (raw v)
        | Some v, Delta -> Some (raw v -. before)
        | Some v, Rate ->
            let dt = time -. s.prev_time in
            Some (if dt > 0. then (raw v -. before) /. dt else 0.)
      in
      let fire value message =
        s.fires <- s.fires + 1;
        let severer =
          Float.is_nan s.worst_value
          ||
          match r.condition with
          | Below _ -> value < s.worst_value
          | Above _ | Absent _ | Burn _ -> value > s.worst_value
        in
        if severer then begin
          s.worst_value <- value;
          s.worst_window <- window
        end;
        Option.iter (fun c -> Registry.incr c) s.counter;
        Option.iter (fun c -> Registry.incr c) t.total;
        fired :=
          {
            a_rule = r.rule_name;
            a_window = window;
            a_time = time;
            a_value = value;
            a_message = message;
          }
          :: !fired
      in
      let describe () =
        let labels =
          match r.labels with
          | [] -> ""
          | l ->
              "{"
              ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
              ^ "}"
        in
        match r.selector with
        | Value -> r.metric ^ labels
        | s -> r.metric ^ labels ^ "." ^ selector_to_string s
      in
      (match (r.condition, selected) with
      | Above x, Some v ->
          if Float.is_finite v && v > x then
            fire v
              (Printf.sprintf "%s = %s > %s" (describe ()) (float_str v)
                 (float_str x))
      | Below x, Some v ->
          if Float.is_finite v && v < x then
            fire v
              (Printf.sprintf "%s = %s < %s" (describe ()) (float_str v)
                 (float_str x))
      | Absent n, _ ->
          if s.stuck >= n then
            fire
              (float_of_int s.stuck)
              (Printf.sprintf "%s unchanged for %d windows (bound %d)"
                 (describe ()) s.stuck n)
      | Burn { threshold; window = w; budget }, v_opt ->
          let violating =
            match v_opt with
            | Some v -> Float.is_finite v && v > threshold
            | None -> false
          in
          s.recent <- truncate w (violating :: s.recent);
          let bad = List.length (List.filter Fun.id s.recent) in
          let burn = float_of_int bad /. float_of_int w in
          s.last_burn <- burn;
          if burn > budget then
            fire burn
              (Printf.sprintf
                 "%s > %s in %d of last %d windows (burn %s > budget %s)"
                 (describe ()) (float_str threshold) bad w (float_str burn)
                 (float_str budget))
      | (Above _ | Below _), None -> ());
      (* Remember the reading for the next window's delta/rate, absence
         tracking and histogram window. *)
      Option.iter (fun v -> s.prev <- Some (freeze v)) reading;
      s.prev_time <- time)
    t.rules;
  let alerts = List.rev !fired in
  t.rev_alerts <- List.rev_append alerts t.rev_alerts;
  alerts

let alerts t = List.rev t.rev_alerts
let windows_evaluated t = t.next_window
let fired t = t.rev_alerts <> []

let slo_violated t =
  List.exists
    (fun s -> match s.rule.condition with Burn _ -> s.fires > 0 | _ -> false)
    t.rules

(* --- reporting ---------------------------------------------------------- *)

type rule_summary = {
  s_rule : rule;
  fires : int;
  worst_window : int;
  worst_value : float;
  burn_fraction : float;
}

let summary t =
  List.map
    (fun s ->
      {
        s_rule = s.rule;
        fires = s.fires;
        worst_window = s.worst_window;
        worst_value = s.worst_value;
        burn_fraction =
          (match s.rule.condition with
          | Burn _ -> s.last_burn
          | _ ->
              if t.next_window = 0 then 0.
              else float_of_int s.fires /. float_of_int t.next_window);
      })
    t.rules

let alert_to_json a =
  Json.Obj
    [
      ("rule", Json.String a.a_rule);
      ("window", Json.Int a.a_window);
      ("time", Json.Float a.a_time);
      ("value", Json.Float a.a_value);
      ("message", Json.String a.a_message);
    ]

let summary_to_json t =
  Json.Obj
    [
      ("windows", Json.Int t.next_window);
      ("alerts", Json.Int (List.length t.rev_alerts));
      ("slo_violated", Json.Bool (slo_violated t));
      ( "rules",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("rule", Json.String s.s_rule.rule_name);
                   ("expr", Json.String (rule_to_string s.s_rule));
                   ("fires", Json.Int s.fires);
                   ("worst_window", Json.Int s.worst_window);
                   ("worst_value", Json.Float s.worst_value);
                   ("burn_fraction", Json.Float s.burn_fraction);
                 ])
             (summary t)) );
    ]

let pp_summary ppf t =
  Format.fprintf ppf "%d windows, %d alerts@," t.next_window
    (List.length t.rev_alerts);
  List.iter
    (fun s ->
      Format.fprintf ppf "%-18s %5d fires  worst w%-4d %10s  burn %.3f@,"
        s.s_rule.rule_name s.fires s.worst_window
        (if Float.is_nan s.worst_value then "-" else float_str s.worst_value)
        s.burn_fraction)
    (summary t)
