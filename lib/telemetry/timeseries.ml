(* Windowed snapshots of a metrics registry over virtual time.

   Each call to [sample] visits the registry in deterministic
   (name, labels) order (volatile metrics excluded — the PR 4 byte-
   stability convention) and records, per metric, its current value
   plus the delta since the previous window.  Windows after the first
   are delta-encoded: a metric only appears when its reading changed,
   so long quiet stretches cost almost nothing in TIMESERIES.json. *)

type point =
  | Counter of { value : int; delta : int }
  | Gauge of { value : float; delta : float }
  | Hist of {
      count : int;
      delta : int;  (* observations added since the previous window *)
      mean : float;
      p50 : float;
      p90 : float;
      p99 : float;
    }

type sample = { name : string; labels : Registry.labels; point : point }

type window = { index : int; time : float; samples : sample list }

type t = {
  resolution : float;
  prev : (string * Registry.labels, Registry.snapshot_value) Hashtbl.t;
      (* last emitted reading per metric, for delta encoding; a
         histogram is held as a frozen copy, so the next window reads
         its own observations as the bucket delta *)
  mutable rev_windows : window list;  (* newest first *)
  mutable next_index : int;
}

let create ~resolution () =
  if resolution <= 0. then
    invalid_arg "Timeseries.create: resolution must be positive";
  { resolution; prev = Hashtbl.create 64; rev_windows = []; next_index = 0 }

let resolution t = t.resolution

let window_count t = t.next_index

let windows t = List.rev t.rev_windows

let sample t ~at reg =
  let samples = ref [] in
  Registry.iter_sorted
    (fun name labels value ->
      let key = (name, labels) in
      let before = Hashtbl.find_opt t.prev key in
      let emit point now =
        samples := { name; labels; point } :: !samples;
        Hashtbl.replace t.prev key now
      in
      match value with
      | Registry.Counter_value v ->
          let old = match before with Some (Registry.Counter_value o) -> o | _ -> 0 in
          if Option.is_none before || v <> old then
            emit (Counter { value = v; delta = v - old }) value
      | Registry.Gauge_value v ->
          let old = match before with Some (Registry.Gauge_value o) -> o | _ -> 0. in
          if Option.is_none before || v <> old then
            emit (Gauge { value = v; delta = v -. old }) value
      | Registry.Histogram_value h ->
          let count = Registry.hist_count h in
          let prev =
            match before with Some (Registry.Histogram_value p) -> Some p | _ -> None
          in
          let old = Option.fold ~none:0 ~some:Registry.hist_count prev in
          if Option.is_none before || count <> old then
            let w = Option.fold ~none:h ~some:(Dsim.Stats.Log_histogram.diff h) prev in
            emit
              (Hist
                 {
                   count;
                   delta = count - old;
                   mean = Registry.hist_mean w;
                   p50 = Registry.percentile w 50.;
                   p90 = Registry.percentile w 90.;
                   p99 = Registry.percentile w 99.;
                 })
              (Registry.Histogram_value (Dsim.Stats.Log_histogram.copy h)))
    reg;
  let w = { index = t.next_index; time = at; samples = List.rev !samples } in
  t.next_index <- t.next_index + 1;
  t.rev_windows <- w :: t.rev_windows;
  w

(* --- serialisation ------------------------------------------------------ *)

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let sample_json s =
  let common =
    [ ("name", Json.String s.name); ("labels", labels_json s.labels) ]
  in
  match s.point with
  | Counter { value; delta } ->
      Json.Obj (common @ [ ("value", Json.Int value); ("delta", Json.Int delta) ])
  | Gauge { value; delta } ->
      Json.Obj
        (common @ [ ("value", Json.Float value); ("delta", Json.Float delta) ])
  | Hist { count; delta; mean; p50; p90; p99 } ->
      Json.Obj
        (common
        @ [
            ("count", Json.Int count);
            ("delta", Json.Int delta);
            ("mean", Json.Float mean);
            ("p50", Json.Float p50);
            ("p90", Json.Float p90);
            ("p99", Json.Float p99);
          ])

let window_json w =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun s ->
      let j = sample_json s in
      match s.point with
      | Counter _ -> counters := j :: !counters
      | Gauge _ -> gauges := j :: !gauges
      | Hist _ -> histograms := j :: !histograms)
    w.samples;
  Json.Obj
    [
      ("index", Json.Int w.index);
      ("time", Json.Float w.time);
      ("counters", Json.List (List.rev !counters));
      ("gauges", Json.List (List.rev !gauges));
      ("histograms", Json.List (List.rev !histograms));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "mailsys.timeseries/2");
      ("resolution", Json.Float t.resolution);
      ("windows", Json.List (List.map window_json (windows t)));
    ]
