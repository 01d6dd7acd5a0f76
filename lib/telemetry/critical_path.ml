type stage = {
  stage : string;
  traces : int;
  spans : int;
  total : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

type report = {
  root : string;
  traces : int;
  complete : int;
  stages : stage list;
}

let analyze ?(root = "message") tracer =
  let stage_obs : (string, Dsim.Stats.Log_histogram.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let stage_spans : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let observe stage v =
    match Hashtbl.find_opt stage_obs stage with
    | Some h -> Dsim.Stats.Log_histogram.add h v
    | None ->
        let h = Dsim.Stats.Log_histogram.create () in
        Dsim.Stats.Log_histogram.add h v;
        Hashtbl.replace stage_obs stage h
  in
  let traces = ref 0 and complete = ref 0 in
  List.iter
    (fun (_id, tspans) ->
      match
        List.find_opt
          (fun (s : Span.t) ->
            s.Span.parent = None && String.equal s.Span.name root)
          tspans
      with
      | None -> ()
      | Some r ->
          incr traces;
          (match Span.duration r with
          | Some d ->
              incr complete;
              observe "total" d;
              Hashtbl.replace stage_spans "total"
                (1 + Option.value ~default:0 (Hashtbl.find_opt stage_spans "total"))
          | None -> ());
          let sums : (string, float) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun (s : Span.t) ->
              if s.Span.span_id <> r.Span.span_id then
                match Span.duration s with
                | Some d ->
                    Hashtbl.replace sums s.Span.name
                      (d
                      +. Option.value ~default:0.
                           (Hashtbl.find_opt sums s.Span.name));
                    Hashtbl.replace stage_spans s.Span.name
                      (1
                      + Option.value ~default:0
                          (Hashtbl.find_opt stage_spans s.Span.name))
                | None -> ())
            tspans;
          Hashtbl.iter observe sums)
    (Tracer.traces tracer);
  let stages =
    Hashtbl.fold
      (fun name h acc ->
        let module H = Dsim.Stats.Log_histogram in
        {
          stage = name;
          traces = H.count h;
          spans = Option.value ~default:0 (Hashtbl.find_opt stage_spans name);
          total = H.sum h;
          mean = H.mean h;
          p50 = H.percentile h 50.;
          p90 = H.percentile h 90.;
          p99 = H.percentile h 99.;
          max = H.max h;
        }
        :: acc)
      stage_obs []
    |> List.sort (fun a b -> String.compare a.stage b.stage)
  in
  { root; traces = !traces; complete = !complete; stages }

let stage_to_json s =
  Json.Obj
    [
      ("stage", Json.String s.stage);
      ("traces", Json.Int s.traces);
      ("spans", Json.Int s.spans);
      ("total", Json.Float s.total);
      ("mean", Json.Float s.mean);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p99", Json.Float s.p99);
      ("max", Json.Float s.max);
    ]

let to_json r =
  Json.Obj
    [
      ("root", Json.String r.root);
      ("traces", Json.Int r.traces);
      ("complete", Json.Int r.complete);
      ("stages", Json.List (List.map stage_to_json r.stages));
    ]

let pp ppf r =
  Format.fprintf ppf "critical path over %d %S traces (%d complete)@," r.traces
    r.root r.complete;
  Format.fprintf ppf "%-14s %7s %7s %10s %10s %10s %10s %10s@," "stage" "traces"
    "spans" "mean" "p50" "p90" "p99" "max";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-14s %7d %7d %10.3f %10.3f %10.3f %10.3f %10.3f@,"
        s.stage s.traces s.spans s.mean s.p50 s.p90 s.p99 s.max)
    r.stages
