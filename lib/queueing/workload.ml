let poisson_arrivals ~rng ~rate ~horizon =
  if rate <= 0. then []
  else begin
    let rec gen t acc =
      let t = t +. Dsim.Rng.exponential rng rate in
      if t >= horizon then List.rev acc else gen t (t :: acc)
    in
    gen 0. []
  end

let uniform_arrivals ~rng ~count ~horizon =
  List.init count (fun _ -> Dsim.Rng.float rng horizon)
  |> List.sort Float.compare
