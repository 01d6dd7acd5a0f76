module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable minv : float;
    mutable maxv : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.; m2 = 0.; minv = infinity; maxv = neg_infinity; total = 0. }

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.minv then t.minv <- x;
    if x > t.maxv then t.maxv <- x

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.minv
  let max t = t.maxv
  let total t = t.total

  let pp ppf t =
    Format.fprintf ppf "n=%d mean=%.4f sd=%.4f min=%.4f max=%.4f" t.n (mean t)
      (stddev t) t.minv t.maxv
end

module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let incr ?(by = 1) t key =
    match Hashtbl.find_opt t key with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t key (ref by)

  (* Pre-resolved handle: one string hash at wiring time, then bumping
     the counter is a raw int-ref update on the hot path. *)
  let cell t key =
    match Hashtbl.find_opt t key with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t key r;
        r

  let get t key = match Hashtbl.find_opt t key with Some r -> !r | None -> 0

  let to_list t =
    (* Never-bumped cells stay invisible, matching the incr-only days. *)
    Hashtbl.fold (fun k r acc -> if !r <> 0 then (k, !r) :: acc else acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let pp ppf t =
    let items = to_list t in
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list (fun ppf (k, v) -> Format.fprintf ppf "%s=%d" k v))
      items
end

module Log_histogram = struct
  (* A positive float's bucket is the top 17 bits of its IEEE-754
     pattern: the biased exponent and the top 6 mantissa bits, so each
     power of two holds 64 linear sub-buckets.  No libm call and no
     [Float.frexp] tuple on the add path. *)
  let shift = 46
  let octave = 64

  type t = {
    mutable counts : int array;  (* [counts.(j)] counts bucket [base + j] *)
    mutable base : int;  (* a multiple of [octave] *)
    mutable zero : int;  (* observations [<= 0] *)
    mutable n : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create () =
    {
      counts = [||];
      base = 0;
      zero = 0;
      n = 0;
      sum = 0.;
      minv = infinity;
      maxv = neg_infinity;
    }

  let index x = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) shift)

  (* Widen [counts] to the whole octaves that also cover bucket [i]. *)
  let grow t i =
    let len = Array.length t.counts in
    let lo = if len = 0 then i else Stdlib.min t.base i in
    let hi = if len = 0 then i + 1 else Stdlib.max (t.base + len) (i + 1) in
    let lo = lo - (lo mod octave) in
    let hi = hi + ((octave - (hi mod octave)) mod octave) in
    let counts = Array.make (hi - lo) 0 in
    if len > 0 then Array.blit t.counts 0 counts (t.base - lo) len;
    t.counts <- counts;
    t.base <- lo

  let add t x =
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    if x < t.minv then t.minv <- x;
    if x > t.maxv then t.maxv <- x;
    if x > 0. then begin
      let i = index x in
      if i < t.base || i >= t.base + Array.length t.counts then grow t i;
      let j = i - t.base in
      t.counts.(j) <- t.counts.(j) + 1
    end
    else t.zero <- t.zero + 1

  let count t = t.n
  let sum t = t.sum
  let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n
  let min t = if t.n = 0 then nan else t.minv
  let max t = if t.n = 0 then nan else t.maxv

  let edge i = Int64.float_of_bits (Int64.shift_left (Int64.of_int i) shift)
  let clamp t v = Float.min t.maxv (Float.max t.minv v)

  (* Readout of bucket [base + j]: its midpoint, at most half a bucket
     width (1/128 of the lower edge) from any value in it. *)
  let bucket_value t j =
    let i = t.base + j in
    clamp t ((edge i +. edge (i + 1)) /. 2.)

  let percentile t p =
    if t.n = 0 then nan
    else
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n /. 100.)) in
      if rank <= 1 then t.minv
      else if rank >= t.n then t.maxv
      else if rank <= t.zero then clamp t 0.
      else begin
        let j = ref 0 and seen = ref (t.zero + t.counts.(0)) in
        while !seen < rank do
          incr j;
          seen := !seen + t.counts.(!j)
        done;
        bucket_value t !j
      end

  let copy t = { t with counts = Array.copy t.counts }

  let diff later earlier =
    let len = Array.length earlier.counts in
    if
      earlier.n > later.n
      || len > 0
         && (earlier.base < later.base
            || earlier.base + len > later.base + Array.length later.counts)
    then invalid_arg "Log_histogram.diff: not an earlier reading";
    let counts = Array.copy later.counts in
    Array.iteri
      (fun k c ->
        let j = earlier.base - later.base + k in
        counts.(j) <- counts.(j) - c)
      earlier.counts;
    let zero = later.zero - earlier.zero in
    let first = ref (-1) and last = ref (-1) in
    Array.iteri
      (fun j c ->
        if c > 0 then begin
          if !first < 0 then first := j;
          last := j
        end)
      counts;
    (* The window's exact min and max are unknown; its extreme buckets'
       readouts (clamped to the later run-to-date range) stand in. *)
    let zero_value = clamp later 0. in
    {
      counts;
      base = later.base;
      zero;
      n = later.n - earlier.n;
      sum = later.sum -. earlier.sum;
      minv =
        (if zero > 0 then zero_value
         else if !first >= 0 then bucket_value later !first
         else infinity);
      maxv =
        (if !last >= 0 then bucket_value later !last
         else if zero > 0 then zero_value
         else neg_infinity);
    }
end
