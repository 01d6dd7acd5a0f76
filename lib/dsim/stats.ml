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

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        minv = Float.min a.minv b.minv;
        maxv = Float.max a.maxv b.maxv;
        total = a.total +. b.total;
      }
    end

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

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    width : float;
    counts : int array;
    mutable under : int;
    mutable over : int;
    mutable n : int;
  }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
    if hi <= lo then invalid_arg "Histogram.create: empty range";
    {
      lo;
      hi;
      width = (hi -. lo) /. float_of_int buckets;
      counts = Array.make buckets 0;
      under = 0;
      over = 0;
      n = 0;
    }

  let add t x =
    t.n <- t.n + 1;
    if x < t.lo then t.under <- t.under + 1
    else if x >= t.hi then t.over <- t.over + 1
    else begin
      let i = int_of_float ((x -. t.lo) /. t.width) in
      let i = Stdlib.min i (Array.length t.counts - 1) in
      t.counts.(i) <- t.counts.(i) + 1
    end

  let count t = t.n
  let underflow t = t.under
  let overflow t = t.over

  let bucket_counts t =
    Array.mapi
      (fun i c ->
        let lo = t.lo +. (float_of_int i *. t.width) in
        (lo, lo +. t.width, c))
      t.counts

  let merge a b =
    if
      a.lo <> b.lo || a.hi <> b.hi
      || Array.length a.counts <> Array.length b.counts
    then invalid_arg "Histogram.merge: incompatible bucket layouts";
    {
      lo = a.lo;
      hi = a.hi;
      width = a.width;
      counts = Array.map2 ( + ) a.counts b.counts;
      under = a.under + b.under;
      over = a.over + b.over;
      n = a.n + b.n;
    }

  let pp ppf t =
    Array.iter
      (fun (lo, hi, c) -> Format.fprintf ppf "[%.3g,%.3g) %d@ " lo hi c)
      (bucket_counts t)
end

module Reservoir = struct
  type t = {
    sample : float array;
    mutable filled : int;
    mutable seen : int;
    rng : Rng.t;
    mutable sorted : (int * float array) option;
        (* sorted copy of the retained sample, keyed by the [seen]
           count it was computed at — percentile readouts happen in
           bursts (p50/p90/p99 per metric sampling window), so one
           sort serves them all until the next observation. *)
  }

  let create ?(capacity = 4096) rng =
    if capacity <= 0 then invalid_arg "Reservoir.create: capacity must be positive";
    { sample = Array.make capacity 0.; filled = 0; seen = 0; rng; sorted = None }

  let add t x =
    t.seen <- t.seen + 1;
    if t.filled < Array.length t.sample then begin
      t.sample.(t.filled) <- x;
      t.filled <- t.filled + 1
    end
    else begin
      let j = Rng.int t.rng t.seen in
      if j < Array.length t.sample then t.sample.(j) <- x
    end

  let count t = t.seen

  let values t = Array.sub t.sample 0 t.filled

  (* In-place sort specialised to flat float arrays: monomorphic
     accesses keep the floats unboxed, where [Array.sort] with a
     comparator closure boxes two floats per comparison — this runs
     once per metric sampling window on up to [capacity] samples.
     Latencies are finite, so plain [<] ordering is total here. *)
  let sort_floats (a : float array) =
    let swap i j =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    let rec quick lo hi =
      if hi - lo < 16 then
        for i = lo + 1 to hi do
          let x = a.(i) in
          let j = ref (i - 1) in
          while !j >= lo && a.(!j) > x do
            a.(!j + 1) <- a.(!j);
            decr j
          done;
          a.(!j + 1) <- x
        done
      else begin
        let mid = lo + ((hi - lo) / 2) in
        (* median-of-three pivot, moved to [hi] *)
        if a.(mid) < a.(lo) then swap mid lo;
        if a.(hi) < a.(lo) then swap hi lo;
        if a.(hi) < a.(mid) then swap hi mid;
        swap mid hi;
        let pivot = a.(hi) in
        let store = ref lo in
        for i = lo to hi - 1 do
          if a.(i) < pivot then begin
            swap i !store;
            incr store
          end
        done;
        swap !store hi;
        quick lo (!store - 1);
        quick (!store + 1) hi
      end
    in
    if Array.length a > 1 then quick 0 (Array.length a - 1)

  let sorted_values t =
    match t.sorted with
    | Some (seen, data) when seen = t.seen -> data
    | _ ->
        let data = Array.sub t.sample 0 t.filled in
        sort_floats data;
        t.sorted <- Some (t.seen, data);
        data

  let percentile t p =
    if t.filled = 0 then nan
    else begin
      let data = sorted_values t in
      let p = Float.max 0. (Float.min 100. p) in
      let rank = p /. 100. *. float_of_int (t.filled - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then data.(lo)
      else
        let frac = rank -. float_of_int lo in
        ((1. -. frac) *. data.(lo)) +. (frac *. data.(hi))
    end

  let median t = percentile t 50.
end
