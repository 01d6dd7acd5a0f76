(* Order statistics shared by the harness and [compare]. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so the spreads this harness
   reports are the ones a reader recomputes from the raw runs. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((s.(j - 1) *. (4. -. delta)) +. (s.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* Nearest-rank percentile of an already sorted array: the smallest
   sample with at least [p] of the samples at or below it. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    (* The epsilon keeps 0.999 * 20000 from rounding up past its rank. *)
    let rank = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
    s.(max 0 (min (n - 1) (rank - 1)))
