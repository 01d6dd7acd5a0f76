type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }
let copy g = { state = g.state }

(* splitmix64 finaliser: state advances by the golden-ratio gamma, and
   the output is a strongly-mixed function of the new state. *)
let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g =
  let seed = bits64 g in
  { state = seed }

let float g bound =
  if not (Float.is_finite bound) || bound <= 0. then
    invalid_arg "Rng.float: bound must be positive and finite";
  (* 53 random mantissa bits scaled into [0, 1). *)
  let mant = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  mant /. 9007199254740992. *. bound

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (bits64 g) mask) in
    (* Reject the biased tail so every residue is equally likely. *)
    let limit = max_int - (max_int mod bound) in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let bool g = Int64.logand (bits64 g) 1L = 1L

let bernoulli g p =
  if p <= 0. then false else if p >= 1. then true else float g 1.0 < p

let uniform g lo hi =
  if hi <= lo then invalid_arg "Rng.uniform: empty interval";
  lo +. float g (hi -. lo)

let exponential g rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. float g 1.0 in
  -.log u /. rate

(* Rejection-inversion sampling for the Zipf distribution, after
   Hörmann & Derflinger (1996).  Constant expected time per draw. *)
let zipf g ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if n = 1 then 1
  else begin
    let h x = if s = 1.0 then log x else (x ** (1.0 -. s)) /. (1.0 -. s) in
    let h_inv y =
      if s = 1.0 then exp y else ((1.0 -. s) *. y) ** (1.0 /. (1.0 -. s))
    in
    let h_x1 = h 1.5 -. 1.0 in
    let h_n = h (float_of_int n +. 0.5) in
    let rec draw () =
      let u = h_x1 +. (float g 1.0 *. (h_n -. h_x1)) in
      let x = h_inv u in
      let k = Float.round x in
      let k = if k < 1.0 then 1.0 else if k > float_of_int n then float_of_int n else k in
      if u >= h (k +. 0.5) -. (k ** -.s) then int_of_float k else draw ()
    in
    draw ()
  end

let choice g arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int g (Array.length arr))

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
