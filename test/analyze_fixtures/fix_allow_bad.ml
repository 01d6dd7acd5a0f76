(* Fixture: bad-suppression — a reason-less allow and an unknown rule
   are themselves findings. *)

(* lint: allow wall-clock *)
let elapsed () = Sys.time ()

(* lint: allow warp-core — not a rule of this gate *)
let nothing = ()
