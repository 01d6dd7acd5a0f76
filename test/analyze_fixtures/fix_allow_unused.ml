(* Fixture: unused-suppression — an audited allow that silences no
   finding is itself reported, and no allow can excuse that. *)

(* lint: allow wall-clock — nothing below reads the clock any more *)
let quiet = ()

(* lint: allow unused-suppression — not a rule an allow may name *)
let still_quiet = quiet

(* lint: allow wall-clock — this one is used *)
let elapsed () = Sys.time ()
