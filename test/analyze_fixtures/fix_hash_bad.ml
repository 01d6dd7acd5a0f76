(* Fixture: R2 poly-compare — Hashtbl.hash is flagged by name.  Bare
   [compare] is A4's job: at [int] it is safe, so the sort below must
   NOT be flagged. *)

let sorted (xs : int list) = List.sort compare xs

let bucket x = Hashtbl.hash x mod 16
