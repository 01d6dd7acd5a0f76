(* Fixture: bad-suppression in a file with no other finding — the
   reason-less allow below covers nothing and is itself reported. *)

(* lint: allow stdout *)
let quiet = ()
