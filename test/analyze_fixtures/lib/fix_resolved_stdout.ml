(* lint: allow missing-mli — fixture file; R4 is what is under test *)
(* Fixture: R4 through a qualified path — [Stdlib.print_endline] in
   library code is the same ambient channel as [print_endline]. *)

let shout () = Stdlib.print_endline "loud"
