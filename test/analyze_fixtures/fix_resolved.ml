(* Fixture: constructs only resolved paths reveal — an [open]ed Unix
   clock, a consing fold through a module alias of Hashtbl, and one on
   a Hashtbl.Make instance.  All three are flagged. *)

open Unix

let stamp () = gettimeofday ()

module T = Hashtbl

let keys tbl = T.fold (fun k _ acc -> k :: acc) tbl []

module Int_tbl = Hashtbl.Make (Int)

let int_keys tbl = Int_tbl.fold (fun k _ acc -> k :: acc) tbl []
