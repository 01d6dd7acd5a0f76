(* Fixture: R1 unsorted-fold across units — the fold runs over a
   Hashtbl.Make instance another unit exports (Fix_table), conses, and
   the binding never sorts. *)
let keys tbl = Fix_table.fold (fun k _ acc -> k :: acc) tbl []
