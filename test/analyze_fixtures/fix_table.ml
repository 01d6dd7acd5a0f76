(* Fixture: a unit that is itself a Hashtbl.Make instance, behind an
   interface — the shape of Dsim.Id_table.  Folding over it from
   another unit is R1's cross-unit case (fix_table_bad, fix_table_ok). *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
