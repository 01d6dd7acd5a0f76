(* Fixture: R1 pass across units — the same fold over Fix_table, but
   the binding sorts the result before it escapes. *)

let keys tbl = Fix_table.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare

(* An aggregating fold is order-safe. *)
let total tbl = Fix_table.fold (fun _ v acc -> acc + v) tbl 0
