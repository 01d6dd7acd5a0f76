(* Fixture: R2/A4 pass — typed comparators, and a module that defines
   its own [compare] may use it bare. *)

let sorted xs = List.sort Int.compare xs

let compare (a1, b1) (a2, b2) =
  match String.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let max_pair x y = if compare x y >= 0 then x else y
