(* The stdlib hash table over the simulation's dense int keys.  Keys
   are already well spread (interned user ids, node ids, message ids
   and packed [id * n + node] pairs), so the hash is the key itself:
   a bucket lookup is one [land] and one [mod] instead of a C
   [caml_hash] call plus polymorphic compare per probe. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
