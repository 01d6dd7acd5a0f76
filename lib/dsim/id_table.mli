(** Hash tables keyed by dense non-negative ints — interned user ids,
    node ids, message ids and packed [id * n + node] pairs.

    The stdlib {!Hashtbl.S} interface, instantiated with
    [Int.equal] and the key itself (masked to [max_int]) as its hash,
    so lookups never call the generic [caml_hash] or polymorphic
    compare.  Iteration order is the bucket order of that hash, not
    insertion order: a [fold]/[iter] whose result escapes must sort
    it, as with any {!Hashtbl}. *)

include Hashtbl.S with type key = int
