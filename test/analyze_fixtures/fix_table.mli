(** Fixture: an int-keyed Hashtbl instance exported from its own unit. *)

include Hashtbl.S with type key = int
