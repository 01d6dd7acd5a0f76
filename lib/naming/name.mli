(** Hierarchical user names of the form ["region.host.user"] (§3.1.1).

    The region token is globally unique, the host token unique within
    its region, and the user token unique within its host.  Tokens are
    non-empty strings over [A–Z a–z 0–9 - _]; the ["."] delimiter
    separates them. *)

type t = private { region : string; host : string; user : string }

val make : region:string -> host:string -> user:string -> t
(** @raise Invalid_argument if any token is ill-formed. *)

val of_string : string -> (t, string) result
(** Parse ["region.host.user"]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse failure. *)

val to_string : t -> string

val region : t -> string
val host : t -> string
val user : t -> string

val valid_token : string -> bool

val with_host : t -> string -> t
(** [with_host n h] renames the host component — the §3.1.4 migration
    primitive for moves within a region. *)

val with_region : t -> region:string -> host:string -> t
(** Cross-region migration: both location components change. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val hash_group : groups:int -> t -> int
(** Design 2's hash sub-group (§3.2): FNV-1a over the region and
    user tokens, folded into [0] … [groups - 1].  The host is left out, so
    a user keeps its group when its primary host changes within the
    region.  @raise Invalid_argument if [groups <= 0]. *)

val pp : Format.formatter -> t -> unit

(** Syntax-directed patterns: each component may be a literal token or
    the wildcard [*].  ["cs.*.*"] matches every name in region [cs]. *)
module Pattern : sig
  type name = t
  type t

  val of_string : string -> (t, string) result
  val of_string_exn : string -> t
  val to_string : t -> string
  val matches : t -> name -> bool
end
