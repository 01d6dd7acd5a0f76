type policy = Delete_on_retrieve | Archive

type t = {
  owner : Naming.Name.t;
  policy : policy;
  mutable pending : Message.t list;  (* newest first *)
  mutable archived : Message.t list;
  (* Running tallies so per-window storage sampling is O(1) per
     mailbox instead of walking both lists. *)
  mutable npending : int;
  mutable bytes : int;  (* pending + archived *)
}

let create ?(policy = Delete_on_retrieve) owner =
  { owner; policy; pending = []; archived = []; npending = 0; bytes = 0 }

let owner t = t.owner
let policy t = t.policy

let size (m : Message.t) =
  String.length m.Message.body + String.length m.Message.subject + 64

let deposit t msg =
  t.pending <- msg :: t.pending;
  t.npending <- t.npending + 1;
  t.bytes <- t.bytes + size msg

let pending t = t.npending
let archived t = List.length t.archived

let rec total_size acc = function [] -> acc | m :: rest -> total_size (acc + size m) rest

let retrieve_all t =
  let msgs = List.rev t.pending in
  t.pending <- [];
  t.npending <- 0;
  (match t.policy with
  | Archive -> t.archived <- List.rev_append msgs t.archived
  | Delete_on_retrieve -> t.bytes <- t.bytes - total_size 0 msgs);
  msgs

let peek t = List.rev t.pending

(* A pending list without its copies of message [id], which leave the
   tallies.  The common case, a single pending copy, allocates
   nothing. *)
let[@tail_mod_cons] rec without t id = function
  | [] -> []
  | (m : Message.t) :: rest when m.Message.id = id ->
      t.npending <- t.npending - 1;
      t.bytes <- t.bytes - size m;
      without t id rest
  | m :: rest -> m :: without t id rest

let remove_pending t id =
  let before = t.npending in
  t.pending <- without t id t.pending;
  before - t.npending

let cleanup t ~now ~max_age =
  let fresh, stale =
    List.partition
      (fun (m : Message.t) ->
        match m.Message.deposited_at with
        | Some d -> now -. d <= max_age
        | None -> true)
      t.archived
  in
  t.archived <- fresh;
  List.iter (fun m -> t.bytes <- t.bytes - size m) stale;
  List.length stale

let storage_bytes t = t.bytes
