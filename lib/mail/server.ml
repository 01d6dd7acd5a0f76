type t = {
  node : Netsim.Graph.node;
  region : string;
  mailbox_policy : Mailbox.policy;
  mutable last_start : float;
  mailboxes : Mailbox.t Dsim.Id_table.t;
      (* keyed by interned user id; under [Delete_on_retrieve] only the
         users with pending mail *)
  mutable stores : int;
  (* Running holder-wide totals, kept in step around every mailbox
     mutation so per-window sampling never walks the mailbox table. *)
  mutable pending_total : int;
  mutable bytes_total : int;
}

let create ?(mailbox_policy = Mailbox.Delete_on_retrieve) ~node ~region () =
  {
    node;
    region;
    mailbox_policy;
    last_start = neg_infinity;
    mailboxes = Dsim.Id_table.create 16;
    stores = 0;
    pending_total = 0;
    bytes_total = 0;
  }

let node t = t.node
let region t = t.region
let last_start t = t.last_start
let note_recovery t ~at = t.last_start <- at

let mailbox t ~uid name =
  match Dsim.Id_table.find_opt t.mailboxes uid with
  | Some mb -> mb
  | None ->
      let mb = Mailbox.create ~policy:t.mailbox_policy name in
      Dsim.Id_table.add t.mailboxes uid mb;
      mb

(* Fold one mailbox mutation into the holder-wide running totals,
   given the mailbox's bytes and pending count from before it.  (Two
   ints rather than a closure around the mutation: this runs on every
   store, take and purge.) *)
let account t mb ~bytes ~pending =
  t.bytes_total <- t.bytes_total + Mailbox.storage_bytes mb - bytes;
  t.pending_total <- t.pending_total + Mailbox.pending mb - pending

(* A [Delete_on_retrieve] mailbox that [take] or [purge] empties holds
   nothing, so it leaves the table; the next [store] creates it again.
   [Archive] mailboxes stay, keeping their retained copies. *)
let release t ~uid mb =
  match t.mailbox_policy with
  | Delete_on_retrieve -> if Mailbox.pending mb = 0 then Dsim.Id_table.remove t.mailboxes uid
  | Archive -> ()

let store t msg ~at =
  let mb = mailbox t ~uid:msg.Message.recipient_uid msg.Message.recipient in
  let bytes = Mailbox.storage_bytes mb and pending = Mailbox.pending mb in
  Mailbox.deposit mb msg;
  account t mb ~bytes ~pending;
  t.stores <- t.stores + 1;
  Message.mark_deposited msg ~at ~on:t.node

let rec mark_retrieved ~at = function
  | [] -> ()
  | m :: rest ->
      Message.mark_retrieved m ~at;
      mark_retrieved ~at rest

(* The GetMail poll.  Most polls find an empty mailbox: that path
   touches no totals and allocates nothing (no option, no closure). *)
let take t ~uid ~at =
  match Dsim.Id_table.find t.mailboxes uid with
  | exception Not_found -> []
  | mb when Mailbox.pending mb = 0 -> []
  | mb ->
      let bytes = Mailbox.storage_bytes mb and pending = Mailbox.pending mb in
      let msgs = Mailbox.retrieve_all mb in
      account t mb ~bytes ~pending;
      release t ~uid mb;
      mark_retrieved ~at msgs;
      msgs

let purge t ~uid id =
  match Dsim.Id_table.find t.mailboxes uid with
  | exception Not_found -> 0
  | mb ->
      let bytes = Mailbox.storage_bytes mb and pending = Mailbox.pending mb in
      let dropped = Mailbox.remove_pending mb id in
      account t mb ~bytes ~pending;
      release t ~uid mb;
      dropped

let pending_for t ~uid =
  match Dsim.Id_table.find_opt t.mailboxes uid with
  | Some mb -> Mailbox.pending mb
  | None -> 0

let total_pending t = t.pending_total

let mailbox_count t = Dsim.Id_table.length t.mailboxes

let stores t = t.stores

let storage_bytes t = t.bytes_total

let cleanup t ~now ~max_age =
  Dsim.Id_table.fold
    (fun _ mb acc ->
      let bytes = Mailbox.storage_bytes mb and pending = Mailbox.pending mb in
      let dropped = Mailbox.cleanup mb ~now ~max_age in
      account t mb ~bytes ~pending;
      acc + dropped)
    t.mailboxes 0
