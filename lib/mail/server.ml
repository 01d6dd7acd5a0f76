type t = {
  node : Netsim.Graph.node;
  region : string;
  mailbox_policy : Mailbox.policy;
  mutable last_start : float;
  mailboxes : Mailbox.t Dsim.Id_table.t;  (* keyed by interned user id *)
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
    last_start = 0.;
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

(* Run one mailbox mutation, folding its effect into the holder-wide
   running totals. *)
let tracked t mb f =
  let b0 = Mailbox.storage_bytes mb and p0 = Mailbox.pending mb in
  let r = f () in
  t.bytes_total <- t.bytes_total + Mailbox.storage_bytes mb - b0;
  t.pending_total <- t.pending_total + Mailbox.pending mb - p0;
  r

let store t msg ~at =
  let mb = mailbox t ~uid:msg.Message.recipient_uid msg.Message.recipient in
  tracked t mb (fun () -> Mailbox.deposit mb msg);
  t.stores <- t.stores + 1;
  Message.mark_deposited msg ~at ~on:t.node

(* The GetMail poll.  Most polls find an empty mailbox: that path
   touches no totals and allocates nothing (no option, no closure). *)
let take t ~uid ~at =
  match Dsim.Id_table.find t.mailboxes uid with
  | exception Not_found -> []
  | mb when Mailbox.pending mb = 0 -> []
  | mb ->
      let msgs = tracked t mb (fun () -> Mailbox.retrieve_all mb) in
      List.iter (fun m -> Message.mark_retrieved m ~at) msgs;
      msgs

let purge t ~uid id =
  match Dsim.Id_table.find_opt t.mailboxes uid with
  | None -> 0
  | Some mb -> tracked t mb (fun () -> Mailbox.remove_pending mb id)

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
    (fun _ mb acc -> acc + tracked t mb (fun () -> Mailbox.cleanup mb ~now ~max_age))
    t.mailboxes 0
