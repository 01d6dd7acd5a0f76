(* The delivery-invariant checker of §3.1.2c.

   Every message id gets one entry recording its lifecycle
   transitions: submitted into the pipeline, deposited into mailboxes
   (one count per distinct server copy), fetched out of a mailbox
   (pre-dedup — every copy a GetMail round drains), retrieved into the
   recipient's inbox (post-dedup), or declared undeliverable.  At end
   of run [check] proves the paper's claim: every submitted message is
   retrieved exactly once or explicitly bounced with a reason — never
   silently dropped, never duplicated into an inbox. *)

type state = {
  mutable submits : int;
  mutable submitted_at : float;
  mutable copies_deposited : int;
  mutable copies_fetched : int;
  mutable copies_purged : int;
  mutable retrievals : int;
  mutable first_retrieved_at : float;  (* nan until retrieved *)
  mutable undeliverable : string option;
  mutable quorum_acks : int;
  mutable degraded_acks : int;
}

type t = { entries : state Dsim.Id_table.t }  (* keyed by message id *)

let create () = { entries = Dsim.Id_table.create 256 }

let entry t id =
  match Dsim.Id_table.find_opt t.entries id with
  | Some st -> st
  | None ->
      let st =
        {
          submits = 0;
          submitted_at = nan;
          copies_deposited = 0;
          copies_fetched = 0;
          copies_purged = 0;
          retrievals = 0;
          first_retrieved_at = nan;
          undeliverable = None;
          quorum_acks = 0;
          degraded_acks = 0;
        }
      in
      Dsim.Id_table.replace t.entries id st;
      st

let record_submit t (m : Message.t) ~at =
  let st = entry t m.Message.id in
  if st.submits = 0 then st.submitted_at <- at;
  st.submits <- st.submits + 1

let record_deposit t (m : Message.t) ~at:_ =
  let st = entry t m.Message.id in
  st.copies_deposited <- st.copies_deposited + 1

let record_fetch t (m : Message.t) ~at:_ =
  let st = entry t m.Message.id in
  st.copies_fetched <- st.copies_fetched + 1

let record_purge t id ~at:_ =
  let st = entry t id in
  st.copies_purged <- st.copies_purged + 1

let record_ack t (m : Message.t) ~degraded ~at:_ =
  let st = entry t m.Message.id in
  if degraded then st.degraded_acks <- st.degraded_acks + 1
  else st.quorum_acks <- st.quorum_acks + 1

let record_retrieve t (m : Message.t) ~at =
  let st = entry t m.Message.id in
  if st.retrievals = 0 then st.first_retrieved_at <- at;
  st.retrievals <- st.retrievals + 1

let record_undeliverable t (m : Message.t) ~reason ~at:_ =
  let st = entry t m.Message.id in
  if st.undeliverable = None then st.undeliverable <- Some reason

let size t = Dsim.Id_table.length t.entries

(* An id is settled when its outcome is final *and* no mailbox still
   holds an unfetched copy that could resurface it later: pruning
   dedup state for such an id can no longer create a duplicate. *)
let settled t id =
  match Dsim.Id_table.find_opt t.entries id with
  | None -> true
  | Some st ->
      st.copies_fetched + st.copies_purged >= st.copies_deposited
      && (st.retrievals > 0 || st.undeliverable <> None)

type violation_kind = Lost | Duplicate

type violation = { id : Message.id; kind : violation_kind; detail : string }

type verdict = {
  submitted : int;
  delivered : int;
  undeliverable : int;
  lost : int;
  duplicates : int;
  spurious_bounces : int;
  in_mailbox : int;
  purged : int;
  quorum_acks : int;
  degraded_acks : int;
  ok : bool;
  violations : violation list;
}

let check t =
  let submitted = ref 0
  and delivered = ref 0
  and undeliv = ref 0
  and lost = ref 0
  and dups = ref 0
  and spurious = ref 0
  and in_mailbox = ref 0
  and purged = ref 0
  and quorum_acks = ref 0
  and degraded_acks = ref 0
  and violations = ref [] in
  Dsim.Id_table.iter
    (fun id st ->
      if st.submits > 0 then incr submitted;
      purged := !purged + st.copies_purged;
      quorum_acks := !quorum_acks + st.quorum_acks;
      degraded_acks := !degraded_acks + st.degraded_acks;
      in_mailbox :=
        !in_mailbox
        + Int.max 0 (st.copies_deposited - st.copies_fetched - st.copies_purged);
      if st.retrievals = 1 then begin
        incr delivered;
        if st.undeliverable <> None then incr spurious
      end
      else if st.retrievals > 1 then begin
        incr dups;
        violations :=
          {
            id;
            kind = Duplicate;
            detail =
              Printf.sprintf "retrieved %d times (deposited %d, fetched %d)"
                st.retrievals st.copies_deposited st.copies_fetched;
          }
          :: !violations
      end
      else
        match st.undeliverable with
        | Some _ -> incr undeliv
        | None ->
            incr lost;
            violations :=
              {
                id;
                kind = Lost;
                detail =
                  Printf.sprintf
                    "submitted %d times, deposited %d, fetched %d, never retrieved \
                     nor declared undeliverable"
                    st.submits st.copies_deposited st.copies_fetched;
              }
              :: !violations)
    t.entries;
  let violations = List.sort (fun a b -> Int.compare a.id b.id) !violations in
  {
    submitted = !submitted;
    delivered = !delivered;
    undeliverable = !undeliv;
    lost = !lost;
    duplicates = !dups;
    spurious_bounces = !spurious;
    in_mailbox = !in_mailbox;
    purged = !purged;
    quorum_acks = !quorum_acks;
    degraded_acks = !degraded_acks;
    ok = !lost = 0 && !dups = 0;
    violations;
  }

let string_of_kind = function Lost -> "lost" | Duplicate -> "duplicate"

let verdict_to_json v =
  Telemetry.Json.Obj
    [
      ("ok", Telemetry.Json.Bool v.ok);
      ("submitted", Telemetry.Json.Int v.submitted);
      ("delivered", Telemetry.Json.Int v.delivered);
      ("undeliverable", Telemetry.Json.Int v.undeliverable);
      ("lost", Telemetry.Json.Int v.lost);
      ("duplicates", Telemetry.Json.Int v.duplicates);
      ("spurious_bounces", Telemetry.Json.Int v.spurious_bounces);
      ("in_mailbox", Telemetry.Json.Int v.in_mailbox);
      ("purged", Telemetry.Json.Int v.purged);
      ("quorum_acks", Telemetry.Json.Int v.quorum_acks);
      ("degraded_acks", Telemetry.Json.Int v.degraded_acks);
      ( "violations",
        Telemetry.Json.List
          (List.map
             (fun viol ->
               Telemetry.Json.Obj
                 [
                   ("id", Telemetry.Json.Int viol.id);
                   ("kind", Telemetry.Json.String (string_of_kind viol.kind));
                   ("detail", Telemetry.Json.String viol.detail);
                 ])
             v.violations) );
    ]

let pp_verdict ppf v =
  Format.fprintf ppf
    "%s: %d submitted, %d delivered, %d undeliverable, %d lost, %d duplicated"
    (if v.ok then "OK" else "VIOLATED")
    v.submitted v.delivered v.undeliverable v.lost v.duplicates;
  if v.spurious_bounces > 0 then
    Format.fprintf ppf " (%d spurious bounces)" v.spurious_bounces;
  List.iter
    (fun viol ->
      Format.fprintf ppf "@.  message %d %s: %s" viol.id
        (string_of_kind viol.kind) viol.detail)
    v.violations
