(* Tests for Message, Mailbox and Server. *)

let nm u = Naming.Name.make ~region:"east" ~host:"h1" ~user:u

(* bob interns to uid 1, carol to uid 2 in these storage tests. *)
let msg ?(id = 0) ?(at = 0.) () =
  Mail.Message.create ~id ~sender:(nm "alice") ~recipient:(nm "bob") ~recipient_uid:1
    ~subject:"s" ~body:"hello" ~submitted_at:at ()

(* --- message lifecycle --- *)

let test_message_lifecycle () =
  let m = msg ~at:1. () in
  Alcotest.(check bool) "not deposited" false (Mail.Message.is_deposited m);
  Mail.Message.mark_deposited m ~at:3. ~on:9;
  Alcotest.(check bool) "deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check (option (float 1e-9))) "delivery latency" (Some 2.)
    (Mail.Message.delivery_latency m);
  (* second deposit is ignored *)
  Mail.Message.mark_deposited m ~at:99. ~on:1;
  Alcotest.(check (option (float 1e-9))) "first deposit wins" (Some 2.)
    (Mail.Message.delivery_latency m);
  Alcotest.(check bool) "kept server" true (m.Mail.Message.deposited_on = Some 9);
  Mail.Message.mark_retrieved m ~at:6.;
  Alcotest.(check (option (float 1e-9))) "e2e latency" (Some 5.)
    (Mail.Message.end_to_end_latency m)

let test_message_pp () =
  let s = Format.asprintf "%a" Mail.Message.pp (msg ()) in
  Alcotest.(check bool) "prints" true (String.length s > 10)

(* --- mailbox --- *)

let test_mailbox_deposit_retrieve () =
  let mb = Mail.Mailbox.create (nm "bob") in
  Mail.Mailbox.deposit mb (msg ~id:1 ());
  Mail.Mailbox.deposit mb (msg ~id:2 ());
  Alcotest.(check int) "pending" 2 (Mail.Mailbox.pending mb);
  let got = Mail.Mailbox.retrieve_all mb in
  Alcotest.(check (list int)) "deposit order" [ 1; 2 ]
    (List.map (fun m -> m.Mail.Message.id) got);
  Alcotest.(check int) "drained" 0 (Mail.Mailbox.pending mb);
  Alcotest.(check int) "no archive by default" 0 (Mail.Mailbox.archived mb)

let test_mailbox_peek () =
  let mb = Mail.Mailbox.create (nm "bob") in
  Mail.Mailbox.deposit mb (msg ~id:1 ());
  Alcotest.(check int) "peek leaves" 1 (List.length (Mail.Mailbox.peek mb));
  Alcotest.(check int) "still pending" 1 (Mail.Mailbox.pending mb)

let test_mailbox_archive_policy () =
  let mb = Mail.Mailbox.create ~policy:Mail.Mailbox.Archive (nm "bob") in
  let m = msg ~id:1 () in
  Mail.Message.mark_deposited m ~at:10. ~on:0;
  Mail.Mailbox.deposit mb m;
  ignore (Mail.Mailbox.retrieve_all mb);
  Alcotest.(check int) "archived copy kept" 1 (Mail.Mailbox.archived mb);
  (* clean-up drops old copies *)
  let dropped = Mail.Mailbox.cleanup mb ~now:100. ~max_age:50. in
  Alcotest.(check int) "dropped" 1 dropped;
  Alcotest.(check int) "archive empty" 0 (Mail.Mailbox.archived mb)

let test_mailbox_cleanup_keeps_fresh () =
  let mb = Mail.Mailbox.create ~policy:Mail.Mailbox.Archive (nm "bob") in
  let m = msg ~id:1 () in
  Mail.Message.mark_deposited m ~at:90. ~on:0;
  Mail.Mailbox.deposit mb m;
  ignore (Mail.Mailbox.retrieve_all mb);
  Alcotest.(check int) "kept" 0 (Mail.Mailbox.cleanup mb ~now:100. ~max_age:50.);
  Alcotest.(check int) "still archived" 1 (Mail.Mailbox.archived mb)

let test_mailbox_storage () =
  let mb = Mail.Mailbox.create (nm "bob") in
  Alcotest.(check int) "empty" 0 (Mail.Mailbox.storage_bytes mb);
  Mail.Mailbox.deposit mb (msg ());
  Alcotest.(check bool) "positive" true (Mail.Mailbox.storage_bytes mb > 0)

(* --- server --- *)

let test_server_store_take () =
  let srv = Mail.Server.create ~node:3 ~region:"east" () in
  let m = msg ~id:5 ~at:1. () in
  Mail.Server.store srv m ~at:2.;
  Alcotest.(check bool) "marked deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check bool) "on this server" true (m.Mail.Message.deposited_on = Some 3);
  Alcotest.(check int) "pending for bob" 1 (Mail.Server.pending_for srv ~uid:1);
  Alcotest.(check int) "total pending" 1 (Mail.Server.total_pending srv);
  let got = Mail.Server.take srv ~uid:1 ~at:4. in
  Alcotest.(check int) "fetched" 1 (List.length got);
  Alcotest.(check bool) "marked retrieved" true (Mail.Message.is_retrieved m);
  Alcotest.(check (list int)) "refetch empty" []
    (List.map (fun m -> m.Mail.Message.id) (Mail.Server.take srv ~uid:1 ~at:5.));
  Alcotest.(check int) "stores counted" 1 (Mail.Server.stores srv)

let test_server_purge () =
  let srv = Mail.Server.create ~node:3 ~region:"east" () in
  Mail.Server.store srv (msg ~id:7 ()) ~at:0.;
  Mail.Server.store srv (msg ~id:8 ()) ~at:0.;
  Alcotest.(check int) "purged one copy" 1 (Mail.Server.purge srv ~uid:1 7);
  Alcotest.(check int) "one left" 1 (Mail.Server.pending_for srv ~uid:1);
  Alcotest.(check int) "absent id is a no-op" 0 (Mail.Server.purge srv ~uid:1 7);
  Alcotest.(check int) "unknown user is a no-op" 0 (Mail.Server.purge srv ~uid:99 8);
  let got = Mail.Server.take srv ~uid:1 ~at:1. in
  Alcotest.(check (list int)) "purged copy never served" [ 8 ]
    (List.map (fun m -> m.Mail.Message.id) got)

let test_server_unknown_user_fetch () =
  let srv = Mail.Server.create ~node:3 ~region:"east" () in
  Alcotest.(check int) "empty" 0 (List.length (Mail.Server.take srv ~uid:99 ~at:0.))

let test_server_last_start () =
  let srv = Mail.Server.create ~node:3 ~region:"east" () in
  (* Up since before any user registered: stable from the first check. *)
  Alcotest.(check bool) "initial" true (Mail.Server.last_start srv = neg_infinity);
  Mail.Server.note_recovery srv ~at:42.;
  Alcotest.(check (float 1e-9)) "after recovery" 42. (Mail.Server.last_start srv)

let test_server_mailbox_count_and_cleanup () =
  let srv = Mail.Server.create ~mailbox_policy:Mail.Mailbox.Archive ~node:1 ~region:"r" () in
  Mail.Server.store srv (msg ~id:1 ()) ~at:0.;
  let m2 =
    Mail.Message.create ~id:2 ~sender:(nm "bob") ~recipient:(nm "carol")
      ~recipient_uid:2 ~submitted_at:0. ()
  in
  Mail.Server.store srv m2 ~at:0.;
  Alcotest.(check int) "two mailboxes" 2 (Mail.Server.mailbox_count srv);
  ignore (Mail.Server.take srv ~uid:1 ~at:1.);
  ignore (Mail.Server.take srv ~uid:2 ~at:1.);
  let dropped = Mail.Server.cleanup srv ~now:1000. ~max_age:10. in
  Alcotest.(check int) "archives cleaned" 2 dropped

(* A Delete_on_retrieve holder keeps mailboxes only for users with
   pending mail: one drained by [take] or emptied by [purge] leaves the
   table, and the next [store] creates it again with the totals right.
   A mailbox [purge] leaves mail in stays. *)
let test_server_releases_empty_mailboxes () =
  let srv = Mail.Server.create ~node:1 ~region:"r" () in
  let carol id =
    Mail.Message.create ~id ~sender:(nm "bob") ~recipient:(nm "carol") ~recipient_uid:2
      ~subject:"s" ~body:"hello" ~submitted_at:0. ()
  in
  Mail.Server.store srv (msg ~id:1 ()) ~at:0.;
  Mail.Server.store srv (carol 2) ~at:0.;
  Mail.Server.store srv (carol 3) ~at:0.;
  Alcotest.(check int) "two mailboxes" 2 (Mail.Server.mailbox_count srv);
  Alcotest.(check int) "taken" 1 (List.length (Mail.Server.take srv ~uid:1 ~at:1.));
  Alcotest.(check int) "drained mailbox dropped" 1 (Mail.Server.mailbox_count srv);
  Alcotest.(check int) "purged one of two" 1 (Mail.Server.purge srv ~uid:2 2);
  Alcotest.(check int) "mailbox with mail kept" 1 (Mail.Server.mailbox_count srv);
  Alcotest.(check int) "purged the last" 1 (Mail.Server.purge srv ~uid:2 3);
  Alcotest.(check int) "purged-empty mailbox dropped" 0 (Mail.Server.mailbox_count srv);
  Alcotest.(check int) "nothing pending" 0 (Mail.Server.total_pending srv);
  Alcotest.(check int) "no bytes held" 0 (Mail.Server.storage_bytes srv);
  Alcotest.(check int) "purge after release" 0 (Mail.Server.purge srv ~uid:2 3);
  Alcotest.(check (list int)) "take after release" []
    (List.map (fun m -> m.Mail.Message.id) (Mail.Server.take srv ~uid:1 ~at:2.));
  Mail.Server.store srv (msg ~id:4 ()) ~at:3.;
  Mail.Server.store srv (msg ~id:5 ()) ~at:3.;
  let one = Mail.Mailbox.create (nm "bob") in
  Mail.Mailbox.deposit one (msg ~id:4 ());
  Alcotest.(check int) "recreated" 1 (Mail.Server.mailbox_count srv);
  Alcotest.(check int) "pending after recreate" 2 (Mail.Server.total_pending srv);
  Alcotest.(check int) "pending for bob" 2 (Mail.Server.pending_for srv ~uid:1);
  Alcotest.(check int) "bytes after recreate" (2 * Mail.Mailbox.storage_bytes one)
    (Mail.Server.storage_bytes srv);
  Alcotest.(check (list int)) "served in deposit order" [ 4; 5 ]
    (List.map (fun m -> m.Mail.Message.id) (Mail.Server.take srv ~uid:1 ~at:4.));
  Alcotest.(check int) "stores counted" 5 (Mail.Server.stores srv)

(* Archive mailboxes keep their retained copies, so they stay. *)
let test_server_keeps_archive_mailboxes () =
  let srv = Mail.Server.create ~mailbox_policy:Mail.Mailbox.Archive ~node:1 ~region:"r" () in
  Mail.Server.store srv (msg ~id:1 ()) ~at:0.;
  Mail.Server.store srv (msg ~id:2 ()) ~at:0.;
  Alcotest.(check int) "purged" 1 (Mail.Server.purge srv ~uid:1 2);
  Alcotest.(check int) "taken" 1 (List.length (Mail.Server.take srv ~uid:1 ~at:1.));
  Alcotest.(check int) "archive mailbox stays" 1 (Mail.Server.mailbox_count srv);
  Alcotest.(check int) "nothing pending" 0 (Mail.Server.total_pending srv);
  Alcotest.(check bool) "archived bytes held" true (Mail.Server.storage_bytes srv > 0);
  Mail.Server.store srv (msg ~id:3 ()) ~at:2.;
  Alcotest.(check int) "same mailbox" 1 (Mail.Server.mailbox_count srv);
  Alcotest.(check int) "pending again" 1 (Mail.Server.pending_for srv ~uid:1)

(* Holders sit in an array indexed by node id: every node outside it,
   below it or in a gap raises the same error as before. *)
let test_holder_lookup () =
  let storage =
    Mail.Replica_group.create ~counters:(Dsim.Stats.Counter.create ())
      ~chain_of:(fun _ -> [])
      ~is_up:(fun _ -> true)
      ()
  in
  Mail.Replica_group.add_holder storage ~node:3 ~region:"east";
  Mail.Replica_group.add_holder storage ~node:7 ~region:"west";
  Alcotest.(check (list int)) "nodes sorted" [ 3; 7 ] (Mail.Replica_group.nodes storage);
  Alcotest.(check string) "holder 7" "west"
    (Mail.Server.region (Mail.Replica_group.holder storage 7));
  Alcotest.(check int) "holder 3 is node 3" 3
    (Mail.Server.node (Mail.Replica_group.holder storage 3));
  List.iter
    (fun node ->
      Alcotest.(check bool) (Printf.sprintf "mem_holder %d" node) false
        (Mail.Replica_group.mem_holder storage node);
      Alcotest.check_raises
        (Printf.sprintf "holder %d" node)
        (Invalid_argument
           (Printf.sprintf "Replica_group: node %d is not a mailbox holder" node))
        (fun () -> ignore (Mail.Replica_group.holder storage node)))
    [ -1; min_int; 0; 5; 8; 1_000_000 ];
  Alcotest.check_raises "duplicate holder"
    (Invalid_argument "Replica_group.add_holder: node 3 already added")
    (fun () -> Mail.Replica_group.add_holder storage ~node:3 ~region:"east")

let suite =
  [
    ( "mailstore",
      [
        Alcotest.test_case "message lifecycle" `Quick test_message_lifecycle;
        Alcotest.test_case "message pp" `Quick test_message_pp;
        Alcotest.test_case "mailbox deposit/retrieve" `Quick
          test_mailbox_deposit_retrieve;
        Alcotest.test_case "mailbox peek" `Quick test_mailbox_peek;
        Alcotest.test_case "archive policy" `Quick test_mailbox_archive_policy;
        Alcotest.test_case "cleanup keeps fresh" `Quick test_mailbox_cleanup_keeps_fresh;
        Alcotest.test_case "storage accounting" `Quick test_mailbox_storage;
        Alcotest.test_case "server store/take" `Quick test_server_store_take;
        Alcotest.test_case "server purge" `Quick test_server_purge;
        Alcotest.test_case "server unknown user" `Quick test_server_unknown_user_fetch;
        Alcotest.test_case "LastStartTime" `Quick test_server_last_start;
        Alcotest.test_case "mailboxes and cleanup" `Quick
          test_server_mailbox_count_and_cleanup;
        Alcotest.test_case "holder lookup by node id" `Quick test_holder_lookup;
        Alcotest.test_case "emptied mailboxes released" `Quick
          test_server_releases_empty_mailboxes;
        Alcotest.test_case "archive mailboxes kept" `Quick
          test_server_keeps_archive_mailboxes;
      ] );
  ]
