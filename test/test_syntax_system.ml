(* End-to-end tests of the design-1 system (§3.1). *)

let make () = Mail.Syntax_system.create (Netsim.Topology.paper_fig1 ())

let user sys i = List.nth (Mail.Syntax_system.users sys) i

let test_construction () =
  let sys = make () in
  Alcotest.(check int) "users" 30 (List.length (Mail.Syntax_system.users sys));
  Alcotest.(check int) "servers" 3 (List.length (Mail.Syntax_system.server_nodes sys));
  (* every agent has a full ordered authority list of distinct servers *)
  List.iter
    (fun u ->
      let auth = Mail.User_agent.authority (Mail.Syntax_system.agent sys u) in
      Alcotest.(check int) "replication" 3 (List.length auth);
      Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare auth)))
    (Mail.Syntax_system.users sys)

let test_basic_delivery () =
  let sys = make () in
  let m = Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:(user sys 20) () in
  Mail.Syntax_system.run_until sys 100.;
  Alcotest.(check bool) "deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check bool) "latency positive" true
    (match Mail.Message.delivery_latency m with Some l -> l > 0. | None -> false);
  let st = Mail.Syntax_system.check_mail sys (user sys 20) in
  Alcotest.(check int) "retrieved" 1 st.Mail.User_agent.retrieved

let test_unknown_users_rejected () =
  let sys = make () in
  let ghost = Naming.Name.make ~region:"r0" ~host:"H1" ~user:"ghost" in
  (try
     ignore (Mail.Syntax_system.submit sys ~sender:ghost ~recipient:(user sys 0) ());
     Alcotest.fail "unknown sender accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:ghost ());
    Alcotest.fail "unknown recipient accepted"
  with Invalid_argument _ -> ()

let test_delivery_during_primary_outage () =
  let sys = make () in
  let rcpt = user sys 20 in
  let primary = List.hd (Mail.User_agent.authority (Mail.Syntax_system.agent sys rcpt)) in
  Netsim.Net.set_down (Mail.Syntax_system.net sys) primary;
  let m = Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:rcpt () in
  Mail.Syntax_system.run_until sys 200.;
  Alcotest.(check bool) "deposited on a secondary" true
    (Mail.Message.is_deposited m
    && m.Mail.Message.deposited_on <> Some primary);
  let st = Mail.Syntax_system.check_mail sys rcpt in
  Alcotest.(check int) "still retrievable" 1 st.Mail.User_agent.retrieved

let test_no_loss_through_total_outage () =
  (* Every authority server of the recipient is down at submit time;
     retries must deposit the mail after recovery. *)
  let sys = make () in
  let rcpt = user sys 25 in
  let auth = Mail.User_agent.authority (Mail.Syntax_system.agent sys rcpt) in
  List.iter (fun s -> Netsim.Net.set_down (Mail.Syntax_system.net sys) s) auth;
  let m = Mail.Syntax_system.submit sys ~sender:(user sys 2) ~recipient:rcpt () in
  Mail.Syntax_system.run_until sys 300.;
  (* recover everything *)
  List.iter (fun s -> Netsim.Net.set_up (Mail.Syntax_system.net sys) s) auth;
  Mail.Syntax_system.quiesce sys;
  Alcotest.(check bool) "eventually deposited" true (Mail.Message.is_deposited m);
  let st = Mail.Syntax_system.check_mail sys rcpt in
  Alcotest.(check int) "retrieved after recovery" 1 st.Mail.User_agent.retrieved

(* A site whose hosts are dual-homed, so taking one server down does
   not physically isolate the sender (in Fig. 1 every host has a single
   link, making sender-side failover impossible to exercise there). *)
let dual_homed_site () =
  let g = Netsim.Graph.create () in
  let host i = Netsim.Graph.add_node ~label:(Printf.sprintf "H%d" i) ~kind:Netsim.Graph.Host ~region:"r0" g in
  let server i = Netsim.Graph.add_node ~label:(Printf.sprintf "S%d" i) ~kind:Netsim.Graph.Server ~region:"r0" g in
  let h1 = host 1 and h2 = host 2 in
  let s1 = server 1 and s2 = server 2 and s3 = server 3 in
  List.iter
    (fun (u, v) -> Netsim.Graph.add_edge g u v 1.0)
    [ (h1, s1); (h1, s2); (h2, s2); (h2, s3); (s1, s2); (s2, s3) ];
  { Netsim.Topology.graph = g; hosts = [ (h1, 20); (h2, 20) ]; servers = [ s1; s2; s3 ] }

let test_sender_connection_failover () =
  let sys = Mail.Syntax_system.create (dual_homed_site ()) in
  let sender = user sys 0 in
  let s_auth = Mail.User_agent.authority (Mail.Syntax_system.agent sys sender) in
  Netsim.Net.set_down (Mail.Syntax_system.net sys) (List.hd s_auth);
  let m = Mail.Syntax_system.submit sys ~sender ~recipient:(user sys 7) () in
  Mail.Syntax_system.run_until sys 200.;
  Alcotest.(check bool) "delivered via another server" true (Mail.Message.is_deposited m);
  Alcotest.(check bool) "failure counted" true
    (Dsim.Stats.Counter.get (Mail.Syntax_system.counters sys) "submit_attempt_failures" > 0)

let test_notifications_emitted () =
  let sys = make () in
  ignore (Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:(user sys 20) ());
  Mail.Syntax_system.run_until sys 100.;
  Alcotest.(check int) "notification" 1
    (Dsim.Stats.Counter.get (Mail.Syntax_system.counters sys) "notifications")

let test_migration_within_region () =
  let sys = make () in
  let victim = user sys 29 in
  let new_name = Mail.Syntax_system.migrate_user sys victim ~new_host:0 in
  Alcotest.(check bool) "renamed" false (Naming.Name.equal victim new_name);
  Alcotest.(check string) "host token" "H1" (Naming.Name.host new_name);
  Alcotest.(check bool) "redirect recorded" true
    (Mail.Syntax_system.redirect_target sys victim = Some new_name);
  (* mail to the old name lands in the new mailbox *)
  let m = Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:victim () in
  Mail.Syntax_system.run_until sys 200.;
  Alcotest.(check bool) "deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check bool) "rewritten to new name" true
    (Naming.Name.equal m.Mail.Message.recipient new_name);
  let st = Mail.Syntax_system.check_mail sys new_name in
  Alcotest.(check int) "new identity retrieves" 1 st.Mail.User_agent.retrieved;
  (* the old name is no longer a user *)
  try
    ignore (Mail.Syntax_system.agent sys victim);
    Alcotest.fail "old name still a user"
  with Invalid_argument _ -> ()

let test_add_and_remove_user () =
  let sys = make () in
  let newbie = Mail.Syntax_system.add_user sys ~host:0 ~user:"newbie" in
  Alcotest.(check string) "named after the host" "r0.H1.newbie"
    (Naming.Name.to_string newbie);
  Alcotest.(check int) "population grew" 31 (List.length (Mail.Syntax_system.users sys));
  (* the new user sends and receives like anyone else *)
  let m = Mail.Syntax_system.submit sys ~sender:newbie ~recipient:(user sys 20) () in
  let m2 = Mail.Syntax_system.submit sys ~sender:(user sys 3) ~recipient:newbie () in
  Mail.Syntax_system.quiesce sys;
  Alcotest.(check bool) "sends" true (Mail.Message.is_deposited m);
  Alcotest.(check bool) "receives" true (Mail.Message.is_deposited m2);
  ignore (Mail.Syntax_system.check_mail sys newbie);
  Alcotest.(check bool) "retrieves" true (Mail.Message.is_retrieved m2);
  (try
     ignore (Mail.Syntax_system.add_user sys ~host:0 ~user:"newbie");
     Alcotest.fail "duplicate accepted"
   with Invalid_argument _ -> ());
  Mail.Syntax_system.remove_user sys newbie;
  Alcotest.(check int) "population shrank" 30
    (List.length (Mail.Syntax_system.users sys));
  try
    ignore (Mail.Syntax_system.submit sys ~sender:(user sys 3) ~recipient:newbie ());
    Alcotest.fail "mail to removed user accepted"
  with Invalid_argument _ -> ()

let test_rename_notice_sent () =
  let sys = make () in
  let victim = user sys 29 in
  ignore (Mail.Syntax_system.migrate_user sys victim ~new_host:0);
  ignore (Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:victim ());
  Mail.Syntax_system.quiesce sys;
  let c = Mail.Syntax_system.counters sys in
  Alcotest.(check bool) "sender was told about the rename" true
    (Dsim.Stats.Counter.get c "rename_notices" >= 1)

let test_polls_counted () =
  let sys = make () in
  Mail.Syntax_system.run_until sys 5.;
  ignore (Mail.Syntax_system.check_mail sys (user sys 0));
  Mail.Syntax_system.run_until sys 10.;
  ignore (Mail.Syntax_system.check_mail sys (user sys 0));
  let c = Mail.Syntax_system.counters sys in
  Alcotest.(check int) "checks" 2 (Dsim.Stats.Counter.get c "checks");
  (* No server ever restarted, so each reads LastStartTime = -inf and
     the primary is stable from the first check: one poll each. *)
  Alcotest.(check int) "polls" 2 (Dsim.Stats.Counter.get c "polls")

let test_submit_at_schedules () =
  let sys = make () in
  let m = Mail.Syntax_system.submit_at sys ~at:50. ~sender:(user sys 0)
      ~recipient:(user sys 15) () in
  Mail.Syntax_system.run_until sys 40.;
  Alcotest.(check bool) "not yet" false (Mail.Message.is_deposited m);
  Mail.Syntax_system.run_until sys 100.;
  Alcotest.(check bool) "after its time" true (Mail.Message.is_deposited m)

let test_duplicate_deposits_suppressed_to_user () =
  (* Force retry duplication by killing the recipient's primary right
     after a deposit is sent, dropping the ack. *)
  let sys = make () in
  let rcpt = user sys 20 in
  ignore (Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:rcpt ());
  Mail.Syntax_system.quiesce sys;
  ignore (Mail.Syntax_system.check_mail sys rcpt);
  let again = Mail.Syntax_system.check_mail sys rcpt in
  Alcotest.(check int) "no duplicate in second check" 0 again.Mail.User_agent.retrieved;
  Alcotest.(check int) "inbox exactly one" 1
    (Mail.User_agent.inbox_size (Mail.Syntax_system.agent sys rcpt))

let test_scheduled_cleanup () =
  let config =
    { Mail.Syntax_system.default_config with mailbox_policy = Mail.Mailbox.Archive }
  in
  let sys = Mail.Syntax_system.create ~config (Netsim.Topology.paper_fig1 ()) in
  let rcpt = user sys 20 in
  ignore (Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:rcpt ());
  Mail.Syntax_system.run_until sys 50.;
  ignore (Mail.Syntax_system.check_mail sys rcpt);
  (* the archived copy survives retrieval… *)
  let on = Option.get ((List.hd (Mail.Syntax_system.submitted sys)).Mail.Message.deposited_on) in
  let srv = Mail.Replica_group.holder (Mail.Syntax_system.storage sys) on in
  Alcotest.(check bool) "archived copy held" true (Mail.Server.storage_bytes srv > 0);
  (* …until the clean-up policy expires it. *)
  Mail.Syntax_system.schedule_cleanup sys ~period:100. ~until:1000. ~max_age:200.;
  Mail.Syntax_system.run_until sys 1000.;
  Alcotest.(check bool) "expired by cleanup" true
    (Dsim.Stats.Counter.get (Mail.Syntax_system.counters sys) "archive_dropped" >= 1);
  Alcotest.(check int) "storage reclaimed" 0 (Mail.Server.storage_bytes srv)

let test_evaluation_report () =
  let sys = make () in
  ignore (Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:(user sys 20) ());
  Mail.Syntax_system.quiesce sys;
  ignore (Mail.Syntax_system.check_mail sys (user sys 20));
  let r = Mail.Evaluation.of_syntax sys in
  Alcotest.(check int) "submitted" 1 r.Mail.Evaluation.submitted;
  Alcotest.(check int) "deposited" 1 r.Mail.Evaluation.deposited;
  Alcotest.(check int) "retrieved" 1 r.Mail.Evaluation.retrieved;
  Alcotest.(check int) "no losses" 0 r.Mail.Evaluation.undelivered;
  Alcotest.(check bool) "messages flowed" true (r.Mail.Evaluation.messages_sent > 0);
  let s = Format.asprintf "%a" Mail.Evaluation.pp r in
  Alcotest.(check bool) "pp" true (String.length s > 50)

(* A message deposited on chain member 2 while member 1 is down; member
   1 comes back before any check.  Its recovery moves its LastStartTime
   past the agent's LastCheckingTime of 0, so the first check does not
   stop at it and finds the mail on member 2. *)
let test_restart_before_first_check () =
  let sys = make () in
  let rcpt = user sys 20 in
  let primary = List.hd (Mail.User_agent.authority (Mail.Syntax_system.agent sys rcpt)) in
  let net = Mail.Syntax_system.net sys in
  Netsim.Net.set_down net primary;
  let m = Mail.Syntax_system.submit sys ~sender:(user sys 0) ~recipient:rcpt () in
  Mail.Syntax_system.run_until sys 200.;
  Alcotest.(check bool) "deposited off the primary" true
    (Mail.Message.is_deposited m && m.Mail.Message.deposited_on <> Some primary);
  Netsim.Net.set_up net primary;
  Mail.Syntax_system.run_until sys 210.;
  let st = Mail.Syntax_system.check_mail sys rcpt in
  Alcotest.(check bool) "scanned past the restarted primary" true
    (st.Mail.User_agent.polls >= 2);
  Alcotest.(check int) "first check retrieves it" 1 st.Mail.User_agent.retrieved

let suite =
  [
    ( "syntax_system",
      [
        Alcotest.test_case "construction" `Quick test_construction;
        Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
        Alcotest.test_case "unknown users rejected" `Quick test_unknown_users_rejected;
        Alcotest.test_case "delivery during primary outage" `Quick
          test_delivery_during_primary_outage;
        Alcotest.test_case "no loss through total outage" `Quick
          test_no_loss_through_total_outage;
        Alcotest.test_case "sender connection failover" `Quick
          test_sender_connection_failover;
        Alcotest.test_case "notifications" `Quick test_notifications_emitted;
        Alcotest.test_case "migration with redirection" `Quick
          test_migration_within_region;
        Alcotest.test_case "rename notice to sender" `Quick test_rename_notice_sent;
        Alcotest.test_case "add and remove user at runtime" `Quick
          test_add_and_remove_user;
        Alcotest.test_case "poll counters" `Quick test_polls_counted;
        Alcotest.test_case "scheduled submission" `Quick test_submit_at_schedules;
        Alcotest.test_case "duplicates suppressed at the user" `Quick
          test_duplicate_deposits_suppressed_to_user;
        Alcotest.test_case "scheduled archive cleanup" `Quick test_scheduled_cleanup;
        Alcotest.test_case "evaluation report" `Quick test_evaluation_report;
        Alcotest.test_case "restart before the first check still scans" `Quick
          test_restart_before_first_check;
      ] );
  ]
