(* The scale experiment's hard gates, asserted on the quick size: the
   replicated mailboxes clear the 0.99 availability target under the
   standard campaign, failover and degraded chains are exercised, no
   mail is lost or duplicated, and the report is byte-reproducible. *)

let quick = lazy (Mail.Scale.run Mail.Scale.quick)

let test_availability_ratchet () =
  let r = Lazy.force quick in
  let o = r.Mail.Scale.outcome in
  let ledger = o.Mail.Scenario.ledger in
  Alcotest.(check bool)
    (Printf.sprintf "availability %.4f >= 0.99" o.Mail.Scenario.availability)
    true
    (o.Mail.Scenario.availability >= 0.99);
  Alcotest.(check bool) "campaign exercised failover" true
    (Telemetry.Registry.get_counter o.Mail.Scenario.metrics "replica_failovers" > 0);
  Alcotest.(check int) "no mail lost" 0 ledger.Mail.Ledger.lost;
  Alcotest.(check int) "no mail duplicated" 0 ledger.Mail.Ledger.duplicates;
  let monitor = Option.get o.Mail.Scenario.monitor in
  Alcotest.(check bool) "observability sampler took windows" true
    (Telemetry.Monitor.windows_evaluated monitor > 0);
  let fires name =
    List.fold_left
      (fun acc s ->
        if String.equal s.Telemetry.Monitor.s_rule.Telemetry.Monitor.rule_name name
        then acc + s.Telemetry.Monitor.fires
        else acc)
      0
      (Telemetry.Monitor.summary monitor)
  in
  Alcotest.(check bool) "crashed servers degraded some chain" true
    (fires "chains-degraded" > 0)

let test_report_reproducible () =
  let json r = Telemetry.Json.to_string ~indent:2 (Mail.Scale.to_json r) in
  Alcotest.(check string) "two runs, byte-identical SCALE.json"
    (json (Lazy.force quick))
    (json (Mail.Scale.run Mail.Scale.quick))

let test_sizes () =
  let full = Mail.Scale.full and mid = Mail.Scale.mid in
  Alcotest.(check int) "full: 250 regions x 16 hosts x 250 users" 1_000_000
    (Mail.Scale.users full);
  Alcotest.(check int) "full: a million messages" 1_000_000 full.Mail.Scale.messages;
  Alcotest.(check int) "mid: 200k users" 200_000 (Mail.Scale.users mid);
  Alcotest.(check int) "mid: 200k messages" 200_000 mid.Mail.Scale.messages;
  Alcotest.(check int) "quick: 240 users" 240 (Mail.Scale.users Mail.Scale.quick);
  Alcotest.(check (list string)) "sizes by name" [ "quick"; "mid"; "full" ]
    (List.filter_map
       (fun s ->
         Option.map (fun spec -> spec.Mail.Scale.size) (Mail.Scale.of_size s.Mail.Scale.size))
       Mail.Scale.sizes);
  Alcotest.(check bool) "unknown size" true (Mail.Scale.of_size "huge" = None)

let suite =
  [
    ( "scale",
      [
        Alcotest.test_case "quick: availability ratchet" `Quick
          test_availability_ratchet;
        Alcotest.test_case "quick: report reproducible" `Quick
          test_report_reproducible;
        Alcotest.test_case "size arithmetic" `Quick test_sizes;
      ] );
  ]
