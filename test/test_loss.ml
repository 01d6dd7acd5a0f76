(* Tests for random link loss and the retry machinery that absorbs it,
   plus transport conservation properties. *)

type msg = Ping

let test_loss_counted () =
  let g = Netsim.Topology.line ~n:2 ~weight:1. in
  let engine = Dsim.Engine.create () in
  let net : msg Netsim.Net.t =
    Netsim.Net.create ~engine ~loss_rate:0.5 ~loss_seed:7 g
  in
  let received = ref 0 in
  Netsim.Net.set_handler net 1 (fun ~time:_ ~src:_ Ping -> incr received);
  for _ = 1 to 200 do
    ignore (Netsim.Net.send net ~src:0 ~dst:1 Ping)
  done;
  Dsim.Engine.run engine;
  let lost = Netsim.Net.messages_lost net in
  Alcotest.(check bool) "roughly half lost" true (lost > 70 && lost < 130);
  Alcotest.(check int) "conservation" 200 (!received + lost)

let test_loss_rate_validation () =
  let g = Netsim.Topology.line ~n:2 ~weight:1. in
  let engine = Dsim.Engine.create () in
  try
    ignore (Netsim.Net.create ~engine ~loss_rate:1.0 g : msg Netsim.Net.t);
    Alcotest.fail "loss_rate 1 accepted"
  with Invalid_argument _ -> ()

let test_deterministic_loss () =
  let run () =
    let g = Netsim.Topology.line ~n:2 ~weight:1. in
    let engine = Dsim.Engine.create () in
    let net : msg Netsim.Net.t =
      Netsim.Net.create ~engine ~loss_rate:0.3 ~loss_seed:42 g
    in
    for _ = 1 to 100 do
      ignore (Netsim.Net.send net ~src:0 ~dst:1 Ping)
    done;
    Dsim.Engine.run engine;
    Netsim.Net.messages_lost net
  in
  Alcotest.(check int) "same losses" (run ()) (run ())

(* conservation over arbitrary traffic: sent = delivered + in-flight
   drops + random losses once the engine drains *)
let prop_conservation =
  QCheck.Test.make ~name:"transport conserves messages" ~count:50
    QCheck.(pair (int_range 2 20) (int_range 0 80))
    (fun (n, sends) ->
      let rng = Dsim.Rng.create (n + (sends * 131)) in
      let g =
        Netsim.Topology.random_connected ~rng ~n ~extra_edges:n ~min_weight:1.
          ~max_weight:3.
      in
      let engine = Dsim.Engine.create () in
      let net : msg Netsim.Net.t =
        Netsim.Net.create ~engine ~loss_rate:0.2 ~loss_seed:n g
      in
      let received = ref 0 in
      List.iter
        (fun v ->
          Netsim.Net.set_handler net v (fun ~time:_ ~src:_ Ping -> incr received))
        (Netsim.Graph.nodes g);
      let accepted = ref 0 in
      for _ = 1 to sends do
        let src = Dsim.Rng.int rng n and dst = Dsim.Rng.int rng n in
        if src <> dst && Netsim.Net.send net ~src ~dst Ping then incr accepted
      done;
      Dsim.Engine.run engine;
      (* no nodes fail here, so nothing is dropped at delivery *)
      !received + Netsim.Net.messages_lost net = !accepted
      && Netsim.Net.messages_dropped net = 0)

(* End-to-end: the mail system stays lossless under heavy random link
   loss, because deposits are acknowledged and retried. *)
let test_mail_survives_link_loss () =
  let config =
    {
      Mail.Syntax_system.default_config with
      loss_rate = 0.3;
      retry_timeout = 20.;
      resubmit_timeout = 150.;
    }
  in
  let sys = Mail.Syntax_system.create ~config (Netsim.Topology.paper_fig1 ()) in
  let users = Array.of_list (Mail.Syntax_system.users sys) in
  let messages = ref [] in
  for i = 0 to 49 do
    messages :=
      Mail.Syntax_system.submit_at sys
        ~at:(float_of_int i *. 10.)
        ~sender:users.(i mod 30)
        ~recipient:users.((i + 11) mod 30)
        ()
      :: !messages
  done;
  Mail.Syntax_system.quiesce sys;
  let lost = Netsim.Net.messages_lost (Mail.Syntax_system.net sys) in
  Alcotest.(check bool) "the network really lost traffic" true (lost > 10);
  List.iter
    (fun m -> Alcotest.(check bool) "deposited despite loss" true (Mail.Message.is_deposited m))
    !messages;
  (* and every message is retrievable *)
  Array.iter (fun u -> ignore (Mail.Syntax_system.check_mail sys u)) users;
  let r = Mail.Evaluation.of_syntax sys in
  Alcotest.(check int) "zero unretrieved" 0 r.Mail.Evaluation.unretrieved

(* End-to-end property: random small scenarios with server failures
   are always lossless. *)
let prop_scenario_lossless =
  QCheck.Test.make ~name:"random failure scenarios never lose mail" ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 0 4))
    (fun (seed, rate_step) ->
      let spec =
        {
          Mail.Scenario.default_spec with
          seed;
          duration = 1500.;
          mail_count = 60;
          check_period = 120.;
          faults =
            Some
              (Netsim.Fault.parse
                 (Printf.sprintf "crash:%g/150" (float_of_int rate_step *. 0.001)));
        }
      in
      let o = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) spec in
      o.Mail.Scenario.report.Mail.Evaluation.undelivered = 0
      && o.Mail.Scenario.report.Mail.Evaluation.unretrieved = 0
      && o.Mail.Scenario.inbox_total = 60)

let suite =
  [
    ( "loss",
      [
        Alcotest.test_case "loss counted" `Quick test_loss_counted;
        Alcotest.test_case "loss rate validation" `Quick test_loss_rate_validation;
        Alcotest.test_case "deterministic loss" `Quick test_deterministic_loss;
        QCheck_alcotest.to_alcotest prop_conservation;
        Alcotest.test_case "mail survives 30% link loss" `Quick
          test_mail_survives_link_loss;
        QCheck_alcotest.to_alcotest ~long:true prop_scenario_lossless;
      ] );
  ]
