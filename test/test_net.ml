(* Tests for the Netsim.Net transport. *)

type msg = Ping of int

let make_net () =
  let g = Netsim.Topology.line ~n:4 ~weight:2. in
  let engine = Dsim.Engine.create () in
  let net : msg Netsim.Net.t = Netsim.Net.create ~engine g in
  (engine, net)

let test_delivery_and_latency () =
  let engine, net = make_net () in
  let received = ref [] in
  Netsim.Net.set_handler net 3 (fun ~time ~src (Ping n) ->
      received := (time, src, n) :: !received);
  ignore (Netsim.Net.send net ~src:0 ~dst:3 (Ping 7));
  Dsim.Engine.run engine;
  match !received with
  | [ (time, src, 7) ] ->
      Alcotest.(check (float 1e-9)) "latency = path distance" 6. time;
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check int) "sent" 1 (Netsim.Net.messages_sent net);
      Alcotest.(check int) "delivered" 1 (Netsim.Net.messages_delivered net);
      Alcotest.(check int) "hops" 3 (Netsim.Net.hops_traversed net)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_send_neighbor () =
  let engine, net = make_net () in
  let got = ref false in
  Netsim.Net.set_handler net 1 (fun ~time ~src:_ (Ping _) ->
      Alcotest.(check (float 1e-9)) "edge latency" 2. time;
      got := true);
  ignore (Netsim.Net.send_neighbor net ~src:0 ~dst:1 (Ping 0));
  Dsim.Engine.run engine;
  Alcotest.(check bool) "delivered" true !got;
  Alcotest.check_raises "non-adjacent"
    (Invalid_argument "Net.send_neighbor: nodes are not adjacent") (fun () ->
      ignore (Netsim.Net.send_neighbor net ~src:0 ~dst:3 (Ping 0)))

let test_drop_when_destination_down () =
  let engine, net = make_net () in
  let got = ref false in
  Netsim.Net.set_handler net 1 (fun ~time:_ ~src:_ _ -> got := true);
  Netsim.Net.set_down net 1;
  ignore (Netsim.Net.send net ~src:0 ~dst:1 (Ping 0));
  Dsim.Engine.run engine;
  Alcotest.(check bool) "not delivered" false !got;
  Alcotest.(check int) "dropped" 1 (Netsim.Net.messages_dropped net)

let test_drop_in_flight () =
  (* Destination goes down after the send but before delivery. *)
  let engine, net = make_net () in
  let got = ref false in
  Netsim.Net.set_handler net 3 (fun ~time:_ ~src:_ _ -> got := true);
  let accepted = Netsim.Net.send net ~src:0 ~dst:3 (Ping 1) in
  Alcotest.(check bool) "accepted at send time" true accepted;
  ignore (Dsim.Engine.schedule_at engine 1. (fun () -> Netsim.Net.set_down net 3));
  Dsim.Engine.run engine;
  Alcotest.(check bool) "dropped at delivery" false !got;
  Alcotest.(check int) "counted dropped" 1 (Netsim.Net.messages_dropped net)

let test_drop_when_relay_down () =
  let engine, net = make_net () in
  Netsim.Net.set_down net 1;
  (* path 0-1-2-3 has relay 1 down *)
  let accepted = Netsim.Net.send net ~src:0 ~dst:3 (Ping 2) in
  Alcotest.(check bool) "refused" false accepted;
  Dsim.Engine.run engine;
  Alcotest.(check int) "dropped" 1 (Netsim.Net.messages_dropped net)

let test_source_down () =
  let _, net = make_net () in
  Netsim.Net.set_down net 0;
  Alcotest.(check bool) "refused" false (Netsim.Net.send net ~src:0 ~dst:1 (Ping 3))

let test_status_listeners () =
  let engine, net = make_net () in
  let events = ref [] in
  Netsim.Net.on_status_change net (fun ~time node up -> events := (time, node, up) :: !events);
  ignore (Dsim.Engine.schedule_at engine 5. (fun () -> Netsim.Net.set_down net 2));
  ignore (Dsim.Engine.schedule_at engine 9. (fun () -> Netsim.Net.set_up net 2));
  (* idempotent flips do not notify *)
  ignore (Dsim.Engine.schedule_at engine 9.5 (fun () -> Netsim.Net.set_up net 2));
  Dsim.Engine.run engine;
  Alcotest.(check (list (triple (float 1e-9) int bool)))
    "status events"
    [ (5., 2, false); (9., 2, true) ]
    (List.rev !events)

let test_per_edge_fifo () =
  (* Two messages over the same edge arrive in send order. *)
  let engine, net = make_net () in
  let order = ref [] in
  Netsim.Net.set_handler net 1 (fun ~time:_ ~src:_ (Ping n) -> order := n :: !order);
  ignore (Netsim.Net.send_neighbor net ~src:0 ~dst:1 (Ping 1));
  ignore (Netsim.Net.send_neighbor net ~src:0 ~dst:1 (Ping 2));
  ignore
    (Dsim.Engine.schedule_at engine 0.5 (fun () ->
         ignore (Netsim.Net.send_neighbor net ~src:0 ~dst:1 (Ping 3))));
  Dsim.Engine.run engine;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3 ] (List.rev !order)

let test_distance_and_hops () =
  let _, net = make_net () in
  Alcotest.(check (float 1e-9)) "distance" 4. (Netsim.Net.distance net 0 2);
  Alcotest.(check int) "hops" 2 (Netsim.Net.hops net 0 2);
  Alcotest.(check int) "self" 0 (Netsim.Net.hops net 1 1)

let test_reset_counters () =
  let engine, net = make_net () in
  ignore (Netsim.Net.send net ~src:0 ~dst:1 (Ping 9));
  Dsim.Engine.run engine;
  Netsim.Net.reset_counters net;
  Alcotest.(check int) "sent reset" 0 (Netsim.Net.messages_sent net);
  Alcotest.(check int) "delivered reset" 0 (Netsim.Net.messages_delivered net)

(* Diamond: 0-1-3 is the short path (2 + 2) through relay 1; 0-2-3 the
   detour (3 + 3) through relay 2. *)
let make_diamond () =
  let g = Netsim.Graph.create () in
  for _ = 0 to 3 do
    ignore (Netsim.Graph.add_node g)
  done;
  Netsim.Graph.add_edge g 0 1 2.;
  Netsim.Graph.add_edge g 1 3 2.;
  Netsim.Graph.add_edge g 0 2 3.;
  Netsim.Graph.add_edge g 2 3 3.;
  let engine = Dsim.Engine.create () in
  let net : msg Netsim.Net.t = Netsim.Net.create ~engine ~bandwidth:1. g in
  (engine, net)

let test_detour_around_down_relay () =
  let engine, net = make_diamond () in
  let arrivals = ref [] in
  Netsim.Net.set_handler net 3 (fun ~time ~src:_ (Ping n) ->
      arrivals := (n, time) :: !arrivals);
  (* A 1-byte message at bandwidth 1 adds 1 per hop, so the latency
     shows the hop count. *)
  let send n = Netsim.Net.send_timed ~bytes:1 net ~src:0 ~dst:3 (Ping n) in
  Alcotest.(check (option (float 1e-9))) "short path" (Some 6.) (send 0);
  Netsim.Net.set_down net 1;
  Alcotest.(check (option (float 1e-9))) "detour around the down relay" (Some 8.)
    (send 1);
  Alcotest.(check int) "detour hops" 2 (Netsim.Net.hops net 0 3);
  Alcotest.(check (float 1e-9)) "detour distance" 6. (Netsim.Net.distance net 0 3);
  Alcotest.(check (option int)) "detour first hop" (Some 2)
    (Netsim.Net.first_hop net ~src:0 ~dst:3);
  Dsim.Engine.run engine;
  Netsim.Net.set_up net 1;
  Alcotest.(check (option (float 1e-9))) "short path after recovery" (Some 6.)
    (send 2);
  Alcotest.(check (float 1e-9)) "short distance after recovery" 4.
    (Netsim.Net.distance net 0 3);
  Dsim.Engine.run engine;
  Alcotest.(check int) "all delivered" 3 (Netsim.Net.messages_delivered net);
  Alcotest.(check int) "none dropped" 0 (Netsim.Net.messages_dropped net)

let test_line_relay_down_refuses () =
  (* The line has no detour: a down relay leaves no live path. *)
  let engine, net = make_net () in
  Netsim.Net.set_down net 2;
  Alcotest.(check bool) "refused" false (Netsim.Net.send net ~src:0 ~dst:3 (Ping 4));
  Alcotest.(check (float 1e-9)) "unreachable" infinity (Netsim.Net.distance net 0 3);
  Alcotest.(check bool) "the down relay itself is reachable" true
    (Netsim.Net.send net ~src:0 ~dst:2 (Ping 5));
  Dsim.Engine.run engine;
  Alcotest.(check int) "both dropped" 2 (Netsim.Net.messages_dropped net);
  Alcotest.(check int) "none delivered" 0 (Netsim.Net.messages_delivered net)

let test_down_destination_accepted () =
  let engine, net = make_net () in
  let got = ref false in
  Netsim.Net.set_handler net 3 (fun ~time:_ ~src:_ _ -> got := true);
  Netsim.Net.set_down net 3;
  Alcotest.(check bool) "accepted" true (Netsim.Net.send net ~src:0 ~dst:3 (Ping 6));
  Alcotest.(check int) "counted sent" 1 (Netsim.Net.messages_sent net);
  Dsim.Engine.run engine;
  Alcotest.(check bool) "not delivered" false !got;
  Alcotest.(check int) "dropped on arrival" 1 (Netsim.Net.messages_dropped net)

let suite =
  [
    ( "net",
      [
        Alcotest.test_case "routed delivery and latency" `Quick test_delivery_and_latency;
        Alcotest.test_case "neighbor send" `Quick test_send_neighbor;
        Alcotest.test_case "drop when destination down" `Quick
          test_drop_when_destination_down;
        Alcotest.test_case "drop in flight" `Quick test_drop_in_flight;
        Alcotest.test_case "drop when relay down" `Quick test_drop_when_relay_down;
        Alcotest.test_case "source down refuses" `Quick test_source_down;
        Alcotest.test_case "status listeners" `Quick test_status_listeners;
        Alcotest.test_case "per-edge FIFO" `Quick test_per_edge_fifo;
        Alcotest.test_case "distance and hops" `Quick test_distance_and_hops;
        Alcotest.test_case "reset counters" `Quick test_reset_counters;
        Alcotest.test_case "detour around a down relay" `Quick
          test_detour_around_down_relay;
        Alcotest.test_case "down relay on a line refuses" `Quick
          test_line_relay_down_refuses;
        Alcotest.test_case "down destination accepted" `Quick
          test_down_destination_accepted;
      ] );
  ]
