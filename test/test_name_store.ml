(* Tests for the replicated name database (§2 / §4.2). *)

let nm u = Naming.Name.make ~region:"r" ~host:"h" ~user:u

let make ?(replicas = 3) () =
  let g = Netsim.Topology.ring ~n:(max 3 replicas) ~weight:1. in
  let engine = Dsim.Engine.create () in
  let store =
    Mail.Name_store.create ~engine ~graph:g ~replicas:(List.init replicas Fun.id) ()
  in
  (engine, store)

let test_write_propagates () =
  let engine, store = make () in
  Mail.Name_store.register store (nm "alice") [ 10; 11 ];
  (* immediately visible at the primary *)
  Alcotest.(check (option (list int))) "primary" (Some [ 10; 11 ])
    (Mail.Name_store.lookup store ~at:0 (nm "alice"));
  (* not yet at a secondary (propagation is asynchronous) *)
  Alcotest.(check bool) "secondary not yet" true
    (Mail.Name_store.lookup store ~at:1 (nm "alice") = None);
  Alcotest.(check int) "lagging replicas" 2 (Mail.Name_store.lag store (nm "alice"));
  Dsim.Engine.run engine;
  Alcotest.(check (option (list int))) "secondary after propagation" (Some [ 10; 11 ])
    (Mail.Name_store.lookup store ~at:1 (nm "alice"));
  Alcotest.(check bool) "converged" true (Mail.Name_store.converged store);
  Alcotest.(check int) "two update messages" 2 (Mail.Name_store.update_messages store)

let test_stale_reads_counted () =
  let engine, store = make () in
  Mail.Name_store.register store (nm "alice") [ 1 ];
  ignore (Mail.Name_store.lookup store ~at:2 (nm "alice"));
  Alcotest.(check int) "stale read" 1 (Mail.Name_store.stale_reads store);
  Dsim.Engine.run engine;
  ignore (Mail.Name_store.lookup store ~at:2 (nm "alice"));
  Alcotest.(check int) "fresh read not counted" 1 (Mail.Name_store.stale_reads store)

let test_versions_monotone () =
  let engine, store = make () in
  Mail.Name_store.register store (nm "alice") [ 1 ];
  Mail.Name_store.register store (nm "alice") [ 2 ];
  Dsim.Engine.run engine;
  Alcotest.(check int) "version 2 everywhere" 2
    (Mail.Name_store.version_at store ~at:2 (nm "alice"));
  Alcotest.(check (option (list int))) "latest value" (Some [ 2 ])
    (Mail.Name_store.lookup store ~at:2 (nm "alice"))

let test_unregister_tombstone () =
  let engine, store = make () in
  Mail.Name_store.register store (nm "alice") [ 1 ];
  Dsim.Engine.run engine;
  Mail.Name_store.unregister store (nm "alice");
  Dsim.Engine.run engine;
  List.iter
    (fun at ->
      Alcotest.(check bool)
        (Printf.sprintf "gone at %d" at)
        true
        (Mail.Name_store.lookup store ~at (nm "alice") = None))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "converged" true (Mail.Name_store.converged store)

let test_recovery_resync () =
  let engine, store = make () in
  let net = Mail.Name_store.net store in
  (* secondary 2 is down through two updates *)
  Netsim.Net.set_down net 2;
  Mail.Name_store.register store (nm "alice") [ 1 ];
  Mail.Name_store.register store (nm "bob") [ 2 ];
  Dsim.Engine.run engine;
  Alcotest.(check bool) "2 missed the updates" false (Mail.Name_store.converged store);
  Netsim.Net.set_up net 2;
  Dsim.Engine.run engine;
  Alcotest.(check bool) "resynchronised" true (Mail.Name_store.converged store);
  Alcotest.(check int) "two resync entries" 2 (Mail.Name_store.resyncs store);
  Alcotest.(check (option (list int))) "value arrived" (Some [ 1 ])
    (Mail.Name_store.lookup store ~at:2 (nm "alice"))

let test_out_of_order_versions_ignored () =
  (* A resync put racing a regular put must not regress versions:
     force the race by an update during the recovery event. *)
  let engine, store = make () in
  let net = Mail.Name_store.net store in
  Netsim.Net.set_down net 1;
  Mail.Name_store.register store (nm "alice") [ 1 ];
  Dsim.Engine.run engine;
  Netsim.Net.set_up net 1;
  (* v2 written immediately after the resync of v1 was queued *)
  Mail.Name_store.register store (nm "alice") [ 2 ];
  Dsim.Engine.run engine;
  Alcotest.(check (option (list int))) "newest wins" (Some [ 2 ])
    (Mail.Name_store.lookup store ~at:1 (nm "alice"))

let test_write_with_primary_down_rejected () =
  let _, store = make () in
  Netsim.Net.set_down (Mail.Name_store.net store) 0;
  try
    Mail.Name_store.register store (nm "alice") [ 1 ];
    Alcotest.fail "write accepted with primary down"
  with Invalid_argument _ -> ()

let test_update_cost_scales_with_replication () =
  (* The empirical counterpart of the §2 analytic model (C9): update
     messages = r - 1 per write. *)
  List.iter
    (fun r ->
      let engine, store = make ~replicas:r () in
      Mail.Name_store.register store (nm "alice") [ 1 ];
      Dsim.Engine.run engine;
      Alcotest.(check int)
        (Printf.sprintf "r=%d" r)
        (r - 1)
        (Mail.Name_store.update_messages store))
    [ 1; 2; 3; 5 ]

let test_unknown_replica_rejected () =
  let _, store = make () in
  try
    ignore (Mail.Name_store.lookup store ~at:99 (nm "alice"));
    Alcotest.fail "unknown replica accepted"
  with Invalid_argument _ -> ()

(* Random interleavings of writes, reads and one outage always end
   converged once the network drains. *)
let prop_random_ops_converge =
  QCheck.Test.make ~name:"random write/read/outage schedules converge" ~count:25
    QCheck.(triple (int_range 1 500) (int_range 2 5) (int_range 1 60))
    (fun (seed, replicas, writes) ->
      let g = Netsim.Topology.ring ~n:(max 3 replicas) ~weight:1. in
      let engine = Dsim.Engine.create () in
      let store =
        Mail.Name_store.create ~engine ~graph:g ~replicas:(List.init replicas Fun.id) ()
      in
      let rng = Dsim.Rng.create seed in
      for i = 0 to writes - 1 do
        let at = Dsim.Rng.float rng 500. in
        ignore
          (Dsim.Engine.schedule_at engine at (fun () ->
               Mail.Name_store.register store
                 (Naming.Name.make ~region:"r" ~host:"h"
                    ~user:(Printf.sprintf "u%d" (i mod 10)))
                 [ i ]))
      done;
      if replicas > 1 then begin
        let victim = 1 + Dsim.Rng.int rng (replicas - 1) in
        let start = Dsim.Rng.float rng 300. in
        let duration = Dsim.Rng.float rng 200. in
        Netsim.Fault.(
          apply (Mail.Name_store.net store)
            { windows = [ { target = Node victim; kind = "crash"; start; duration } ]; horizon = 500. })
      end;
      Dsim.Engine.run engine;
      Mail.Name_store.converged store)

let suite =
  [
    ( "name_store",
      [
        Alcotest.test_case "write propagates" `Quick test_write_propagates;
        Alcotest.test_case "stale reads counted" `Quick test_stale_reads_counted;
        Alcotest.test_case "versions monotone" `Quick test_versions_monotone;
        Alcotest.test_case "unregister tombstone" `Quick test_unregister_tombstone;
        Alcotest.test_case "recovery resync" `Quick test_recovery_resync;
        Alcotest.test_case "out-of-order versions ignored" `Quick
          test_out_of_order_versions_ignored;
        Alcotest.test_case "write with primary down rejected" `Quick
          test_write_with_primary_down_rejected;
        Alcotest.test_case "update cost scales with replication" `Quick
          test_update_cost_scales_with_replication;
        Alcotest.test_case "unknown replica rejected" `Quick
          test_unknown_replica_rejected;
        QCheck_alcotest.to_alcotest prop_random_ops_converge;
      ] );
  ]
