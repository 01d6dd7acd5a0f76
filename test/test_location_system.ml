(* End-to-end tests of the design-2 system (§3.2). *)

let hier_site seed =
  let rng = Dsim.Rng.create seed in
  let g = Netsim.Topology.hierarchical ~rng Netsim.Topology.default_hierarchy in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }

let make ?config seed = Mail.Location_system.create ?config (hier_site seed)

let user sys i = List.nth (Mail.Location_system.users sys) i

let in_region sys r =
  List.filter (fun u -> String.equal (Naming.Name.region u) r)
    (Mail.Location_system.users sys)

let test_construction () =
  let sys = make 1 in
  Alcotest.(check int) "users" 90 (List.length (Mail.Location_system.users sys));
  Alcotest.(check int) "servers" 6 (List.length (Mail.Location_system.server_nodes sys))

let test_hash_authority_host_independent () =
  let sys = make 2 in
  (* The §3.2 property: authority assignment depends only on (region,
     user), never on the host token. *)
  let a = Naming.Name.make ~region:"r0" ~host:"hostA" ~user:"zed" in
  let b = Naming.Name.make ~region:"r0" ~host:"hostB" ~user:"zed" in
  Alcotest.(check (list int)) "same authority"
    (Mail.Location_system.authority_of sys a)
    (Mail.Location_system.authority_of sys b);
  (* and lists are non-empty, distinct, within the region's servers *)
  let auth = Mail.Location_system.authority_of sys a in
  Alcotest.(check bool) "non-empty" true (auth <> []);
  Alcotest.(check int) "distinct" (List.length auth)
    (List.length (List.sort_uniq compare auth))

let test_cross_region_delivery () =
  let sys = make 3 in
  let sender = List.hd (in_region sys "r0") in
  let rcpt = List.hd (in_region sys "r2") in
  let m = Mail.Location_system.submit sys ~sender ~recipient:rcpt () in
  Mail.Location_system.run_until sys 500.;
  Alcotest.(check bool) "deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check bool) "crossed regions" true (m.Mail.Message.forward_hops >= 1);
  let st = Mail.Location_system.check_mail sys rcpt in
  Alcotest.(check int) "retrieved" 1 st.Mail.User_agent.retrieved

let test_login_moves_and_retrieves () =
  let sys = make 4 in
  let g = Mail.Location_system.graph sys in
  let u = List.hd (in_region sys "r1") in
  (* deposit mail before the user roams *)
  let sender = List.hd (in_region sys "r0") in
  ignore (Mail.Location_system.submit sys ~sender ~recipient:u ());
  Mail.Location_system.run_until sys 300.;
  let r1_hosts =
    List.filter (fun v -> Netsim.Graph.kind g v = Netsim.Graph.Host)
      (Netsim.Graph.nodes_in_region g "r1")
  in
  let original_primary = Mail.Location_system.primary_host sys u in
  let target =
    List.hd (List.filter (fun h -> h <> original_primary) r1_hosts)
  in
  let st = Mail.Location_system.login sys u ~host:target in
  Alcotest.(check int) "login retrieved pending mail" 1 st.Mail.User_agent.retrieved;
  Alcotest.(check int) "location updated" target
    (Mail.Location_system.current_location sys u);
  Alcotest.(check int) "agent host moved" target
    (Mail.User_agent.host (Mail.Location_system.agent sys u));
  (* primary host unchanged — the name still names the primary. *)
  Alcotest.(check int) "primary stable" original_primary
    (Mail.Location_system.primary_host sys u);
  Mail.Location_system.run_until sys 600.;
  Alcotest.(check bool) "gossip happened" true
    (Dsim.Stats.Counter.get (Mail.Location_system.counters sys) "location_updates" >= 1)

let test_login_foreign_region_rejected () =
  let sys = make 5 in
  let g = Mail.Location_system.graph sys in
  let u = List.hd (in_region sys "r0") in
  let foreign_host =
    List.hd
      (List.filter (fun v -> Netsim.Graph.kind g v = Netsim.Graph.Host)
         (Netsim.Graph.nodes_in_region g "r1"))
  in
  try
    ignore (Mail.Location_system.login sys u ~host:foreign_host);
    Alcotest.fail "foreign login accepted"
  with Invalid_argument _ -> ()

let test_notification_follows_user () =
  let sys = make 6 in
  let g = Mail.Location_system.graph sys in
  let u = List.hd (in_region sys "r1") in
  let r1_hosts =
    List.filter (fun v -> Netsim.Graph.kind g v = Netsim.Graph.Host)
      (Netsim.Graph.nodes_in_region g "r1")
  in
  ignore (Mail.Location_system.login sys u ~host:(List.nth r1_hosts 3));
  Mail.Location_system.run_until sys 200.;
  let sender = List.hd (in_region sys "r0") in
  ignore (Mail.Location_system.submit sys ~sender ~recipient:u ());
  Mail.Location_system.run_until sys 500.;
  Alcotest.(check bool) "notified" true
    (Dsim.Stats.Counter.get (Mail.Location_system.counters sys) "notifications" >= 1)

let test_rebalance_hash () =
  let sys = make 7 in
  let moved = Mail.Location_system.rebalance_hash sys ~groups:3 in
  Alcotest.(check bool) "some users moved" true (moved > 0);
  (* agents' authority lists are consistent with the new hash *)
  List.iter
    (fun u ->
      Alcotest.(check (list int)) "consistent"
        (Mail.Location_system.authority_of sys u)
        (Mail.User_agent.authority (Mail.Location_system.agent sys u)))
    (Mail.Location_system.users sys);
  (* delivery still works *)
  let sender = user sys 0 and rcpt = user sys 50 in
  let m = Mail.Location_system.submit sys ~sender ~recipient:rcpt () in
  Mail.Location_system.quiesce sys;
  Alcotest.(check bool) "delivery after rebalance" true (Mail.Message.is_deposited m)

let test_migrate_region () =
  let sys = make 8 in
  let g = Mail.Location_system.graph sys in
  let u = List.hd (in_region sys "r0") in
  let r1_host =
    List.hd
      (List.filter (fun v -> Netsim.Graph.kind g v = Netsim.Graph.Host)
         (Netsim.Graph.nodes_in_region g "r1"))
  in
  let new_name = Mail.Location_system.migrate_region sys u ~new_host:r1_host in
  Alcotest.(check string) "new region" "r1" (Naming.Name.region new_name);
  Alcotest.(check bool) "redirect" true
    (Mail.Location_system.redirect_target sys u = Some new_name);
  (* same-region migrate is rejected (use login) *)
  let u2 = List.hd (in_region sys "r2") in
  let r2_host =
    List.hd
      (List.filter (fun v -> Netsim.Graph.kind g v = Netsim.Graph.Host)
         (Netsim.Graph.nodes_in_region g "r2"))
  in
  try
    ignore (Mail.Location_system.migrate_region sys u2 ~new_host:r2_host);
    Alcotest.fail "same-region migrate accepted"
  with Invalid_argument _ -> ()

let test_mail_to_old_name_redirected () =
  let sys = make 9 in
  let g = Mail.Location_system.graph sys in
  let u = List.hd (in_region sys "r0") in
  let r1_host =
    List.hd
      (List.filter (fun v -> Netsim.Graph.kind g v = Netsim.Graph.Host)
         (Netsim.Graph.nodes_in_region g "r1"))
  in
  let new_name = Mail.Location_system.migrate_region sys u ~new_host:r1_host in
  let sender = List.hd (in_region sys "r2") in
  let m = Mail.Location_system.submit sys ~sender ~recipient:u () in
  Mail.Location_system.quiesce sys;
  Alcotest.(check bool) "deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check bool) "rewritten" true
    (Naming.Name.equal m.Mail.Message.recipient new_name);
  let st = Mail.Location_system.check_mail sys new_name in
  Alcotest.(check int) "retrieved at new identity" 1 st.Mail.User_agent.retrieved

let test_retrieval_cost_grows_when_roaming () =
  let sys = make 12 in
  let g = Mail.Location_system.graph sys in
  let u = List.hd (in_region sys "r0") in
  (* several checks at the primary host *)
  for _ = 1 to 5 do
    Mail.Location_system.run_until sys (Mail.Location_system.now sys +. 10.);
    ignore (Mail.Location_system.check_mail sys u)
  done;
  let at_home = Dsim.Stats.Summary.mean (Mail.Location_system.retrieval_cost_stats sys) in
  Alcotest.(check bool) "cost recorded" true (Float.is_finite at_home);
  (* roam across every host of the region: average cost must not be
     free, and the counter machinery must see the roaming checks *)
  let hosts =
    List.filter (fun v -> Netsim.Graph.kind g v = Netsim.Graph.Host)
      (Netsim.Graph.nodes_in_region g "r0")
  in
  List.iter
    (fun h ->
      Mail.Location_system.run_until sys (Mail.Location_system.now sys +. 10.);
      ignore (Mail.Location_system.login sys u ~host:h))
    hosts;
  let overall = Mail.Location_system.retrieval_cost_stats sys in
  Alcotest.(check bool) "many samples" true (Dsim.Stats.Summary.count overall >= 10);
  Alcotest.(check bool) "positive costs" true (Dsim.Stats.Summary.max overall > 0.)

(* A 3-region site from the scale generator: 6 hosts and 3 servers per
   region, so every host has a full nearest-first order to check. *)
let scale_site () =
  Netsim.Topology.scale_site ~rng:(Dsim.Rng.create 21) ~users_per_host:2
    (Netsim.Topology.sized_hierarchy ~regions:3 ~hosts_per_region:6
       ~servers_per_region:3 ~gateways_per_region:1 ())

(* The order computed from scratch: a fresh Dijkstra over the static
   graph, the host's region servers sorted stably by its distances. *)
let oracle_order (site : Netsim.Topology.mail_site) host =
  let g = site.graph in
  let tree = Netsim.Shortest_path.dijkstra g host in
  List.filter
    (fun s -> String.equal (Netsim.Graph.region g s) (Netsim.Graph.region g host))
    site.servers
  |> List.stable_sort (fun a b ->
         Float.compare
           (Netsim.Shortest_path.distance tree a)
           (Netsim.Shortest_path.distance tree b))

let check_orders sys (site : Netsim.Topology.mail_site) what =
  List.iter
    (fun (h, _) ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s: host %d" what h)
        (oracle_order site h)
        (Mail.Location_system.nearest_servers sys h))
    site.hosts

(* Cut the first link of every host's shortest path to its nearest
   server; returns each host with that server and its pre-cut distance. *)
let cut_nearest_links sys (site : Netsim.Topology.mail_site) =
  let net = Mail.Location_system.net sys in
  List.map
    (fun (h, _) ->
      let nearest = List.hd (oracle_order site h) in
      let tree = Netsim.Shortest_path.dijkstra site.graph h in
      (match Netsim.Shortest_path.path tree nearest with
      | Some (_ :: next :: _) -> Netsim.Net.set_link_down net h next
      | Some _ | None -> Alcotest.fail "host has no path to its nearest server");
      (h, nearest, Netsim.Shortest_path.distance tree nearest))
    site.hosts

let test_nearest_servers_oracle () =
  let site = scale_site () in
  let sys = Mail.Location_system.create site in
  Alcotest.(check int) "9 servers" 9 (List.length site.servers);
  check_orders sys site "fresh";
  List.iter
    (fun (h, _) ->
      Alcotest.(check int) "3 region servers" 3
        (List.length (Mail.Location_system.nearest_servers sys h)))
    site.hosts;
  let cuts = cut_nearest_links sys site in
  (* The cuts are real: the transport now routes every host to its
     nearest server the long way round (or not at all)... *)
  let net = Mail.Location_system.net sys in
  List.iter
    (fun (h, nearest, before) ->
      Alcotest.(check bool) "cut lengthens the route" true
        (Netsim.Net.distance net h nearest > before))
    cuts;
  (* ...yet the order is by static graph distance, by design: cached
     answers and answers first computed after the cuts both ignore
     them. *)
  check_orders sys site "after cuts, cached";
  let site' = scale_site () in
  let sys' = Mail.Location_system.create site' in
  ignore (cut_nearest_links sys' site');
  check_orders sys' site' "after cuts, first ask"

(* The same oracle for design 1: a runtime user's authority list is the
   [replication] servers nearest its host over all servers.  Two users
   per host: the first ask fills the per-host order, the second reads
   it from the cache. *)
let test_add_user_nearest_oracle () =
  let site = scale_site () in
  let sys = Mail.Syntax_system.create site in
  let replication = Mail.Syntax_system.default_config.replication in
  List.iter
    (fun (h, _) ->
      let fresh =
        Netsim.Shortest_path.by_distance
          (Netsim.Shortest_path.dijkstra site.graph h)
          (Mail.Syntax_system.server_nodes sys)
        |> List.filteri (fun i _ -> i < replication)
      in
      List.iter
        (fun user ->
          let u = Mail.Syntax_system.add_user sys ~host:h ~user in
          Alcotest.(check (list int))
            (Printf.sprintf "host %d, %s" h user)
            fresh
            (Mail.User_agent.authority (Mail.Syntax_system.agent sys u)))
        [ "first"; "cached" ])
    site.hosts

(* Login with the nearest server crashed informs the next server of
   the cached order: that server records the update and gossips it to
   the one other live peer.  A second run crashes that next server
   while the update is in flight and sees no update land, so it was
   the login's only target. *)
let test_login_skips_crashed_nearest () =
  let login_updates ~crash_next =
    let site = scale_site () in
    let sys = Mail.Location_system.create site in
    let net = Mail.Location_system.net sys in
    let u = List.hd (Mail.Location_system.users sys) in
    let host = Mail.Location_system.primary_host sys u in
    let order = Mail.Location_system.nearest_servers sys host in
    Netsim.Net.set_down net (List.nth order 0);
    ignore (Mail.Location_system.login sys u ~host);
    if crash_next then Netsim.Net.set_down net (List.nth order 1);
    Mail.Location_system.run_until sys (Mail.Location_system.now sys +. 500.);
    let c = Mail.Location_system.counters sys in
    Alcotest.(check int) "login served" 0 (Dsim.Stats.Counter.get c "login_unserved");
    Dsim.Stats.Counter.get c "location_updates"
  in
  Alcotest.(check int) "next server and its live peer updated" 2
    (login_updates ~crash_next:false);
  Alcotest.(check int) "the update went to the next server" 0
    (login_updates ~crash_next:true)

let test_config_hash_groups () =
  let config = { Mail.Location_system.default_config with hash_groups = 2 } in
  let sys = make ~config 10 in
  let u = user sys 0 in
  Alcotest.(check bool) "authority within region servers" true
    (List.for_all
       (fun s -> List.mem s (Mail.Location_system.server_nodes sys))
       (Mail.Location_system.authority_of sys u))

let suite =
  [
    ( "location_system",
      [
        Alcotest.test_case "construction" `Quick test_construction;
        Alcotest.test_case "hash authority ignores host" `Quick
          test_hash_authority_host_independent;
        Alcotest.test_case "cross-region delivery" `Quick test_cross_region_delivery;
        Alcotest.test_case "login moves and retrieves" `Quick
          test_login_moves_and_retrieves;
        Alcotest.test_case "foreign login rejected" `Quick
          test_login_foreign_region_rejected;
        Alcotest.test_case "notification follows user" `Quick
          test_notification_follows_user;
        Alcotest.test_case "hash rebalancing" `Quick test_rebalance_hash;
        Alcotest.test_case "cross-region migration" `Quick test_migrate_region;
        Alcotest.test_case "old-name mail redirected" `Quick
          test_mail_to_old_name_redirected;
        Alcotest.test_case "retrieval cost accounting" `Quick
          test_retrieval_cost_grows_when_roaming;
        Alcotest.test_case "custom hash groups" `Quick test_config_hash_groups;
        Alcotest.test_case "nearest servers match a fresh Dijkstra" `Quick
          test_nearest_servers_oracle;
        Alcotest.test_case "add_user authority matches a fresh Dijkstra" `Quick
          test_add_user_nearest_oracle;
        Alcotest.test_case "login skips a crashed nearest server" `Quick
          test_login_skips_crashed_nearest;
      ] );
  ]
