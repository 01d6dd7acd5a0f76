(* Behaviour of the machine both designs share ({!Mail.Core}), each
   test written once and run on design 1 and design 2 — both are
   [Mail.Core.t] values, so [Mail.Core.Ops] drives either. *)

module Ops = Mail.Core.Ops

let hier_site seed =
  let rng = Dsim.Rng.create seed in
  let g = Netsim.Topology.hierarchical ~rng Netsim.Topology.default_hierarchy in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }

let syntax () = Mail.Syntax_system.create (hier_site 31)
let location () = Mail.Location_system.create (hier_site 31)
let name = Alcotest.testable Naming.Name.pp Naming.Name.equal

(* A host other than [u]'s, in another region when [cross_region]; its
   own ["u0"] makes [u]'s token taken there. *)
let target_host sys u ~cross_region =
  let g = Ops.graph sys in
  List.find
    (fun h ->
      (not (String.equal (Netsim.Graph.label g h) (Naming.Name.host u)))
      && not
           (cross_region
           && String.equal (Netsim.Graph.region g h) (Naming.Name.region u)))
    (Netsim.Graph.nodes_of_kind g Netsim.Graph.Host)

(* Migration onto a host where the user token is taken renames the user
   to [<user>-m1]; mail sent to the old name reaches the new agent and
   not the user who already held the token. *)
let rename_into_taken_name sys ~migrate ~cross_region () =
  let users = Ops.users sys in
  let u = List.find (fun n -> String.equal (Naming.Name.user n) "u0") users in
  let new_host = target_host sys u ~cross_region in
  let g = Ops.graph sys in
  let holder =
    Naming.Name.make ~region:(Netsim.Graph.region g new_host)
      ~host:(Netsim.Graph.label g new_host) ~user:"u0"
  in
  Alcotest.(check bool) "token taken at the destination" true (List.mem holder users);
  let new_name = migrate sys u ~new_host in
  Alcotest.(check string) "uniquified token" "u0-m1" (Naming.Name.user new_name);
  Alcotest.(check string) "destination host" (Netsim.Graph.label g new_host)
    (Naming.Name.host new_name);
  Alcotest.(check (option name)) "old name redirects" (Some new_name)
    (Ops.redirect_target sys u);
  let sender =
    List.find
      (fun n -> not (Naming.Name.equal n u || Naming.Name.equal n holder))
      users
  in
  let m = Ops.submit sys ~sender ~recipient:u () in
  Ops.quiesce sys;
  Alcotest.(check bool) "deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check name) "recipient rewritten" new_name m.Mail.Message.recipient;
  Alcotest.(check int) "new agent retrieves it" 1
    (Ops.check_mail sys new_name).Mail.User_agent.retrieved;
  Alcotest.(check int) "token holder does not" 0
    (Ops.check_mail sys holder).Mail.User_agent.retrieved

let unknown_recipient_rejected sys () =
  let sender = List.hd (Ops.users sys) in
  let ghost = Naming.Name.make ~region:"r0" ~host:"nowhere" ~user:"ghost" in
  (try
     ignore (Ops.submit sys ~sender ~recipient:ghost ());
     Alcotest.fail "unknown recipient accepted"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "nothing submitted" 0 (List.length (Ops.submitted sys))

let suite =
  [
    ( "core",
      [
        Alcotest.test_case "design 1: migration into a taken name picks -m1" `Quick
          (fun () ->
            rename_into_taken_name (syntax ()) ~migrate:Mail.Syntax_system.migrate_user
              ~cross_region:false ());
        Alcotest.test_case "design 2: migration into a taken name picks -m1" `Quick
          (fun () ->
            rename_into_taken_name (location ())
              ~migrate:Mail.Location_system.migrate_region ~cross_region:true ());
        Alcotest.test_case "design 1: unknown recipient rejected" `Quick (fun () ->
            unknown_recipient_rejected (syntax ()) ());
        Alcotest.test_case "design 2: unknown recipient rejected" `Quick (fun () ->
            unknown_recipient_rejected (location ()) ());
      ] );
  ]
