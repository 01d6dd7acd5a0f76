(* Campus mail under server failures (design 1, §3.1).

   A university campus runs three mail servers for six departmental
   hosts.  Servers crash and recover while students keep sending mail;
   the example shows the failure-handling machinery end to end:
   deposits fail over to secondary authority servers, the GetMail
   algorithm drains recovered servers, and no message is ever lost.
   A graduating student finally migrates to another host, exercising
   the §3.1.4 rename-with-redirection procedure.

   Run with: dune exec examples/campus_mail.exe *)

let () =
  let site = Netsim.Topology.paper_fig1 () in
  let sys = Mail.Syntax_system.create site in
  let net = Mail.Syntax_system.net sys in
  let users = Array.of_list (Mail.Syntax_system.users sys) in
  let rng = Dsim.Rng.create 1988 in

  (* Background traffic: 60 messages over 3000 time units. *)
  let sent = ref [] in
  List.iter
    (fun at ->
      let s = Dsim.Rng.int rng (Array.length users) in
      let r = (s + 1 + Dsim.Rng.int rng (Array.length users - 1)) mod Array.length users in
      sent :=
        Mail.Syntax_system.submit_at sys ~at ~sender:users.(s) ~recipient:users.(r)
          ~subject:(Printf.sprintf "memo-%g" at) ()
        :: !sent)
    (Queueing.Workload.uniform_arrivals ~rng ~count:60 ~horizon:3000.);

  (* Two scheduled outages: S1 early, S2 later, overlapping nothing. *)
  let servers = Mail.Syntax_system.server_nodes sys in
  let s1 = List.nth servers 0 and s2 = List.nth servers 1 in
  Netsim.Fault.(
    apply net
      { windows =
          [ { target = Node s1; kind = "crash"; start = 500.; duration = 400. };
            { target = Node s2; kind = "crash"; start = 1500.; duration = 600. } ];
        horizon = 3000. });
  Printf.printf "scheduled outages: S1 down [500,900), S2 down [1500,2100)\n";

  (* Students check mailboxes every 250 time units. *)
  Array.iteri
    (fun i u ->
      let rec arm at =
        if at < 3000. then begin
          Mail.Syntax_system.check_mail_at sys ~at u;
          arm (at +. 250.)
        end
      in
      arm (50. +. float_of_int i))
    users;

  Mail.Syntax_system.run_until sys 3000.;
  Mail.Syntax_system.quiesce sys;

  (* Everyone checks one final time after the dust settles. *)
  Array.iter (fun u -> ignore (Mail.Syntax_system.check_mail sys u)) users;

  let report = Mail.Evaluation.of_syntax sys in
  Format.printf "@.%a@.@." Mail.Evaluation.pp report;
  assert (report.Mail.Evaluation.undelivered = 0);
  assert (report.Mail.Evaluation.unretrieved = 0);
  Printf.printf "no mail was lost across both outages ✔\n";
  Printf.printf "retries used: %d, polls per check: %.2f\n"
    report.Mail.Evaluation.retries report.Mail.Evaluation.polls_per_check;

  (* Graduation: the first user moves from H1 to H6 and gets a new
     name; mail addressed to the old name is redirected. *)
  let graduate = users.(0) in
  let h6 = fst (List.nth site.Netsim.Topology.hosts 5) in
  let new_name = Mail.Syntax_system.migrate_user sys graduate ~new_host:h6 in
  Printf.printf "\n%s graduated and is now %s\n"
    (Naming.Name.to_string graduate)
    (Naming.Name.to_string new_name);
  let farewell =
    Mail.Syntax_system.submit sys ~sender:users.(5) ~recipient:graduate
      ~subject:"farewell" ()
  in
  Mail.Syntax_system.quiesce sys;
  ignore (Mail.Syntax_system.check_mail sys new_name);
  Printf.printf "mail to the old address was redirected and read: %b\n"
    (Mail.Message.is_retrieved farewell)
