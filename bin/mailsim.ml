(* mailsim — command-line driver for the mail-system simulations.

   Subcommands map onto the experiments of DESIGN.md so any individual
   result can be regenerated (and varied) without rebuilding the full
   bench harness. *)

open Cmdliner

(* Shared flags and helpers (seed, duration, volumes, output files)
   live in {!Cmdline}; aliased here so subcommand bodies read plainly. *)
let hier_site = Cmdline.hier_site
let seed_arg = Cmdline.seed
let with_output = Cmdline.with_output

(* --- balance ----------------------------------------------------------- *)

let balance_cmd =
  let run seed hosts servers batch fig1 =
    let site =
      if fig1 then Netsim.Topology.paper_fig1 ()
      else begin
        let rng = Dsim.Rng.create seed in
        Netsim.Topology.random_mail_site ~rng ~hosts ~servers ~users_per_host:(20, 60)
          ~extra_edges:hosts
      end
    in
    let total = List.fold_left (fun a (_, n) -> a + n) 0 site.Netsim.Topology.hosts in
    let servers_n = List.length site.Netsim.Topology.servers in
    let capacity _ =
      if fig1 then 100 else 1 + (total * 5 / (4 * servers_n))
    in
    let problem = Loadbalance.Assignment.problem_of_site ~capacity site in
    let t = Loadbalance.Balancer.initialize problem in
    Format.printf "initial assignment:@.%a@.@."
      (Loadbalance.Assignment.pp_table problem) t;
    let stats = Loadbalance.Balancer.balance ~batch problem t in
    Format.printf "balanced assignment:@.%a@.@.%a@."
      (Loadbalance.Assignment.pp_table problem)
      t Loadbalance.Balancer.pp_stats stats
  in
  let hosts = Arg.(value & opt int 10 & info [ "hosts" ] ~doc:"Host count (random site).") in
  let servers = Arg.(value & opt int 3 & info [ "servers" ] ~doc:"Server count (random site).") in
  let batch = Arg.(value & flag & info [ "batch" ] ~doc:"Move users in bulk.") in
  let fig1 =
    Arg.(value & flag & info [ "fig1" ] ~doc:"Use the paper's Figure 1 example site.")
  in
  Cmd.v
    (Cmd.info "balance" ~doc:"Run the §3.1.1 server-assignment algorithm (T1/T2).")
    Term.(const run $ seed_arg $ hosts $ servers $ batch $ fig1)

(* --- getmail ----------------------------------------------------------- *)

let getmail_cmd =
  let run seed duration mail_count policy faults metrics_file
      trace_file trace_summary resolution timeseries_file stable =
    let retrieval =
      match policy with
      | "getmail" -> Mail.Scenario.Get_mail
      | "poll-all" -> Mail.Scenario.Poll_all
      | "naive" -> Mail.Scenario.Naive
      | other -> failwith (Printf.sprintf "unknown policy %S" other)
    in
    let faults = Option.map Netsim.Fault.parse faults in
    (* Sampling turns on when a timeseries was asked for (or a
       resolution given explicitly). *)
    let sampling =
      match (resolution, timeseries_file) with
      | Some r, _ -> Some r
      | None, Some _ -> Some 50.
      | None, None -> None
    in
    let spec =
      {
        Mail.Scenario.default_spec with
        seed;
        duration;
        mail_count;
        retrieval;
        faults;
        sampling;
        monitors = Telemetry.Monitor.standard;
      }
    in
    let o = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) spec in
    Printf.printf "availability     %.3f\n" o.Mail.Scenario.availability;
    Printf.printf "polls per check  %.3f\n" o.Mail.Scenario.final_polls_per_check;
    Printf.printf "inbox total      %d\n" o.Mail.Scenario.inbox_total;
    Format.printf "ledger           %a@." Mail.Ledger.pp_verdict
      o.Mail.Scenario.ledger;
    Format.printf "%a@." Mail.Evaluation.pp o.Mail.Scenario.report;
    if trace_summary then begin
      Format.printf "@[<v>%a@]@." Telemetry.Critical_path.pp
        (Telemetry.Critical_path.analyze o.Mail.Scenario.tracer);
      Format.printf "@[<v>%a@]@." Telemetry.Critical_path.pp
        (Telemetry.Critical_path.analyze ~root:"getmail.check"
           o.Mail.Scenario.tracer)
    end;
    (match metrics_file with
    | None -> ()
    | Some file ->
        Cmdline.write_json ~what:"metrics" file
          (Telemetry.Registry.to_json ~include_volatile:(not stable)
             o.Mail.Scenario.metrics));
    (match (timeseries_file, o.Mail.Scenario.timeseries) with
    | Some file, Some ts ->
        Cmdline.write_json ~what:"timeseries" file
          (Telemetry.Timeseries.to_json ts)
    | _ -> ());
    match trace_file with
    | None -> ()
    | Some file ->
        with_output ~what:"trace" file (fun oc ->
            (* One JSON object per line — spans, then monitor alerts,
               then server outages (the campaign's node windows) — each
               tagged with a "type" so consumers can split the stream. *)
            let module J = Telemetry.Json in
            let emit kind json =
              let line =
                match json with
                | J.Obj fields -> J.Obj (("type", J.String kind) :: fields)
                | other -> other
              in
              output_string oc (J.to_string line);
              output_char oc '\n'
            in
            List.iter
              (fun span -> emit "span" (Telemetry.Span.to_json span))
              (Telemetry.Tracer.spans o.Mail.Scenario.tracer);
            Option.iter
              (fun m ->
                List.iter
                  (fun a -> emit "alert" (Telemetry.Monitor.alert_to_json a))
                  (Telemetry.Monitor.alerts m))
              o.Mail.Scenario.monitor;
            List.iter
              (fun (w : Netsim.Fault.window) ->
                match w.target with
                | Netsim.Fault.Node node ->
                    emit "outage"
                      (J.Obj
                         [
                           ("node", J.Int node);
                           ("kind", J.String w.kind);
                           ("start", J.Float w.start);
                           ("finish", J.Float (w.start +. w.duration));
                         ])
                | Netsim.Fault.Link _ -> ())
              o.Mail.Scenario.fault_schedule.Netsim.Fault.windows)
  in
  let duration = Cmdline.duration in
  let count = Cmdline.messages in
  let policy =
    Arg.(
      value
      & opt string "getmail"
      & info [ "policy" ] ~doc:"Retrieval policy: getmail, poll-all or naive.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"CAMPAIGN"
          ~doc:
            ("Deterministic fault campaign, e.g. \
              $(b,crash:0.002/150,link:0.001,partition:regionA,burst:0.3); \
              random server outages alone are $(b,crash:RATE/150). "
           ^ Cmdline.campaign_syntax_doc))
  in
  let metrics_file =
    Cmdline.output_file ~flag:"metrics"
      ~doc:
        "Write the run's full metric registry (counters, gauges, latency \
         histograms with p50/p90/p99) to $(docv) as JSON."
  in
  let trace_file =
    Cmdline.output_file ~flag:"trace-out"
      ~doc:
        "Write the run's spans, alerts and outages to $(docv) as JSONL: one \
         object per line, tagged type=span (per-message and per-check trace \
         spans and fault windows), type=alert (each standard health-rule \
         alert; needs sampling, see $(b,--sample-resolution)) or type=outage \
         (each server window of the $(b,--faults) campaign, crash and burst \
         alike: node, kind, start, finish)."
  in
  let trace_summary =
    Arg.(
      value
      & flag
      & info [ "trace-summary" ]
          ~doc:"Print per-stage critical-path latency breakdowns (p50/p90/p99) \
                reconstructed from the run's message and retrieval traces.")
  in
  Cmd.v
    (Cmd.info "getmail" ~doc:"Drive a design-1 scenario and report §4 metrics (C1/C2).")
    Term.(
      const run $ seed_arg $ duration $ count $ policy $ faults
      $ metrics_file $ trace_file $ trace_summary $ Cmdline.resolution
      $ Cmdline.timeseries_file $ Cmdline.stable)

(* --- faults ------------------------------------------------------------- *)

let faults_cmd =
  let run seed campaign duration mail_count ledger_file stable =
    let campaign = Netsim.Fault.parse campaign in
    let spec =
      {
        Mail.Scenario.default_spec with
        seed;
        duration;
        mail_count;
        faults = Some campaign;
      }
    in
    (* Partitions need region boundaries, so drive the hierarchical
       multi-region site rather than the single-region Figure 1 one. *)
    let site () = hier_site ~seed ~regions:3 ~hosts_per_region:4 in
    let results =
      [
        ("syntax", Mail.Scenario.run_syntax (site ()) spec);
        ("location", Mail.Scenario.run_location ~roam_probability:0.3 (site ()) spec);
        ("attribute", Mail.Scenario.run_attribute ~roam_probability:0.3 (site ()) spec);
      ]
    in
    Printf.printf "campaign: %s\n\n" (Netsim.Fault.to_string campaign);
    List.iter
      (fun (name, o) ->
        Printf.printf "[%s] availability %.3f, fault windows %.0f\n" name
          o.Mail.Scenario.availability
          (Telemetry.Registry.get_gauge o.Mail.Scenario.metrics "fault_windows");
        Format.printf "  %a@." Mail.Ledger.pp_verdict o.Mail.Scenario.ledger)
      results;
    (match ledger_file with
    | None -> ()
    | Some file ->
        let entry (name, o) =
          ( name,
            Telemetry.Json.Obj
              [
                ("availability", Telemetry.Json.Float o.Mail.Scenario.availability);
                ( "fault_windows",
                  Telemetry.Json.Float
                    (Telemetry.Registry.get_gauge o.Mail.Scenario.metrics
                       "fault_windows") );
                ("ledger", Mail.Ledger.verdict_to_json o.Mail.Scenario.ledger);
                ( "metrics",
                  Telemetry.Registry.to_json ~include_volatile:(not stable)
                    o.Mail.Scenario.metrics );
              ] )
        in
        let json =
          Telemetry.Json.Obj
            [
              ("schema", Telemetry.Json.String "mailsys.ledger/2");
              ("campaign", Telemetry.Json.String (Netsim.Fault.to_string campaign));
              ("seed", Telemetry.Json.Int seed);
              ("designs", Telemetry.Json.Obj (List.map entry results));
            ]
        in
        Cmdline.write_json ~what:"ledger report" file json);
    let all_ok =
      List.for_all (fun (_, o) -> o.Mail.Scenario.ledger.Mail.Ledger.ok) results
    in
    if not all_ok then begin
      Printf.eprintf "mailsim: delivery invariant violated\n";
      exit 1
    end
  in
  let campaign =
    Arg.(
      value
      & opt string "crash:0.002/150,link:0.0008,partition:r1@1500+600,burst:0.25"
      & info [ "campaign" ] ~docv:"CAMPAIGN"
          ~doc:"Fault campaign to run (same syntax as $(b,getmail --faults)).")
  in
  let duration = Cmdline.duration in
  let count = Cmdline.messages in
  let ledger_file =
    Cmdline.output_file ~flag:"ledger-out"
      ~doc:"Write per-design availability and ledger verdicts to $(docv) as JSON."
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run one fault campaign against all three designs and check the \
          §3.1.2c no-lost-mail invariant; exits non-zero on any violation.")
    Term.(
      const run $ seed_arg $ campaign $ duration $ count $ ledger_file
      $ Cmdline.stable)

(* --- scale ------------------------------------------------------------- *)

let scale_cmd =
  let run spec replication json_file timeseries_file stable =
    let r = Mail.Scale.run { spec with Mail.Scale.replication } in
    Format.printf "%a@." Mail.Scale.pp r;
    Option.iter
      (fun file ->
        Cmdline.write_json ~what:"scale report" file
          (Mail.Scale.to_json ~include_volatile:(not stable) r))
      json_file;
    (match (timeseries_file, r.Mail.Scale.outcome.Mail.Scenario.timeseries) with
    | Some file, Some ts ->
        Cmdline.write_json ~what:"timeseries" file (Telemetry.Timeseries.to_json ts)
    | _ -> ());
    if not r.Mail.Scale.outcome.Mail.Scenario.ledger.Mail.Ledger.ok then begin
      Printf.eprintf "mailsim: delivery invariant violated\n";
      exit 1
    end
  in
  let size =
    let sizes = List.map (fun s -> (s.Mail.Scale.size, s)) Mail.Scale.sizes in
    Arg.(
      value
      & opt (enum sizes) Mail.Scale.quick
      & info [ "size" ] ~docv:"SIZE"
          ~doc:
            "Named scale: $(b,quick) (240 users, 5k messages), $(b,mid) (200k \
             users and messages) or $(b,full) (a million of each).")
  in
  let replication =
    Arg.(
      value
      & opt int Mail.Scale.quick.Mail.Scale.replication
      & info [ "replication" ] ~docv:"N"
          ~doc:
            "Authority-chain length, capped at the server count — the \
             availability dial of EXPERIMENTS.md S2.")
  in
  let json_file =
    Cmdline.output_file ~flag:"json-out"
      ~doc:"Write the scale report (mailsys.scale/5) to $(docv) as JSON."
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run the scale experiment (Mail.Scale) under the standard fault \
          campaign and report virtual-time throughput, route-cache, \
          replication, ledger and SLO results (wall-clock numbers live in \
          the bench harness).")
    Term.(
      const run $ size $ replication $ json_file $ Cmdline.timeseries_file
      $ Cmdline.stable)

(* --- monitor ------------------------------------------------------------ *)

let monitor_cmd =
  (* [--stable] is accepted for interface symmetry but has nothing to
     scrub here: the timeseries never samples volatile metrics. *)
  let run seed duration mail_count campaign rules resolution timeseries_file
      _stable =
    let campaign =
      match campaign with
      | Some s -> Netsim.Fault.parse s
      | None -> Netsim.Fault.standard
    in
    let rules =
      match rules with
      | Some s -> Telemetry.Monitor.parse s
      | None -> Telemetry.Monitor.standard
    in
    let resolution = Option.value resolution ~default:50. in
    let spec =
      {
        Mail.Scenario.default_spec with
        seed;
        duration;
        mail_count;
        faults = Some campaign;
        sampling = Some resolution;
        monitors = rules;
      }
    in
    (* Same multi-region site as the faults subcommand, so partition
       campaigns have region boundaries to cut. *)
    let o =
      Mail.Scenario.run_syntax (hier_site ~seed ~regions:3 ~hosts_per_region:4)
        spec
    in
    let monitor =
      match o.Mail.Scenario.monitor with Some m -> m | None -> assert false
    in
    Printf.printf "campaign:   %s\n" (Netsim.Fault.to_string campaign);
    Printf.printf "rules:      %s\n"
      (Telemetry.Monitor.to_string (Telemetry.Monitor.rules monitor));
    Printf.printf "resolution: %g (%d windows)\n\n" resolution
      (Telemetry.Monitor.windows_evaluated monitor);
    Format.printf "@[<v>%a@]@." Telemetry.Monitor.pp_summary monitor;
    let alerts = Telemetry.Monitor.alerts monitor in
    let shown = 20 in
    List.iteri
      (fun i (a : Telemetry.Monitor.alert) ->
        if i < shown then
          Printf.printf "w%-4d t=%-7.0f %s: %s\n" a.Telemetry.Monitor.a_window
            a.Telemetry.Monitor.a_time a.Telemetry.Monitor.a_rule
            a.Telemetry.Monitor.a_message)
      alerts;
    if List.length alerts > shown then
      Printf.printf "... %d more alerts\n" (List.length alerts - shown);
    (match (timeseries_file, o.Mail.Scenario.timeseries) with
    | Some file, Some ts ->
        Cmdline.write_json ~what:"timeseries" file
          (Telemetry.Timeseries.to_json ts)
    | _ -> ());
    if not o.Mail.Scenario.ledger.Mail.Ledger.ok then begin
      Printf.eprintf "mailsim: delivery invariant violated\n";
      exit 1
    end;
    if Telemetry.Monitor.slo_violated monitor then begin
      Printf.eprintf "mailsim: SLO violated (a burn-rate rule fired)\n";
      exit 1
    end
  in
  let campaign =
    Arg.(
      value
      & opt (some string) None
      & info [ "campaign" ] ~docv:"CAMPAIGN"
          ~doc:
            ("Fault campaign to replay (default: the standard campaign). "
           ^ Cmdline.campaign_syntax_doc))
  in
  let rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"RULES"
          ~doc:
            "Monitor rules, comma-separated \
             $(b,NAME=METRIC[{k=v}][.SELECTOR]COND) with COND one of >x, <x, \
             !n (no change for n windows) or ~t/w/b (SLO burn: value over t \
             in more than fraction b of the last w windows).  Default: the \
             standard rule set.")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Replay a scenario with per-window health monitors and report which \
          rules fired; exits non-zero on an SLO (burn-rate) violation or a \
          delivery-invariant failure.")
    Term.(
      const run $ seed_arg $ Cmdline.duration
      $ Cmdline.messages
      $ campaign $ rules $ Cmdline.resolution $ Cmdline.timeseries_file
      $ Cmdline.stable)

(* --- replicas ---------------------------------------------------------- *)

let replicas_cmd =
  let run seed hosts servers fig1 replication =
    let site =
      if fig1 then Netsim.Topology.paper_fig1 ()
      else begin
        let rng = Dsim.Rng.create seed in
        Netsim.Topology.random_mail_site ~rng ~hosts ~servers
          ~users_per_host:(20, 60) ~extra_edges:hosts
      end
    in
    let g = site.Netsim.Topology.graph in
    let total = List.fold_left (fun a (_, n) -> a + n) 0 site.Netsim.Topology.hosts in
    let servers_n = List.length site.Netsim.Topology.servers in
    let capacity _ = if fig1 then 100 else 1 + (total * 5 / (4 * servers_n)) in
    let problem = Loadbalance.Assignment.problem_of_site ~capacity site in
    let t, _ = Loadbalance.Balancer.run problem in
    (* [Replicas.assign] rejects infeasible replication outright; the
       inspection tool caps explicitly — and says so — like the mail
       systems do. *)
    let effective = min replication servers_n in
    if effective < replication then
      Printf.printf
        "note: replication %d infeasible with %d servers; capped to %d\n\n"
        replication servers_n effective;
    let r = Loadbalance.Replicas.assign ~replication:effective problem t in
    Printf.printf "effective replication: %d\n\n" r.Loadbalance.Replicas.replication;
    let label v = Netsim.Graph.label g v in
    Array.iteri
      (fun i slots ->
        let host, users = List.nth site.Netsim.Topology.hosts i in
        Printf.printf "%-6s (%3d users)\n" (label host) users;
        Array.iteri
          (fun k chain ->
            Printf.printf "  slot %d: %s\n" k
              (String.concat " -> " (List.map label chain)))
          slots)
      r.Loadbalance.Replicas.chains;
    Printf.printf "\nsecondary load (users inherited if the primary fails):\n";
    List.iteri
      (fun j s ->
        Printf.printf "  %-6s %d\n" (label s) r.Loadbalance.Replicas.secondary_load.(j))
      site.Netsim.Topology.servers;
    Printf.printf "secondary imbalance: %.3f\n"
      (Loadbalance.Replicas.secondary_imbalance problem r)
  in
  let hosts =
    Arg.(value & opt int 10 & info [ "hosts" ] ~doc:"Host count (random site).")
  in
  let servers =
    Arg.(value & opt int 3 & info [ "servers" ] ~doc:"Server count (random site).")
  in
  let fig1 =
    Arg.(value & flag & info [ "fig1" ] ~doc:"Use the paper's Figure 1 example site.")
  in
  let replication =
    Arg.(
      value
      & opt int 3
      & info [ "replication" ]
          ~doc:"Requested authority-chain length (capped at the server count).")
  in
  Cmd.v
    (Cmd.info "replicas"
       ~doc:
         "Inspect the §3.1.1 secondary-server assignment: per-host replica \
          chains, the secondary load each server inherits on a primary crash, \
          and the effective replication factor.")
    Term.(const run $ seed_arg $ hosts $ servers $ fig1 $ replication)

(* --- mst --------------------------------------------------------------- *)

let mst_cmd =
  let run seed nodes =
    let rng = Dsim.Rng.create seed in
    let g =
      Netsim.Topology.random_connected ~rng ~n:nodes ~extra_edges:(2 * nodes)
        ~min_weight:1. ~max_weight:8.
    in
    let k = Mst.Kruskal.run g in
    let d = Mst.Ghs.run g in
    Printf.printf "nodes %d, edges %d\n" nodes (Netsim.Graph.edge_count g);
    Printf.printf "kruskal weight   %.3f\n" k.Mst.Kruskal.total_weight;
    Printf.printf "ghs weight       %.3f (same tree: %b)\n" d.Mst.Ghs.total_weight
      (k.Mst.Kruskal.edges = d.Mst.Ghs.edges);
    Printf.printf "ghs messages     %d (bound %d)\n" d.Mst.Ghs.messages
      (Mst.Ghs.message_bound g);
    Printf.printf "ghs finish time  %.2f\n" d.Mst.Ghs.finish_time
  in
  let nodes = Arg.(value & opt int 64 & info [ "nodes" ] ~doc:"Graph size.") in
  Cmd.v
    (Cmd.info "mst" ~doc:"Distributed GHS MST vs centralised Kruskal (C8).")
    Term.(const run $ seed_arg $ nodes)

(* --- backbone ---------------------------------------------------------- *)

let backbone_cmd =
  let run seed regions budget =
    let site = hier_site ~seed ~regions ~hosts_per_region:6 in
    let g = site.Netsim.Topology.graph in
    let bb = Mst.Backbone.build g in
    Format.printf "%a@.@." (Mst.Backbone.pp g) bb;
    let flat = Mst.Backbone.flat_mst g in
    Printf.printf "flat global MST weight: %.3f\n\n" flat.Mst.Kruskal.total_weight;
    let ct = Mst.Cost_table.build bb ~source:"r0" in
    Format.printf "%a@." Mst.Cost_table.pp ct;
    let affordable = Mst.Cost_table.affordable ct ~budget in
    Printf.printf "\naffordable within %.1f: {%s}\n" budget
      (String.concat ", " affordable)
  in
  let regions = Cmdline.regions ~default:3 in
  let budget = Arg.(value & opt float 50. & info [ "budget" ] ~doc:"Broadcast budget.") in
  Cmd.v
    (Cmd.info "backbone" ~doc:"Backbone + local MSTs and the cost table (F2/C4).")
    Term.(const run $ seed_arg $ regions $ budget)

(* --- search ------------------------------------------------------------ *)

let search_cmd =
  let run seed regions key word org =
    let site = hier_site ~seed ~regions ~hosts_per_region:6 in
    let sys = Mail.Attribute_system.create site in
    Mail.Attribute_system.populate_random sys ~rng:(Dsim.Rng.create (seed + 1));
    let users = Mail.Location_system.users (Mail.Attribute_system.base sys) in
    let from = List.hd users in
    let viewer =
      match org with
      | Some o -> Naming.Attribute.member_of o
      | None -> Naming.Attribute.anyone
    in
    let pred =
      match word with
      | Some w -> Naming.Attribute.Has_keyword (key, w)
      | None -> Naming.Attribute.Has_key key
    in
    let res = Mail.Attribute_system.search sys ~from ~viewer pred in
    Format.printf "query: %a@." Naming.Attribute.pp_pred pred;
    Printf.printf "matches (%d):\n" (List.length res.Mail.Attribute_system.matches);
    List.iter
      (fun n -> Printf.printf "  %s\n" (Naming.Name.to_string n))
      res.Mail.Attribute_system.matches;
    Printf.printf "profiles examined: %d\n" res.Mail.Attribute_system.examined;
    Printf.printf "estimated cost:    %.2f\n" res.Mail.Attribute_system.estimated_cost;
    Printf.printf "search traffic:    %d messages, %d link crossings\n"
      res.Mail.Attribute_system.traffic.Mst.Broadcast.g_messages
      res.Mail.Attribute_system.traffic.Mst.Broadcast.g_link_crossings
  in
  let regions = Cmdline.regions ~default:3 in
  let key =
    Arg.(value & opt string "specialty" & info [ "key" ] ~doc:"Attribute key.")
  in
  let word =
    Arg.(
      value
      & opt (some string) (Some "mail")
      & info [ "word" ] ~doc:"Keyword to search for (omit for has-key).")
  in
  let org =
    Arg.(
      value
      & opt (some string) None
      & info [ "org" ] ~doc:"Search as a member of this organisation.")
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Attribute-based directory search (§3.3).")
    Term.(const run $ seed_arg $ regions $ key $ word $ org)

(* --- org --------------------------------------------------------------- *)

let org_cmd =
  let run servers availability local =
    Printf.printf "%-18s %14s %12s %12s %14s\n" "organisation" "storage/server"
      "lookup-msgs" "update-msgs" "availability";
    let show label org =
      let e =
        Naming.Organisation.estimate org ~servers ~server_availability:availability
          ~local_fraction:local
      in
      Printf.printf "%-18s %14.2f %12.2f %12.2f %14.6f\n" label
        e.Naming.Organisation.storage_fraction e.Naming.Organisation.lookup_messages
        e.Naming.Organisation.update_messages e.Naming.Organisation.availability
    in
    show "centralized" Naming.Organisation.Centralized;
    show "fully-replicated" Naming.Organisation.Fully_replicated;
    List.iter
      (fun r ->
        if r <= servers then
          show
            (Printf.sprintf "partitioned r=%d" r)
            (Naming.Organisation.Partitioned r))
      [ 1; 2; 3; 5 ]
  in
  let servers = Arg.(value & opt int 10 & info [ "servers" ] ~doc:"Name servers.") in
  let availability =
    Arg.(value & opt float 0.95 & info [ "availability" ] ~doc:"Per-server uptime.")
  in
  let local =
    Arg.(value & opt float 0.8 & info [ "local" ] ~doc:"Fraction of local lookups.")
  in
  Cmd.v
    (Cmd.info "org" ~doc:"Compare §2 name-service organisations (C9).")
    Term.(const run $ servers $ availability $ local)

(* --- lookup (fuzzy) ------------------------------------------------------ *)

let lookup_cmd =
  let run seed regions query =
    let site = hier_site ~seed ~regions ~hosts_per_region:6 in
    let sys = Mail.Attribute_system.create site in
    Mail.Attribute_system.populate_random sys ~rng:(Dsim.Rng.create (seed + 1));
    Printf.printf "fuzzy look-up of %S against every regional directory:\n" query;
    List.iter
      (fun r ->
        match Mail.Attribute_system.directory sys r with
        | None -> ()
        | Some dir ->
            let hits =
              Naming.Directory.fuzzy_query dir ~viewer:Naming.Attribute.anyone
                ~key:"city" ~max_distance:3 query
            in
            List.iter
              (fun (name, d) ->
                Printf.printf "  %-24s (city, distance %d, region %s)\n"
                  (Naming.Name.to_string name) d r)
              (List.filteri (fun i _ -> i < 3) hits))
      (Mail.Attribute_system.regions sys)
  in
  let regions = Cmdline.regions ~default:3 in
  let query =
    Arg.(value & opt string "bostn" & info [ "query" ] ~doc:"Possibly misspelled value.")
  in
  Cmd.v
    (Cmd.info "lookup" ~doc:"Misspelling-tolerant directory look-up (§3.3.1).")
    Term.(const run $ seed_arg $ regions $ query)

(* --- store --------------------------------------------------------------- *)

let store_cmd =
  let run replicas writes =
    let g = Netsim.Topology.ring ~n:(max 3 replicas) ~weight:1. in
    let engine = Dsim.Engine.create () in
    let store =
      Mail.Name_store.create ~engine ~graph:g ~replicas:(List.init replicas Fun.id) ()
    in
    let rng = Dsim.Rng.create 11 in
    for i = 0 to writes - 1 do
      let at = Dsim.Rng.float rng 1000. in
      Dsim.Engine.schedule_at engine at (fun () ->
          Mail.Name_store.register store
            (Naming.Name.make ~region:"r" ~host:"h"
               ~user:(Printf.sprintf "u%d" (i mod 40)))
            [ i ])
    done;
    if replicas > 1 then
      Netsim.Fault.(
        apply (Mail.Name_store.net store)
          { windows = [ { target = Node (replicas - 1); kind = "crash"; start = 300.; duration = 200. } ];
            horizon = 1000. });
    Dsim.Engine.run engine;
    Printf.printf "replicas          %d\n" replicas;
    Printf.printf "writes            %d\n" writes;
    Printf.printf "update messages   %d\n" (Mail.Name_store.update_messages store);
    Printf.printf "recovery resyncs  %d\n" (Mail.Name_store.resyncs store);
    Printf.printf "converged         %b\n" (Mail.Name_store.converged store)
  in
  let replicas = Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Replica count.") in
  let writes = Arg.(value & opt int 100 & info [ "writes" ] ~doc:"Registrations.") in
  Cmd.v
    (Cmd.info "store" ~doc:"Replicated name-database propagation (C14).")
    Term.(const run $ replicas $ writes)

(* --- media --------------------------------------------------------------- *)

let media_cmd =
  let run bandwidth =
    let config =
      { Mail.Syntax_system.default_config with bandwidth = Some bandwidth }
    in
    let sys = Mail.Syntax_system.create ~config (Netsim.Topology.paper_fig1 ()) in
    let users = Mail.Syntax_system.users sys in
    let a = List.nth users 0 and b = List.nth users 20 in
    let deliver label parts =
      let m = Mail.Syntax_system.submit sys ~sender:a ~recipient:b ~parts () in
      Mail.Syntax_system.quiesce sys;
      match Mail.Message.delivery_latency m with
      | Some l ->
          Printf.printf "%-24s %8dB  delivered in %8.2f\n" label
            (Mail.Message.size_bytes m) l
      | None -> Printf.printf "%-24s lost?!\n" label
    in
    Printf.printf "link bandwidth: %.0f bytes per time unit\n\n" bandwidth;
    deliver "text" [];
    deliver "voice 10s" [ Mail.Content.Voice { seconds = 10. } ];
    deliver "image 1024x768" [ Mail.Content.Image { width = 1024; height = 768 } ];
    deliver "facsimile 5 pages" [ Mail.Content.Facsimile { pages = 5 } ]
  in
  let bandwidth =
    Arg.(value & opt float 10_000. & info [ "bandwidth" ] ~doc:"Bytes per time unit.")
  in
  Cmd.v
    (Cmd.info "media" ~doc:"Multimedia mail under finite bandwidth (C13/§5).")
    Term.(const run $ bandwidth)

(* --- topo -------------------------------------------------------------- *)

let topo_cmd =
  let run seed kind regions =
    let g =
      match kind with
      | "fig1" -> (Netsim.Topology.paper_fig1 ()).Netsim.Topology.graph
      | "hier" -> (hier_site ~seed ~regions ~hosts_per_region:6).Netsim.Topology.graph
      | "ring" -> Netsim.Topology.ring ~n:8 ~weight:1.
      | "grid" -> Netsim.Topology.grid ~rows:4 ~cols:4 ~weight:1.
      | other -> failwith (Printf.sprintf "unknown topology %S" other)
    in
    Format.printf "%a@." Netsim.Graph.pp g;
    Printf.printf "diameter: %.2f\n" (Netsim.Shortest_path.diameter g)
  in
  let kind =
    Arg.(value & opt string "fig1" & info [ "kind" ] ~doc:"fig1, hier, ring or grid.")
  in
  let regions = Arg.(value & opt int 3 & info [ "regions" ] ~doc:"Regions for hier.") in
  Cmd.v
    (Cmd.info "topo" ~doc:"Print a topology (F1).")
    Term.(const run $ seed_arg $ kind $ regions)

let () =
  let doc = "Large electronic mail system simulations (ICDCS 1988 reproduction)." in
  let info = Cmd.info "mailsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            balance_cmd;
            getmail_cmd;
            faults_cmd;
            scale_cmd;
            monitor_cmd;
            replicas_cmd;
            mst_cmd;
            backbone_cmd;
            search_cmd;
            org_cmd;
            lookup_cmd;
            store_cmd;
            media_cmd;
            topo_cmd;
          ]))
