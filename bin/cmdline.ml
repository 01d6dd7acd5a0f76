(* Shared command-line plumbing for the mailsim subcommands.

   Every subcommand used to declare its own copies of the common flags
   (seed, duration, mail volume, region count, output files), with the
   docstrings slowly drifting apart.  They are defined once here; a
   subcommand composes the ones it needs and adds only its own
   specific options. *)

open Cmdliner

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let duration =
  Arg.(
    value & opt float 5000. & info [ "duration" ] ~docv:"TIME" ~doc:"Virtual time.")

let messages =
  Arg.(value & opt int 300 & info [ "messages" ] ~docv:"N" ~doc:"Mail volume.")

let regions ~default =
  Arg.(value & opt int default & info [ "regions" ] ~docv:"N" ~doc:"Region count.")

(* An optional output-file flag: [output_file ~flag:"json-out" ~doc:...]. *)
let output_file ~flag:name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let campaign_syntax_doc =
  "Items: crash:RATE[/MEAN|/=FIXED], link:RATE[/MEAN|/=FIXED], \
   partition:REGION[@START+DURATION], burst:FRACTION[@START+DURATION], seed:N."

(* The hierarchical multi-region site most subcommands drive. *)
let hier_site ~seed ~regions ~hosts_per_region =
  let rng = Dsim.Rng.create seed in
  let spec =
    { Netsim.Topology.default_hierarchy with regions; hosts_per_region }
  in
  let g = Netsim.Topology.hierarchical ~rng spec in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }

(* Open [file], hand the channel to [write], and fail with a clean
   message instead of an exception trace when the path is unwritable —
   shared by every output-file option. *)
let with_output ~what file write =
  match open_out file with
  | exception Sys_error msg ->
      Printf.eprintf "mailsim: cannot write %s: %s\n" what msg;
      exit 1
  | oc ->
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc);
      Printf.printf "%s written to %s\n" what file

(* Pretty-printed JSON document to [file] through [with_output] — the
   one way every subcommand writes its artifacts. *)
let write_json ~what file json =
  with_output ~what file (fun oc ->
      output_string oc (Telemetry.Json.to_string ~indent:2 json);
      output_char oc '\n')

(* The byte-stability convention: JSON artifacts normally embed the
   full registry including volatile (wall-clock-derived) metrics;
   [--stable] excludes them so the double-run determinism harness can
   byte-compare the files. *)
let stable =
  Arg.(
    value
    & flag
    & info [ "stable" ]
        ~doc:
          "Byte-stable artifacts: exclude volatile (wall-clock-derived) \
           metrics from JSON output so identical seeded runs compare \
           byte-for-byte.")

(* Observability sampling, shared by getmail/monitor: how often
   (in virtual time) the timeseries sampler and monitors run, and
   where the TIMESERIES.json document goes. *)
let resolution =
  Arg.(
    value
    & opt (some float) None
    & info [ "sample-resolution" ] ~docv:"TIME"
        ~doc:
          "Virtual-time distance between observability windows (metric \
           timeseries samples and monitor evaluations).")

let timeseries_file =
  output_file ~flag:"timeseries-out"
    ~doc:
      "Write the run's windowed metric timeseries (delta-encoded, \
       mailsys.timeseries/1) to $(docv) as JSON."
