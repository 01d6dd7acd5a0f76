(** The scale experiment (EXPERIMENTS.md S1–S3): a dense multi-region
    internetwork driven through design 1 under {!Netsim.Fault.standard}
    with the {!Telemetry.Monitor.standard} health rules, at one of
    three named sizes.

    One spec, one {!run}, one report ({!to_json}, {!pp}).  Everything
    here is virtual-time and seeded, so two runs of a spec give
    byte-identical reports; [mailsim scale --size] is the front end,
    and the bench harness ([bench/main.exe --scale SIZE]) only adds
    wall-clock and GC fields and its throughput ratchet. *)

type spec = {
  size : string;  (** the name: ["quick"], ["mid"] or ["full"]. *)
  regions : int;
  hosts_per_region : int;
  servers_per_region : int;
  gateways_per_region : int;
  degree : float;  (** target average node degree per region. *)
  users_per_host : int;
  topology_seed : int;  (** seeds {!Netsim.Topology.scale_site}. *)
  seed : int;  (** the scenario seed (workload and fault salt). *)
  messages : int;
  duration : float;
  check_period : float;  (** per-user mailbox-check interval. *)
  sampling : float;  (** observability window (timeseries + monitors). *)
  replication : int;
      (** authority-chain length, capped at the server count. *)
  span_sample : int;  (** trace one message/check in [span_sample]. *)
}

val quick : spec
(** 6 regions × (8 hosts + 3 servers + 2 gateways), degree 10, 5 users
    per host (240 users), 5k messages, checks every 250, windows of 50,
    replication 4 — dense enough that one link cut sits on few
    shortest-path trees.  Runs in well under a second. *)

val mid : spec
(** {!full}'s shape at 50 regions: 200k users, 200k messages. *)

val full : spec
(** 250 regions × (16 hosts + 4 servers + 2 gateways) — 5500 nodes,
    4000 hosts — with 250 users per host: a million users and a
    million messages, checks every 2000, windows of 250. *)

val sizes : spec list
(** [[quick; mid; full]]. *)

val of_size : string -> spec option
(** The spec whose {!field-size} is the given name. *)

val users : spec -> int
(** [regions * hosts_per_region * users_per_host]. *)

type result = {
  spec : spec;
  site : Netsim.Topology.mail_site;
  outcome : Scenario.outcome;
}

val run : spec -> result
(** Build the site and drive the scenario. *)

val to_json : ?include_volatile:bool -> result -> Telemetry.Json.t
(** The SCALE.json report (schema [mailsys.scale/4]): spec, topology,
    event count, route-cache, replication, ledger, critical-path and
    SLO sections, and the run's full metric registry (volatile metrics
    only with [include_volatile], default false, so the default is
    byte-stable). *)

val pp : Format.formatter -> result -> unit
(** The text report. *)
