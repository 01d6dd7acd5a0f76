module type S = System_intf.S

(* Optional arguments do not erase during signature inclusion, so the
   designs' richer shared submit functions are shadowed with these
   exact-arity wrappers. *)
module Exact_submit = struct
  let submit t ~sender ~recipient () = Core.Ops.submit t ~sender ~recipient ()
  let submit_at t ~at ~sender ~recipient () = Core.Ops.submit_at t ~at ~sender ~recipient ()
end

module Syntax : S with type t = Syntax_system.t = struct
  include Syntax_system
  include Exact_submit
end

module Location : S with type t = Location_system.t = struct
  include Location_system
  include Exact_submit
end

(* --- metric snapshotting ------------------------------------------------ *)

let core_counters =
  [
    "checks";
    "polls";
    "failed_polls";
    "retrieved";
    "submitted";
    "deposits";
    "retries";
    "resubmissions";
    "notifications";
    "redirects";
    "migrations";
    "replica_copy_writes";
    "replica_replicate_sends";
    "replica_quorum_acks";
    "replica_degraded_acks";
    "replica_unavailable_acks";
    "replica_purges";
    "replica_resyncs";
    "replica_failovers";
  ]

let snapshot_metrics (type a) (module M : S with type t = a) (sys : a) =
  let reg = M.metrics sys in
  let counters = M.counters sys in
  (* Core tallies are promoted under their own metric names — and set
     unconditionally, so every design's registry exposes all of them
     even when a tally never fired. *)
  List.iter
    (fun k -> Telemetry.Registry.set_counter reg k (Dsim.Stats.Counter.get counters k))
    core_counters;
  (* Everything else is design-specific and routed through one shared
     metric name, labelled by event, to keep names comparable. *)
  Telemetry.Probe.sync_counters ~only:core_counters ~rest_as:"system_events" reg
    counters;
  (* The delivery / end-to-end latency histograms are fed at deposit
     and fetch time by the replica group ([Replica_group.create]'s
     [?metrics]: each latency observed exactly once, the moment it
     becomes known), so the snapshot has no per-message work to do —
     per-window timeseries sampling stays cheap no matter how many
     messages the run has accumulated. *)
  let net = M.net sys in
  let set name v = Telemetry.Registry.set_gauge (Telemetry.Registry.gauge reg name) v in
  set "messages_sent" (float_of_int (Netsim.Net.messages_sent net));
  set "messages_delivered" (float_of_int (Netsim.Net.messages_delivered net));
  set "messages_dropped" (float_of_int (Netsim.Net.messages_dropped net));
  set "link_hops" (float_of_int (Netsim.Net.hops_traversed net));
  (* Route-cache observables: each recompute is one full Dijkstra run,
     each hit a query the cache absorbed — the pair quantifies what
     scoped invalidation saves under a fault campaign. *)
  Telemetry.Registry.set_counter reg "route_tree_recompute"
    (Netsim.Net.route_recomputes net);
  Telemetry.Registry.set_counter reg "route_cache_hit"
    (Netsim.Net.route_cache_hits net);
  Telemetry.Registry.set_counter reg "route_invalidation"
    (Netsim.Net.route_invalidations net);
  set "storage_bytes" (float_of_int (Replica_group.storage_bytes (M.storage sys)));
  (* Instantaneous health gauges (pipeline backlog, chain health) and
     the span-loss signal: sampled here so every timeseries window —
     not just the end-of-run snapshot — carries a fresh reading. *)
  M.publish_health sys;
  Telemetry.Registry.set_counter reg "trace_dropped"
    (Telemetry.Tracer.dropped (M.tracer sys));
  Telemetry.Probe.sync_engine_profile reg (M.engine sys)
