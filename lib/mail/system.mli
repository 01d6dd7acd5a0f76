(** The designs behind one driving interface.

    {!S} (= {!System_intf.S}) is the shared surface; [Syntax] and
    [Location] are its instances.  Design 3 drives through [Location]
    on {!Attribute_system.base}, whose registry carries
    [design="attribute"]. *)

module type S = System_intf.S

module Syntax : S with type t = Syntax_system.t
module Location : S with type t = Location_system.t

(** {1 Metric snapshotting} *)

val core_counters : string list
(** The tallies every design promotes to first-class metrics (own
    name, no [event] label): checks, polls, failed_polls, retrieved,
    submitted, deposits, retries, resubmissions, notifications,
    redirects, migrations. *)

val snapshot_metrics : (module S with type t = 'a) -> 'a -> unit
(** Bring the system's registry up to date with the run so far:
    promote {!core_counters} (creating them at 0 when a design never
    fired one), route every other raw tally to
    [system_events{event=<key>}], rebuild the ["delivery_latency"] and
    ["end_to_end_latency"] histograms from the submitted messages,
    refresh the network/storage gauges ([messages_sent],
    [messages_delivered], [messages_dropped], [link_hops],
    [storage_bytes]), the route-cache counters
    ([route_tree_recompute], [route_cache_hit], [route_invalidation]),
    the instantaneous health gauges
    ({!System_intf.S.publish_health}: pipeline backlog and replica
    chain health), the [trace_dropped] span-loss counter and the
    engine profile.  Idempotent — safe to call repeatedly as a run
    progresses, which is exactly what the per-window timeseries
    sampler does. *)
