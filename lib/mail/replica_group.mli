(** Replicated mailbox groups — the storage layer behind the redesigned
    system API.

    §3.1.1's secondary-server extension anticipated exactly the failure
    PR 5 measured: one crashed authority server takes its users' mail
    with it.  This module makes the replica chains
    ({!Loadbalance.Replicas}) real at runtime: every user's mailbox
    lives on an ordered authority chain of {e holders}
    ({!Server.t} instances this module owns), deposits fan out to a
    write quorum (driven by {!Pipeline}), GetMail serves from the
    highest-priority live holder, and the group keeps the cross-holder
    copy bookkeeping that makes replication invisible to the delivery
    invariant:

    - a copy {!write} is deduplicated per (holder, id) and {e refused}
      once the id was retrieved anywhere ([Superseded]) — a late
      replicate cannot resurrect mail the user already has;
    - a {!fetch} marks the id retrieved group-wide and purges the
      remaining copies: live chain members immediately, down members
      at {!note_recovery} (resync) — so duplicate copies never reach a
      second GetMail round, and the ledger's settled-state machinery
      ({!Ledger.settled}) still converges (purged copies count as
      accounted-for).

    Counters written: [replica_copy_writes], [replica_purges],
    [replica_resyncs], [replica_failovers].  With a tracer, a fetch
    served by a lower-priority holder while the primary is down emits
    an instant ["getmail.failover"] root span when the tracer samples
    the user's uid ({!Telemetry.Tracer.sampled}). *)

type write_status =
  | Stored  (** new copy written to the holder. *)
  | Duplicate  (** this holder already has an unfetched copy. *)
  | Superseded
      (** the id was already retrieved somewhere — write refused. *)

type t

val create :
  ?mailbox_policy:Mailbox.policy ->
  ?ledger:Ledger.t ->
  ?tracer:Telemetry.Tracer.t ->
  ?metrics:Telemetry.Registry.t ->
  counters:Dsim.Stats.Counter.t ->
  chain_of:(int -> Netsim.Graph.node list) ->
  is_up:(Netsim.Graph.node -> bool) ->
  unit ->
  t
(** [chain_of] maps a user (by interned id, {!Naming.Intern}) to their
    current ordered authority chain (primary first) and [is_up] reports node liveness; both are
    consulted at call time, so late binding through the owning system
    is fine.  With [ledger], every copy write, purge and resync is
    recorded ({!Ledger.record_deposit} / {!Ledger.record_purge}).
    With [metrics], the [delivery_latency] and [end_to_end_latency]
    histograms are registered eagerly and fed at deposit / fetch time
    — each message's latency observed exactly once, the moment it
    becomes known, so per-window timeseries sampling never has to
    rescan the message list (see {!Mail.System.snapshot_metrics}). *)

val add_holder : t -> node:Netsim.Graph.node -> region:string -> unit
(** Register a mailbox holder (one per server node).  Holders live in
    an array indexed by node id, grown to fit the largest node added.
    @raise Invalid_argument if the node is negative or was already
    added. *)

val holder : t -> Netsim.Graph.node -> Server.t
(** The holder on [node]: one bounds check and one array read, no
    hashing — every deposit, fetch and [last_start] goes through it.
    @raise Invalid_argument on a negative, out-of-range or non-holder
    node. *)

val mem_holder : t -> Netsim.Graph.node -> bool
(** [false] for negative and out-of-range nodes too. *)

val nodes : t -> Netsim.Graph.node list
(** All holder nodes, sorted. *)

val region : t -> Netsim.Graph.node -> string
val last_start : t -> Netsim.Graph.node -> float
(** The holder's [LastStartTime]: [neg_infinity] until its first
    {!note_recovery}. *)

val chain : t -> int -> Netsim.Graph.node list
(** By interned user id. *)

val quorum_of : Netsim.Graph.node list -> int
(** Majority write quorum of a chain: [length / 2 + 1] — 1 for a
    singleton chain, 2 for length 2 or 3, 3 for length 4 or 5. *)

val write : t -> on:Netsim.Graph.node -> Message.t -> at:float -> write_status
(** Store one copy on one holder (coordinator local write or replica
    write), with the dedup/refusal rules above.  Only [Stored]
    actually touches the holder and the ledger. *)

val fetch :
  t -> on:Netsim.Graph.node -> uid:int -> Naming.Name.t -> at:float ->
  Message.t list
(** Drain the user's mailbox on one holder (the GetMail poll).  Every
    served message is marked retrieved group-wide; its copies on live
    other chain members are purged now, down members at resync.
    Serving while the chain's primary is down counts a
    [replica_failovers] and, for a sampled uid, emits the failover
    span.  When {!unfetched} is 0 — the user has no copy on any holder,
    the common case of a check — the poll returns [[]] in O(1) after
    the holder check, probing no mailbox; any empty poll returns [[]]
    without consulting [chain_of].
    @raise Invalid_argument if [on] is not a holder, whatever the
    count. *)

val unfetched : t -> uid:int -> int
(** Unfetched copies of the user's mail summed over every holder — by
    construction [Σ Server.pending_for ~uid] over {!nodes}.  The group
    keeps it in one dense [int array] by interned user id (8 bytes per
    user), adjusted around each holder mutation it makes:
    {!Server.store} adds one, {!Server.take} subtracts the copies it
    returned and {!Server.purge} the copies it dropped.  0 for an id
    that never received mail. *)

val note_recovery : t -> node:Netsim.Graph.node -> at:float -> unit
(** The holder rejoined: set its [LastStartTime] to [at] and purge
    every copy it holds whose id was retrieved during the outage.
    Only recoveries move [LastStartTime]: a holder never recovered
    reads [neg_infinity] ({!Server.last_start}), so GetMail stops at
    it from a user's first check. *)

val copies : t -> Message.id -> Netsim.Graph.node list
(** Holders with an unfetched copy of the id, sorted. *)

val no_copies : t -> Message.id -> bool

val view : t -> User_agent.server_view
(** The agent-facing view of the group: liveness, [LastStartTime] and
    {!fetch} — GetMail's ordered-scan machinery works unchanged on
    top, but every poll now routes through the group's failover and
    purge logic.  Built on the first call; every later call returns
    the same record. *)

val total_pending : t -> int
val storage_bytes : t -> int

val publish_gauges : t -> users:(unit -> int list) -> Telemetry.Registry.t -> unit
(** Publish chain-health gauges for the per-window monitors:
    [replica_holders_up] (registered holders currently up),
    [replica_chains_degraded] (distinct authority chains with at
    least one holder down but at least one up),
    [replica_chains_down] (chains with every holder down) and
    [chain_health] (mean live fraction across distinct chains; [1.]
    when no chains exist).  Chains are resolved through [chain_of]
    for the given users and deduplicated on the node list. *)

val cleanup_all : t -> now:float -> max_age:float -> int
(** Run the archive clean-up policy over every holder. *)

val compact : t -> (Message.id -> bool) -> int
(** Drop retrieved-set entries for settled ids (predicate from
    {!Pipeline.prunable}); returns how many were removed.  Copy-table
    entries clear themselves as copies are fetched or purged, and an
    id with a live copy is never settled, so only the retrieved set
    needs pruning. *)
