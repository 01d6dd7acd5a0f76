(** User agents ("user interfaces", §2) and the GetMail retrieval
    algorithm of §3.1.2c.

    The agent keeps, per the paper, [LastCheckingTime] and the
    [PreviouslyUnavailableServers] list, and retrieves mail by polling
    the user's ordered authority-server list only as far as needed:
    once it reaches an alive server that has been up since before the
    last check ([LastCheckingTime > LastStartTime]), no later server
    can hold fresh mail and the scan stops.  Servers that were down at
    checking time are remembered and drained when they recover, which
    is what makes the scheme lossless.

    The stop test is strict, and an agent starts with
    [LastCheckingTime = 0].  A holder that never restarted reports
    [LastStartTime = neg_infinity] ({!Server.last_start}), so it is
    stable from the user's first check: under normal conditions every
    check, the first included, is one poll.  The argument that this
    loses nothing: a server that is up and never restarted was up at
    every deposit, and a deposit goes to the first up chain member, so
    every message for the user has a copy on that server, on an
    earlier member the scan polled, or on a down member the scan put
    in the PUS.  A server that did restart at or after the last check
    is not stable, and the scan goes on past it.

    The module is decoupled from any concrete system through
    {!server_view} so designs 1 and 2 (and the tests) can reuse it. *)

type t

type holders
(** The agents of one system that hold a dedup table.  An agent joins
    when its table is created, on its first accepted message, so
    {!compact_holders} costs what the tables hold, not how many users
    are registered. *)

val holders : unit -> holders

val create :
  ?uid:int ->
  ?holders:holders ->
  name:Naming.Name.t ->
  host:Netsim.Graph.node ->
  authority:Netsim.Graph.node list ->
  unit ->
  t
(** [uid] is the name's interned id in the owning system
    ({!Naming.Intern}); [-1] (the default) for standalone agents.
    [holders] is the owning system's registry; the agent joins it with
    its first accepted message.
    @raise Invalid_argument on an empty authority list. *)

val name : t -> Naming.Name.t

val uid : t -> int
(** The interned id passed at creation; every fetch through
    {!server_view} carries it so storage keys mailboxes on ints. *)

val host : t -> Netsim.Graph.node
val authority : t -> Netsim.Graph.node list

val set_authority : t -> Netsim.Graph.node list -> unit
(** Reconfiguration: replace the ordered list. *)

val set_host : t -> Netsim.Graph.node -> unit

val inbox : t -> Message.t list
(** Everything retrieved so far, oldest first. *)

val inbox_size : t -> int

val previously_unavailable : t -> Netsim.Graph.node list
(** In first-marked-unavailable order (the paper's FIFO drain order):
    a server marked again while still listed keeps its place, and one
    cleared and marked again rejoins at the end.  Kept as this list
    itself, so reading it costs nothing; only authority-chain members
    are ever marked, so marking and clearing scan at most the chain. *)

val last_checking_time : t -> float

(** How the agent sees the servers: liveness, [LastStartTime], and a
    fetch operation. *)
type server_view = {
  is_alive : Netsim.Graph.node -> bool;
  last_start : Netsim.Graph.node -> float;
  fetch :
    Netsim.Graph.node -> uid:int -> Naming.Name.t -> at:float -> Message.t list;
}

(** Outcome of one retrieval round. *)
type check_stats = {
  polls : int;  (** servers contacted, alive or not. *)
  failed_polls : int;  (** contacts to servers that were down. *)
  retrieved : int;  (** messages fetched this round. *)
}

val get_mail :
  ?tracer:Telemetry.Tracer.t ->
  ?ledger:Ledger.t ->
  t ->
  view:server_view ->
  now:float ->
  check_stats
(** The paper's GetMail procedure.  With [?tracer], a round of an
    agent whose uid the tracer samples ({!Telemetry.Tracer.sampled})
    opens a ["getmail.check"] trace whose instant ["getmail.poll"]
    children correspond one-to-one with [check_stats.polls] (failed
    polls carry [alive=false]).  Every round, sampled or not, completes
    the trace of each fresh message fetched that has one: a
    ["mailbox.wait"] span (deposit → retrieval) and a poll marker in
    the message trace, whose root span is then finished.
    With [?ledger], every fetched mailbox copy is recorded
    ({!Ledger.record_fetch}) and every accepted fresh message counted
    as the retrieval ({!Ledger.record_retrieve}).

    All three strategies ({!get_mail}, {!poll_all}, {!naive_check})
    share one round: a single record holds its tallies, and the scan
    is plain recursion over the authority list, so a round that finds
    no mail builds no closure, no ref and, unless sampled, no span.
    Tracing never changes a round's outcome: stats, PUS order, inbox,
    [LastCheckingTime] and ledger records are the same with a tracer
    that samples the uid, one that does not, and none. *)

val poll_all :
  ?tracer:Telemetry.Tracer.t ->
  ?ledger:Ledger.t ->
  t ->
  view:server_view ->
  now:float ->
  check_stats
(** Baseline: poll {e every} authority server, every time.  Traced
    and ledgered like {!get_mail}, with mode ["poll_all"]. *)

val naive_check :
  ?tracer:Telemetry.Tracer.t ->
  ?ledger:Ledger.t ->
  t ->
  view:server_view ->
  now:float ->
  check_stats
(** Lossy baseline: poll only the first alive server and keep no
    unavailability state — mail deposited on other servers during
    outages is never found.  Traced and ledgered like {!get_mail},
    with mode ["naive"]. *)

val holds_table : t -> bool
(** Whether the agent holds a dedup ([seen]) table.  The table is
    created with the first accepted message, so an agent that has
    never retrieved mail holds none; once created it is kept, however
    far compaction shrinks it. *)

val seen_size : t -> int
(** Current size of the dedup ([seen]) table; 0 without one. *)

val compact : t -> (Message.id -> bool) -> int
(** [compact t prunable] drops, in place, the dedup entries of settled
    messages (predicate from {!Pipeline.prunable}); returns how many
    were removed.  The inbox itself is never touched. *)

val compact_holders : holders -> (Message.id -> bool) -> int
(** {!compact} over every agent in [holders], summed. *)

val retire : t -> unit
(** Take the agent out of its system's [holders], so compaction no
    longer visits it and the registry no longer keeps it alive; for an
    agent unregistered from its system.  O(holders); a no-op for an
    agent without a table or a registry. *)
