(** Workload scenarios: the simulations the paper says were run
    ("algorithms … developed and tested using simulation") but does
    not tabulate — reproduced here for experiments C1, C2 and C6.

    A scenario drives a system with Poisson mail traffic between
    Zipf-skewed users, periodic mailbox checks, and an optional
    {!Netsim.Fault} campaign (random server crashes are its [Crashes]
    process, e.g. [crash:0.002/150]); at the horizon every fault is
    healed, the engine drains, and every user performs a final check
    so that the paper's losslessness claim can be asserted exactly. *)

(** How users retrieve mail — the C2 comparison axis. *)
type retrieval_mode =
  | Get_mail  (** the paper's algorithm (§3.1.2c). *)
  | Poll_all  (** poll every authority server every time. *)
  | Naive  (** first alive server only; no unavailability memory. *)

type spec = {
  seed : int;
  duration : float;
  mail_count : int;  (** total messages to inject over the run. *)
  check_period : float;
      (** per-user mailbox-check interval (schedule: {!drive}). *)
  sender_skew : float;  (** Zipf exponent for sender activity. *)
  retrieval : retrieval_mode;
  faults : Netsim.Fault.campaign option;
      (** optional deterministic fault campaign (crashes, link cuts,
          partitions, bursts — see {!Netsim.Fault}), compiled with
          [~salt:seed] against the horizon [duration] and armed on the
          system's network. *)
  sampling : float option;
      (** virtual-time resolution of the observability sampler: when
          set, a periodic engine event (category ["scenario.sample"])
          refreshes the registry, appends a {!Telemetry.Timeseries}
          window and evaluates the monitor rules every [resolution]
          time units, plus one final window after the drain. *)
  monitors : Telemetry.Monitor.rule list;
      (** health rules evaluated per window (only when [sampling] is
          set).  Alerts are kept in the monitor's typed stream
          ({!Telemetry.Monitor.alerts}) and counted as
          [alert_fired{rule=...}] / [alert_total]. *)
}

val default_spec : spec
(** seed 1, duration 5000, 300 messages, checks every 100, skew 0.9,
    GetMail, no fault campaign, no sampling, no monitors. *)

(** Per-scenario aggregates beyond the generic report. *)
type outcome = {
  report : Evaluation.report;
  availability : float;
      (** mailbox availability under replication: mean over users of
          the fraction of the horizon during which at least one member
          of their authority chain was up
          ({!Netsim.Fault.group_availability} over [fault_schedule]).  With replication 1
          this degenerates to the per-primary uptime. *)
  server_uptime : float;
      (** raw infrastructure health: mean single-node uptime across
          servers (the quantity [availability] reported before
          replication). *)
  replication_factor : int;
      (** the longest authority chain any user was assigned — the
          effective replication factor of the run. *)
  final_polls_per_check : float;
      (** polls per check over the whole run including final drain. *)
  inbox_total : int;  (** messages sitting in user inboxes at the end. *)
  ledger : Ledger.verdict;
      (** the §3.1.2c delivery-invariant verdict after the final drain:
          every submitted message retrieved exactly once or explicitly
          undeliverable — never dropped, never duplicated.  Also
          exported as the gauges [ledger_ok], [ledger_lost] and
          [ledger_duplicates]. *)
  engine_events : int;
      (** simulation events executed over the whole run including the
          final drain — the virtual-work denominator the throughput
          benchmark divides wall time by. *)
  metrics : Telemetry.Registry.t;
      (** the run's full metric registry, snapshotted after the final
          drain ({!System.snapshot_metrics} plus the scenario gauges
          [availability], [server_uptime], [replication_factor],
          [inbox_total], [polls_per_check], [trace_spans]).  Counter
          access goes through {!Telemetry.Registry.get_counter}:
          {!System.core_counters} names read the metric of that name,
          design-specific tallies read
          [system_events{event=<key>}]. *)
  tracer : Telemetry.Tracer.t;
      (** the run's span collector: one ["message"] trace per
          submission, one ["getmail.check"] trace per retrieval round
          (feed to {!Telemetry.Critical_path.analyze} or export via
          {!Telemetry.Tracer.to_jsonl} / [to_chrome]). *)
  fault_schedule : Netsim.Fault.schedule;
      (** the compiled fault campaign the run armed (no windows without
          [spec.faults]; horizon [spec.duration]).  Its [Node] windows
          are the server outages [availability] and [server_uptime]
          measure; every window is also a ["fault"] span on [tracer],
          and each effective down flip a [fault_<kind>] count. *)
  timeseries : Telemetry.Timeseries.t option;
      (** the windowed metric series recorded by the sampler;
          [Some _] exactly when [spec.sampling] was set.  Export with
          {!Telemetry.Timeseries.to_json} (the [TIMESERIES.json]
          document). *)
  monitor : Telemetry.Monitor.t option;
      (** the evaluated monitor (alert stream, per-rule summaries, SLO
          verdict); [Some _] exactly when [spec.sampling] was set. *)
}

val drive :
  ?on_check_tick:(rng:Dsim.Rng.t -> Naming.Name.t -> unit) ->
  (module System.S with type t = 's) ->
  's ->
  spec ->
  outcome
(** The one scenario driver, shared by every design through
    {!System.S}: inject the mail workload, arm phase-shifted periodic
    checks (calling [on_check_tick] just before each — the roaming
    hook of designs 2/3), arm the fault campaign (if any), run to the
    horizon, heal every fault, drain, final-check every user, drain
    again, compact, check the delivery ledger, and snapshot metrics.
    Fault windows are tallied per kind as [fault_<kind>] counters and
    emitted as ["fault"] spans on the tracer.

    Periodic checks: of [N] users (in {!System.S.users} order), user
    [i] checks at [check_period * (i+1) / (N+1)] and then at repeated
    additions of [check_period], while strictly before [duration].  One
    sweep visits the users in that phase order, round after round.  A
    check earlier than every queued event runs inline
    ({!Dsim.Engine.advance}: it is still counted as one
    ["scenario.check"] event); otherwise the sweep queues itself for
    that check's time.  So a check due at exactly the time of a queued
    event runs after it.  Each check calls [on_check_tick], then
    [M.view], runs the retrieval round, then reads [M.counters] — an
    instrumenting [System.S] wrapper may time a check between the last
    two calls.

    @raise Failure if events are still queued after the final drain
    (a timer that re-arms forever outlasts [M.quiesce]'s step budget). *)

val run_syntax :
  ?config:Syntax_system.config -> Netsim.Topology.mail_site -> spec -> outcome
(** Build a design-1 system and drive it. *)

val run_location :
  ?config:Location_system.config ->
  roam_probability:float ->
  Netsim.Topology.mail_site ->
  spec ->
  outcome
(** Design 2: before each check the user roams to a random host of
    their region with the given probability (a {!Location_system.login},
    which itself retrieves mail). *)

val run_attribute :
  ?config:Location_system.config ->
  ?roam_probability:float ->
  Netsim.Topology.mail_site ->
  spec ->
  outcome
(** Design 3: the point-to-point workload driven through an
    {!Attribute_system} (its {!Location_system} base carries the mail;
    metrics are labelled [design="attribute"]).  [roam_probability]
    defaults to 0. *)

(** Mean and sample standard deviation of one metric across
    replications. *)
type estimate = { mean : float; stddev : float; runs : int }

val replicate :
  runs:int -> (spec -> outcome) -> spec -> (outcome -> float) -> estimate
(** Statistical rigour helper: run the scenario [runs] times with
    seeds [spec.seed, spec.seed+1, …] and summarise [metric] —
    used to put dispersion estimates next to the single-seed numbers
    in EXPERIMENTS.md.  @raise Invalid_argument if [runs <= 0]. *)
