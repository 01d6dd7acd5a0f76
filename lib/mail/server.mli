(** One mailbox {e holder} (§2, §3.1.2).

    A server is "a process responsible for obtaining addresses of
    recipients, sending, buffering, relaying and delivering messages
    to the mail recipients".  This module is the storage primitive of
    one holder: the mailboxes of the users it holds copies for, and
    [LastStartTime] — the time it last recovered, [neg_infinity] if it
    never did, which the GetMail algorithm compares against each
    user's [LastCheckingTime].

    A holder never acts alone any more: replication, copy tracking and
    purge/resync policy live one layer up in {!Replica_group}, which
    owns every holder of a system.  The old holder-centric surface
    ([deposit]/[fetch] called directly by the pipeline and views) was
    replaced by the primitive triple {!store} / {!take} / {!purge} the
    group composes.

    These three are the only calls that change a holder's unfetched
    copies, and each reports its exact effect: [store] adds one copy,
    [take] removes exactly the copies it returns, [purge] exactly the
    number it returns.  {!Replica_group} keeps its per-user count of
    unfetched copies across all holders ({!Replica_group.unfetched})
    from these deltas, so for every user the count equals the sum of
    {!pending_for} over the holders, and a GetMail poll of a user whose
    count is 0 is answered without calling {!take}.  [cleanup] only
    drops archived (already fetched) copies and leaves the count
    alone. *)

type t

val create :
  ?mailbox_policy:Mailbox.policy -> node:Netsim.Graph.node -> region:string -> unit -> t

val node : t -> Netsim.Graph.node
val region : t -> string

val last_start : t -> float
(** [LastStartTime]: [neg_infinity] until the first recovery — "up
    since before any user registered" — then the time of the latest
    one.  So a holder that has not restarted since the run began is
    stable ([LastCheckingTime > LastStartTime]) for every check of
    every user, the first included.

    That is safe.  A holder that is up and never restarted was never
    down, so it was up at every deposit, and a deposit goes to the
    first {e up} member of the recipient's chain
    ([Pipeline.deposit_with]).  Every message for the user therefore
    has a copy on this holder or on an earlier chain member; the
    GetMail scan that reached this holder polled each earlier member
    that is up and put each one that is down in
    [PreviouslyUnavailableServers], to be drained when it recovers
    ({!User_agent.get_mail}). *)

val note_recovery : t -> at:float -> unit
(** Called when the holder's node comes back up (via
    {!Replica_group.note_recovery}, which also resyncs the rejoining
    holder). *)

val store : t -> Message.t -> at:float -> unit
(** Write one copy into the recipient's mailbox (created if absent,
    keyed by the message's interned [recipient_uid]) and mark the
    message deposited ({!Message.mark_deposited} is first-copy-wins,
    so replica copies do not skew latency). *)

val take : t -> uid:int -> at:float -> Message.t list
(** Drain-and-return the user's pending mail (by interned id), marking
    each message retrieved.  An absent or empty mailbox returns [[]]
    without touching the holder.  Under [Delete_on_retrieve] the
    drained mailbox is dropped; the next {!store} creates it again. *)

val purge : t -> uid:int -> Message.id -> int
(** Drop an unfetched pending copy of one message — the replica-group
    maintenance call after another chain member already served it.
    Returns the number of copies dropped.  Under [Delete_on_retrieve]
    a mailbox left empty is dropped, as by {!take}. *)

val pending_for : t -> uid:int -> int
val total_pending : t -> int

val mailbox_count : t -> int
(** Mailboxes holding mail or an archive: under [Delete_on_retrieve]
    the users with pending mail here, since an emptied mailbox is
    dropped; under [Archive] every user ever stored for, since a
    mailbox keeps its retained copies (even once {!cleanup} has
    dropped them all). *)

val stores : t -> int
(** Total copies ever stored here. *)

val storage_bytes : t -> int

val cleanup : t -> now:float -> max_age:float -> int
(** Run the archive clean-up policy over every mailbox. *)
