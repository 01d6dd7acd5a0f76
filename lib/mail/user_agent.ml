type t = {
  name : Naming.Name.t;
  uid : int;  (* interned id of [name] in the owning system; -1 standalone *)
  mutable host : Netsim.Graph.node;
  mutable authority : Netsim.Graph.node list;
  mutable last_checking : float;
  mutable pus : Netsim.Graph.node list;
      (* PreviouslyUnavailableServers in first-marked order (the
         paper's FIFO drain order).  Only authority-chain members are
         ever marked, so the list is as short as the chain. *)
  mutable inbox : Message.t list;  (* newest first *)
  mutable seen : unit Dsim.Id_table.t option;
      (* message ids; delivery is at-least-once, the agent deduplicates.
         Created with the first accepted message, so an agent that never
         receives mail holds no table. *)
  holders : holders option;  (* the owning system's, if any *)
}

(* The agents of one system that hold a [seen] table, newest first:
   compaction visits these and no other agent. *)
and holders = { mutable held : t list }

let holders () = { held = [] }

let create ?(uid = -1) ?holders ~name ~host ~authority () =
  if authority = [] then invalid_arg "User_agent.create: empty authority list";
  { name; uid; host; authority; last_checking = 0.; pus = []; inbox = []; seen = None; holders }

let name t = t.name
let uid t = t.uid
let host t = t.host
let authority t = t.authority
let set_authority t servers =
  if servers = [] then invalid_arg "User_agent.set_authority: empty authority list";
  t.authority <- servers

let set_host t h = t.host <- h

let inbox t = List.rev t.inbox
let inbox_size t = List.length t.inbox

let previously_unavailable t = t.pus

let last_checking_time t = t.last_checking

type server_view = {
  is_alive : Netsim.Graph.node -> bool;
  last_start : Netsim.Graph.node -> float;
  fetch :
    Netsim.Graph.node -> uid:int -> Naming.Name.t -> at:float -> Message.t list;
}

type check_stats = { polls : int; failed_polls : int; retrieved : int }

(* PUS membership and removal specialised to ints, so the per-poll
   calls skip the polymorphic comparator.  A server is marked at most
   once, so removing its one entry equals filtering it out. *)
let rec marked (s : int) = function [] -> false | x :: tl -> x = s || marked s tl

let rec unmark (s : int) = function
  | [] -> []
  | x :: tl -> if x = s then tl else x :: unmark s tl

(* A server already marked keeps its place; a newly marked one joins
   the end of the FIFO.  Removing an unmarked server rebuilds nothing. *)
let add_pus t s = if not (marked s t.pus) then t.pus <- t.pus @ [ s ]
let remove_pus t s = if marked s t.pus then t.pus <- unmark s t.pus

(* The dedup table, created (and registered with the system's
   holders) on the first non-empty fetch — whose first message is
   necessarily fresh.  Runs once per agent, never per poll. *)
let seen_table t =
  match t.seen with
  | Some seen -> seen
  | None ->
      let seen = Dsim.Id_table.create 16 in
      t.seen <- Some seen;
      Option.iter (fun h -> h.held <- t :: h.held) t.holders;
      seen

(* Keep only messages not already retrieved (duplicates can arrive
   when a deposit retry raced a lost acknowledgement).  The ledger, if
   any, sees every fetched copy and every accepted (fresh) message. *)
let fresh_only ledger t ~now = function
  | [] -> []
  | msgs ->
      let seen = seen_table t in
      List.filter
        (fun (m : Message.t) ->
          Option.iter (fun l -> Ledger.record_fetch l m ~at:now) ledger;
          if Dsim.Id_table.mem seen m.Message.id then false
          else begin
            Dsim.Id_table.replace seen m.Message.id ();
            Option.iter (fun l -> Ledger.record_retrieve l m ~at:now) ledger;
            true
          end)
        msgs

(* Each fresh message fetched completes its own trace, if it has one: a
   "mailbox.wait" span (deposit → retrieval), a poll marker, and the
   root span is finished. *)
let complete_traces tracer ~server ~now fetched =
  List.iter
    (fun (m : Message.t) ->
      match Message.span m with
      | Some mroot ->
          (match m.Message.deposited_at with
          | Some dep ->
              ignore
                (Telemetry.Tracer.span tracer ~parent:mroot ~name:"mailbox.wait"
                   ~start:dep ~finish:now
                   ~attrs:[ ("server", string_of_int server) ] ())
          | None -> ());
          ignore
            (Telemetry.Tracer.span tracer ~parent:mroot ~name:"getmail.poll"
               ~start:now ~finish:now
               ~attrs:[ ("server", string_of_int server) ] ());
          Telemetry.Span.finish mroot ~at:now
      | None -> ())
    fetched

(* One retrieval round.  Its whole state is this one record — the
   strategies below are plain recursive functions over it, so a round
   that finds no mail builds no closure, ref or span.  [root] is the
   round's "getmail.check" span, opened only when the tracer samples
   the agent's uid. *)
type round = {
  agent : t;
  view : server_view;
  now : float;
  ledger : Ledger.t option;
  tracer : Telemetry.Tracer.t option;
  root : Telemetry.Span.t option;
  mutable polls : int;
  mutable failed : int;
  mutable retrieved : int;
}

(* Tracing: a round of a sampled agent ([Tracer.sampled] on its uid) is
   one "getmail.check" trace with an instant "getmail.poll" child per
   server contact — their count matches [check_stats.polls] exactly.
   Every round, sampled or not, completes the traces of the sampled
   messages it fetches, so a message's trace never depends on whether
   its recipient's rounds are traced. *)
let start ?tracer ?ledger agent ~view ~now ~mode =
  let root =
    match tracer with
    | Some tr when Telemetry.Tracer.sampled tr agent.uid ->
        Some
          (Telemetry.Tracer.span tr ~name:"getmail.check" ~start:now
             ~attrs:[ ("user", Naming.Name.to_string agent.name); ("mode", mode) ]
             ())
    | Some _ | None -> None
  in
  { agent; view; now; ledger; tracer; root; polls = 0; failed = 0; retrieved = 0 }

let record_poll r ~server ~alive fetched =
  (match (r.tracer, r.root) with
  | Some tracer, Some root ->
      ignore
        (Telemetry.Tracer.span tracer ~parent:root ~name:"getmail.poll" ~start:r.now
           ~finish:r.now
           ~attrs:
             [
               ("server", string_of_int server);
               ("alive", string_of_bool alive);
               ("retrieved", string_of_int (List.length fetched));
             ]
           ())
  | _ -> ());
  match (r.tracer, fetched) with
  | Some tracer, _ :: _ -> complete_traces tracer ~server ~now:r.now fetched
  | _ -> ()

(* Poll one server — fetching and keeping its fresh mail when it is
   alive — and return whether it was. *)
let contact r s =
  let t = r.agent in
  r.polls <- r.polls + 1;
  if r.view.is_alive s then begin
    let fetched = fresh_only r.ledger t ~now:r.now (r.view.fetch s ~uid:t.uid t.name ~at:r.now) in
    (match fetched with
    | [] -> ()
    | _ ->
        r.retrieved <- r.retrieved + List.length fetched;
        t.inbox <- List.rev_append fetched t.inbox);
    record_poll r ~server:s ~alive:true fetched;
    true
  end
  else begin
    r.failed <- r.failed + 1;
    record_poll r ~server:s ~alive:false [];
    false
  end

let finish r =
  r.agent.last_checking <- r.now;
  let stats = { polls = r.polls; failed_polls = r.failed; retrieved = r.retrieved } in
  (match r.root with
  | Some root ->
      Telemetry.Span.set_attr root "polls" (string_of_int stats.polls);
      Telemetry.Span.set_attr root "failed_polls" (string_of_int stats.failed_polls);
      Telemetry.Span.set_attr root "retrieved" (string_of_int stats.retrieved);
      Telemetry.Span.finish root ~at:r.now
  | None -> ());
  stats

(* GetMail phase 1: scan the authority list until a stable server
   proves no later server can hold fresh mail. *)
let rec scan r = function
  | [] -> ()
  | s :: rest ->
      if contact r s then begin
        remove_pus r.agent s;
        if r.agent.last_checking > r.view.last_start s then () else scan r rest
      end
      else begin
        add_pus r.agent s;
        scan r rest
      end

(* GetMail phase 2: drain servers that were unavailable at some
   earlier check and are alive again — they may hold old mail.  The
   walk is over the list as phase 1 left it; [remove_pus] replaces
   [t.pus] rather than mutating it. *)
let rec drain r = function
  | [] -> ()
  | s :: rest ->
      if r.view.is_alive s then begin
        ignore (contact r s);
        remove_pus r.agent s
      end;
      drain r rest

let get_mail ?tracer ?ledger t ~view ~now =
  let r = start ?tracer ?ledger t ~view ~now ~mode:"getmail" in
  scan r t.authority;
  drain r t.pus;
  finish r

let rec poll_every r = function
  | [] -> ()
  | s :: rest ->
      ignore (contact r s);
      poll_every r rest

let poll_all ?tracer ?ledger t ~view ~now =
  let r = start ?tracer ?ledger t ~view ~now ~mode:"poll_all" in
  poll_every r t.authority;
  finish r

let rec first_alive r = function
  | [] -> ()
  | s :: rest -> if not (contact r s) then first_alive r rest

let naive_check ?tracer ?ledger t ~view ~now =
  let r = start ?tracer ?ledger t ~view ~now ~mode:"naive" in
  first_alive r t.authority;
  finish r

let holds_table t = Option.is_some t.seen

let seen_size t = match t.seen with Some seen -> Dsim.Id_table.length seen | None -> 0

(* In place, in one pass over the table: the count removed is the
   size before minus the size after. *)
let compact t prunable =
  match t.seen with
  | None -> 0
  | Some seen ->
      let before = Dsim.Id_table.length seen in
      Dsim.Id_table.filter_map_inplace (fun id () -> if prunable id then None else Some ()) seen;
      before - Dsim.Id_table.length seen

let compact_holders h prunable = List.fold_left (fun n a -> n + compact a prunable) 0 h.held

let retire t = Option.iter (fun h -> h.held <- List.filter (fun a -> a != t) h.held) t.holders
