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
  seen : unit Dsim.Id_table.t;
      (* message ids; delivery is at-least-once, the agent deduplicates. *)
}

let create ?(uid = -1) ~name ~host ~authority () =
  if authority = [] then invalid_arg "User_agent.create: empty authority list";
  {
    name;
    uid;
    host;
    authority;
    last_checking = 0.;
    pus = [];
    inbox = [];
    seen = Dsim.Id_table.create 32;
  }

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

(* Keep only messages not already retrieved (duplicates can arrive
   when a deposit retry raced a lost acknowledgement).  The ledger, if
   any, sees every fetched copy and every accepted (fresh) message. *)
let fresh_only ledger t ~now = function
  | [] -> []
  | msgs ->
      List.filter
        (fun (m : Message.t) ->
          Option.iter (fun l -> Ledger.record_fetch l m ~at:now) ledger;
          if Dsim.Id_table.mem t.seen m.Message.id then false
          else begin
            Dsim.Id_table.replace t.seen m.Message.id ();
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

let seen_size t = Dsim.Id_table.length t.seen

let compact t prunable =
  let doomed =
    Dsim.Id_table.fold (fun id () acc -> if prunable id then id :: acc else acc) t.seen []
    |> List.sort Int.compare
  in
  List.iter (Dsim.Id_table.remove t.seen) doomed;
  List.length doomed
