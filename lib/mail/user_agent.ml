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

(* A server already marked keeps its place; a newly marked one joins
   the end of the FIFO. *)
let add_pus t s = if not (List.mem s t.pus) then t.pus <- t.pus @ [ s ]
let remove_pus t s = if List.mem s t.pus then t.pus <- List.filter (fun x -> x <> s) t.pus

(* Keep only messages not already retrieved (duplicates can arrive
   when a deposit retry raced a lost acknowledgement).  The ledger, if
   any, sees every fetched copy and every accepted (fresh) message. *)
let fresh_only ?ledger t ~now msgs =
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

let close_nothing (_ : check_stats) = ()

(* Tracing: a round of a sampled agent ([Tracer.sampled] on its uid) is
   one "getmail.check" trace with an instant "getmail.poll" child per
   server contact — their count matches [check_stats.polls] exactly.
   Every round, sampled or not, completes the traces of the sampled
   messages it fetches, so a message's trace never depends on whether
   its recipient's rounds are traced. *)
let instrument tracer t ~mode ~now =
  match tracer with
  | None -> ((fun ~server:_ ~alive:_ ~fetched:_ -> ()), close_nothing)
  | Some tracer when not (Telemetry.Tracer.sampled tracer t.uid) ->
      ( (fun ~server ~alive:_ ~fetched -> complete_traces tracer ~server ~now fetched),
        close_nothing )
  | Some tracer ->
      let root =
        Telemetry.Tracer.span tracer ~name:"getmail.check" ~start:now
          ~attrs:[ ("user", Naming.Name.to_string t.name); ("mode", mode) ]
          ()
      in
      let record_poll ~server ~alive ~fetched =
        ignore
          (Telemetry.Tracer.span tracer ~parent:root ~name:"getmail.poll"
             ~start:now ~finish:now
             ~attrs:
               [
                 ("server", string_of_int server);
                 ("alive", string_of_bool alive);
                 ("retrieved", string_of_int (List.length fetched));
               ]
             ());
        complete_traces tracer ~server ~now fetched
      in
      let close (stats : check_stats) =
        Telemetry.Span.set_attr root "polls" (string_of_int stats.polls);
        Telemetry.Span.set_attr root "failed_polls"
          (string_of_int stats.failed_polls);
        Telemetry.Span.set_attr root "retrieved" (string_of_int stats.retrieved);
        Telemetry.Span.finish root ~at:now
      in
      (record_poll, close)

(* One retrieval round: [strategy] drives [contact], which polls one
   server — fetching and keeping its fresh mail when it is alive — and
   returns whether it was. *)
let round ?tracer ?ledger t ~view ~now ~mode strategy =
  let polls = ref 0 and failed = ref 0 and retrieved = ref 0 in
  let record_poll, close = instrument tracer t ~mode ~now in
  let contact s =
    incr polls;
    if view.is_alive s then begin
      let fetched = fresh_only ?ledger t ~now (view.fetch s ~uid:t.uid t.name ~at:now) in
      retrieved := !retrieved + List.length fetched;
      t.inbox <- List.rev_append fetched t.inbox;
      record_poll ~server:s ~alive:true ~fetched;
      true
    end
    else begin
      incr failed;
      record_poll ~server:s ~alive:false ~fetched:[];
      false
    end
  in
  strategy contact;
  t.last_checking <- now;
  let stats = { polls = !polls; failed_polls = !failed; retrieved = !retrieved } in
  close stats;
  stats

let get_mail ?tracer ?ledger t ~view ~now =
  round ?tracer ?ledger t ~view ~now ~mode:"getmail" (fun contact ->
      (* Phase 1: scan the authority list until a stable server proves
         no later server can hold fresh mail. *)
      let rec scan = function
        | [] -> ()
        | s :: rest ->
            if contact s then begin
              remove_pus t s;
              if t.last_checking > view.last_start s then () else scan rest
            end
            else begin
              add_pus t s;
              scan rest
            end
      in
      scan t.authority;
      (* Phase 2: drain servers that were unavailable at some earlier
         check and are alive again — they may hold old mail.  The walk
         is over the list as phase 1 left it; [remove_pus] replaces
         [t.pus] rather than mutating it. *)
      List.iter
        (fun s ->
          if view.is_alive s then begin
            ignore (contact s);
            remove_pus t s
          end)
        t.pus)

let poll_all ?tracer ?ledger t ~view ~now =
  round ?tracer ?ledger t ~view ~now ~mode:"poll_all" (fun contact ->
      List.iter (fun s -> ignore (contact s)) t.authority)

let naive_check ?tracer ?ledger t ~view ~now =
  round ?tracer ?ledger t ~view ~now ~mode:"naive" (fun contact ->
      let rec first_alive = function
        | [] -> ()
        | s :: rest -> if not (contact s) then first_alive rest
      in
      first_alive t.authority)

let seen_size t = Dsim.Id_table.length t.seen

let compact t prunable =
  let doomed =
    Dsim.Id_table.fold (fun id () acc -> if prunable id then id :: acc else acc) t.seen []
    |> List.sort Int.compare
  in
  List.iter (Dsim.Id_table.remove t.seen) doomed;
  List.length doomed
