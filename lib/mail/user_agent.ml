type t = {
  name : Naming.Name.t;
  uid : int;  (* interned id of [name] in the owning system; -1 standalone *)
  mutable host : Netsim.Graph.node;
  mutable authority : Netsim.Graph.node list;
  mutable last_checking : float;
  pus : (Netsim.Graph.node, int) Hashtbl.t;
      (* PreviouslyUnavailableServers, each tagged with an insertion
         sequence number: O(1) add/remove instead of the old list's
         O(n) membership scan + tail append, while keeping the
         paper's FIFO drain order recoverable. *)
  mutable pus_seq : int;
  mutable inbox : Message.t list;  (* newest first *)
  seen : (Message.id, unit) Hashtbl.t;
      (* delivery is at-least-once; the agent deduplicates. *)
}

let create ?(uid = -1) ~name ~host ~authority () =
  if authority = [] then invalid_arg "User_agent.create: empty authority list";
  {
    name;
    uid;
    host;
    authority;
    last_checking = 0.;
    pus = Hashtbl.create 8;
    pus_seq = 0;
    inbox = [];
    seen = Hashtbl.create 32;
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

let previously_unavailable t =
  Hashtbl.fold (fun s seq acc -> (seq, s) :: acc) t.pus []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let last_checking_time t = t.last_checking

type server_view = {
  is_alive : Netsim.Graph.node -> bool;
  last_start : Netsim.Graph.node -> float;
  fetch :
    Netsim.Graph.node -> uid:int -> Naming.Name.t -> at:float -> Message.t list;
}

type check_stats = { polls : int; failed_polls : int; retrieved : int }

let add_pus t s =
  if not (Hashtbl.mem t.pus s) then begin
    Hashtbl.replace t.pus s t.pus_seq;
    t.pus_seq <- t.pus_seq + 1
  end

let remove_pus t s = Hashtbl.remove t.pus s

(* Keep only messages not already retrieved (duplicates can arrive
   when a deposit retry raced a lost acknowledgement).  The ledger, if
   any, sees every fetched copy and every accepted (fresh) message. *)
let fresh_only ?ledger t ~now msgs =
  List.filter
    (fun (m : Message.t) ->
      Option.iter (fun l -> Ledger.record_fetch l m ~at:now) ledger;
      if Hashtbl.mem t.seen m.Message.id then false
      else begin
        Hashtbl.replace t.seen m.Message.id ();
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

let get_mail ?tracer ?ledger t ~view ~now =
  let current_checking_time = now in
  let polls = ref 0 and failed = ref 0 and retrieved = ref 0 in
  let record_poll, close = instrument tracer t ~mode:"getmail" ~now in
  let take msgs =
    let msgs = fresh_only ?ledger t ~now msgs in
    retrieved := !retrieved + List.length msgs;
    t.inbox <- List.rev_append msgs t.inbox;
    msgs
  in
  (* Phase 1: scan the authority list until a stable server proves no
     later server can hold fresh mail. *)
  let rec scan = function
    | [] -> ()
    | s :: rest ->
        incr polls;
        if view.is_alive s then begin
          let fetched = take (view.fetch s ~uid:t.uid t.name ~at:now) in
          record_poll ~server:s ~alive:true ~fetched;
          remove_pus t s;
          if t.last_checking > view.last_start s then () else scan rest
        end
        else begin
          incr failed;
          record_poll ~server:s ~alive:false ~fetched:[];
          add_pus t s;
          scan rest
        end
  in
  scan t.authority;
  (* Phase 2: drain servers that were unavailable at some earlier
     check and are alive again — they may hold old mail.  Snapshot
     first (in insertion order): [remove_pus] mutates the table. *)
  List.iter
    (fun s ->
      if view.is_alive s then begin
        incr polls;
        let fetched = take (view.fetch s ~uid:t.uid t.name ~at:now) in
        record_poll ~server:s ~alive:true ~fetched;
        remove_pus t s
      end)
    (previously_unavailable t);
  t.last_checking <- current_checking_time;
  let stats = { polls = !polls; failed_polls = !failed; retrieved = !retrieved } in
  close stats;
  stats

let poll_all ?tracer ?ledger t ~view ~now =
  let polls = ref 0 and failed = ref 0 and retrieved = ref 0 in
  let record_poll, close = instrument tracer t ~mode:"poll_all" ~now in
  List.iter
    (fun s ->
      incr polls;
      if view.is_alive s then begin
        let msgs = fresh_only ?ledger t ~now (view.fetch s ~uid:t.uid t.name ~at:now) in
        retrieved := !retrieved + List.length msgs;
        t.inbox <- List.rev_append msgs t.inbox;
        record_poll ~server:s ~alive:true ~fetched:msgs
      end
      else begin
        incr failed;
        record_poll ~server:s ~alive:false ~fetched:[]
      end)
    t.authority;
  t.last_checking <- now;
  let stats = { polls = !polls; failed_polls = !failed; retrieved = !retrieved } in
  close stats;
  stats

let naive_check ?tracer ?ledger t ~view ~now =
  let polls = ref 0 and failed = ref 0 and retrieved = ref 0 in
  let record_poll, close = instrument tracer t ~mode:"naive" ~now in
  let rec first_alive = function
    | [] -> ()
    | s :: rest ->
        incr polls;
        if view.is_alive s then begin
          let msgs = fresh_only ?ledger t ~now (view.fetch s ~uid:t.uid t.name ~at:now) in
          retrieved := !retrieved + List.length msgs;
          t.inbox <- List.rev_append msgs t.inbox;
          record_poll ~server:s ~alive:true ~fetched:msgs
        end
        else begin
          incr failed;
          record_poll ~server:s ~alive:false ~fetched:[];
          first_alive rest
        end
  in
  first_alive t.authority;
  t.last_checking <- now;
  let stats = { polls = !polls; failed_polls = !failed; retrieved = !retrieved } in
  close stats;
  stats

let seen_size t = Hashtbl.length t.seen

let compact t prunable =
  let doomed =
    Hashtbl.fold (fun id () acc -> if prunable id then id :: acc else acc) t.seen []
    |> List.sort Int.compare
  in
  List.iter (Hashtbl.remove t.seen) doomed;
  List.length doomed
