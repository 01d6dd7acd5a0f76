(* Direct tests of the GetMail algorithm (§3.1.2c) against scripted
   server behaviour — liveness, LastStartTime and mailbox contents are
   driven by hand so every branch of the paper's pseudocode is
   exercised. *)

let nm u = Naming.Name.make ~region:"east" ~host:"h1" ~user:u

let msg id =
  Mail.Message.create ~id ~sender:(nm "alice") ~recipient:(nm "bob") ~submitted_at:0. ()

(* A scripted world of three servers, ids 0 1 2. *)
type world = {
  alive : bool array;
  started : float array;
  boxes : Mail.Message.t list array;  (* pending mail per server *)
  mutable fetches : (int * float) list;  (* (server, time) log *)
}

let world () =
  { alive = [| true; true; true |]; started = [| 0.; 0.; 0. |]; boxes = [| []; []; [] |]; fetches = [] }

let view w =
  {
    Mail.User_agent.is_alive = (fun s -> w.alive.(s));
    last_start = (fun s -> w.started.(s));
    fetch =
      (fun s ~uid:_ _name ~at ->
        w.fetches <- (s, at) :: w.fetches;
        let mail = w.boxes.(s) in
        w.boxes.(s) <- [];
        mail);
  }

let agent () =
  Mail.User_agent.create ~name:(nm "bob") ~host:7 ~authority:[ 0; 1; 2 ] ()

let test_create_validation () =
  try
    ignore (Mail.User_agent.create ~name:(nm "x") ~host:0 ~authority:[] ());
    Alcotest.fail "empty authority accepted"
  with Invalid_argument _ -> ()

let test_first_check_polls_all () =
  (* LastCheckingTime = 0 is not > LastStartTime = 0, so the very
     first check must scan the whole list. *)
  let w = world () in
  let a = agent () in
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:10. in
  Alcotest.(check int) "polls" 3 st.Mail.User_agent.polls;
  Alcotest.(check int) "failed" 0 st.Mail.User_agent.failed_polls

let test_steady_state_single_poll () =
  (* After the first check, a stable primary means exactly one poll —
     the paper's "approximately one under normal conditions". *)
  let w = world () in
  let a = agent () in
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.);
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:20. in
  Alcotest.(check int) "single poll" 1 st.Mail.User_agent.polls

let test_retrieves_mail () =
  let w = world () in
  let a = agent () in
  w.boxes.(0) <- [ msg 1; msg 2 ];
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:10. in
  Alcotest.(check int) "retrieved" 2 st.Mail.User_agent.retrieved;
  Alcotest.(check int) "inbox" 2 (Mail.User_agent.inbox_size a)

let test_failed_primary_goes_to_secondary () =
  let w = world () in
  let a = agent () in
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.);
  w.alive.(0) <- false;
  w.boxes.(1) <- [ msg 1 ];
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:20. in
  Alcotest.(check int) "polls" 2 st.Mail.User_agent.polls;
  Alcotest.(check int) "failed" 1 st.Mail.User_agent.failed_polls;
  Alcotest.(check int) "mail found on secondary" 1 st.Mail.User_agent.retrieved;
  Alcotest.(check (list int)) "primary remembered as unavailable" [ 0 ]
    (Mail.User_agent.previously_unavailable a)

let test_recovered_server_drained () =
  (* The losslessness mechanism: mail deposited on the secondary while
     the primary was down, and mail stuck on the primary from before
     its crash, are both recovered. *)
  let w = world () in
  let a = agent () in
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.);
  (* primary crashes holding old mail *)
  w.alive.(0) <- false;
  w.boxes.(0) <- [ msg 1 ];
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:20.);
  Alcotest.(check int) "nothing yet" 0 (Mail.User_agent.inbox_size a);
  (* primary recovers; LastStartTime moves. *)
  w.alive.(0) <- true;
  w.started.(0) <- 25.;
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:30. in
  Alcotest.(check int) "old mail recovered" 1 st.Mail.User_agent.retrieved;
  Alcotest.(check (list int)) "PUS cleared" []
    (Mail.User_agent.previously_unavailable a)

let test_recovery_forces_deeper_scan () =
  (* When the primary restarted after our last check, mail may sit on
     later servers: the scan must continue past the primary. *)
  let w = world () in
  let a = agent () in
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.);
  (* primary silently crashed and recovered between checks; during the
     outage a message was deposited on server 1. *)
  w.started.(0) <- 15.;
  w.boxes.(1) <- [ msg 9 ];
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:20. in
  Alcotest.(check bool) "scanned beyond primary" true (st.Mail.User_agent.polls >= 2);
  Alcotest.(check int) "found the stranded mail" 1 st.Mail.User_agent.retrieved

let test_stable_primary_stops_scan () =
  (* Primary up since before LastCheckingTime: the scan must stop at
     one poll even if later servers are dead. *)
  let w = world () in
  let a = agent () in
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.);
  w.alive.(1) <- false;
  w.alive.(2) <- false;
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:20. in
  Alcotest.(check int) "one poll despite dead secondaries" 1 st.Mail.User_agent.polls;
  Alcotest.(check int) "no failed polls" 0 st.Mail.User_agent.failed_polls

let test_all_servers_down () =
  let w = world () in
  let a = agent () in
  w.alive.(0) <- false;
  w.alive.(1) <- false;
  w.alive.(2) <- false;
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:10. in
  Alcotest.(check int) "three failed polls" 3 st.Mail.User_agent.failed_polls;
  Alcotest.(check int) "nothing retrieved" 0 st.Mail.User_agent.retrieved;
  Alcotest.(check (list int)) "all remembered" [ 0; 1; 2 ]
    (Mail.User_agent.previously_unavailable a)

let test_duplicate_suppression () =
  (* The same message offered twice (at-least-once delivery) must be
     kept once. *)
  let w = world () in
  let a = agent () in
  let m = msg 7 in
  w.boxes.(0) <- [ m ];
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.);
  w.boxes.(1) <- [ m ];
  w.started.(0) <- 15.;
  (* force deep scan *)
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:20. in
  Alcotest.(check int) "duplicate dropped" 0 st.Mail.User_agent.retrieved;
  Alcotest.(check int) "inbox has one copy" 1 (Mail.User_agent.inbox_size a)

let test_poll_all_baseline () =
  let w = world () in
  let a = agent () in
  ignore (Mail.User_agent.poll_all a ~view:(view w) ~now:10.);
  let st = Mail.User_agent.poll_all a ~view:(view w) ~now:20. in
  Alcotest.(check int) "always all servers" 3 st.Mail.User_agent.polls

let test_naive_misses_stranded_mail () =
  let w = world () in
  let a = agent () in
  ignore (Mail.User_agent.naive_check a ~view:(view w) ~now:10.);
  (* outage: mail lands on secondary; then primary recovers *)
  w.alive.(0) <- false;
  w.boxes.(1) <- [ msg 1 ];
  ignore (Mail.User_agent.naive_check a ~view:(view w) ~now:20.);
  Alcotest.(check int) "naive found it while primary down" 1
    (Mail.User_agent.inbox_size a);
  (* but mail left on a secondary while primary is back is missed *)
  w.alive.(0) <- true;
  w.boxes.(2) <- [ msg 2 ];
  let st = Mail.User_agent.naive_check a ~view:(view w) ~now:30. in
  Alcotest.(check int) "missed" 0 st.Mail.User_agent.retrieved;
  (* GetMail on the same state would have drained it eventually; the
     contrast is asserted in the scenario tests. *)
  Alcotest.(check int) "stranded mail remains" 1 (List.length w.boxes.(2))

let test_setters () =
  let a = agent () in
  Mail.User_agent.set_host a 42;
  Alcotest.(check int) "host" 42 (Mail.User_agent.host a);
  Mail.User_agent.set_authority a [ 2; 1 ];
  Alcotest.(check (list int)) "authority" [ 2; 1 ] (Mail.User_agent.authority a);
  try
    Mail.User_agent.set_authority a [];
    Alcotest.fail "empty authority accepted"
  with Invalid_argument _ -> ()

let test_inbox_order () =
  let w = world () in
  let a = agent () in
  w.boxes.(0) <- [ msg 1; msg 2 ];
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.);
  w.boxes.(0) <- [ msg 3 ];
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:20.);
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ]
    (List.map (fun m -> m.Mail.Message.id) (Mail.User_agent.inbox a))

(* A server cleared from PreviouslyUnavailableServers and marked again
   rejoins at the end of the FIFO; one marked again while still listed
   keeps its place.  Phase 2 drains in that order. *)
let test_pus_readd_goes_last () =
  let w = world () in
  let a = agent () in
  let pus () = Mail.User_agent.previously_unavailable a in
  let check now = ignore (Mail.User_agent.get_mail a ~view:(view w) ~now) in
  Array.fill w.alive 0 3 false;
  check 10.;
  Alcotest.(check (list int)) "marked in poll order" [ 0; 1; 2 ] (pus ());
  (* 0 recovers and is cleared; 1 and 2, still down, keep their places. *)
  w.alive.(0) <- true;
  w.started.(0) <- 15.;
  check 20.;
  Alcotest.(check (list int)) "0 cleared" [ 1; 2 ] (pus ());
  (* 0 fails again: added anew, so it now drains last. *)
  w.alive.(0) <- false;
  check 30.;
  Alcotest.(check (list int)) "0 re-added at the end" [ 1; 2; 0 ] (pus ());
  (* Every server back; 2 restarted long ago, so the phase-1 scan stops
     at 1 (stable since before the last check) and 2 is drained from
     the list in phase 2. *)
  Array.fill w.alive 0 3 true;
  w.started.(0) <- 35.;
  w.started.(1) <- 5.;
  w.started.(2) <- 5.;
  w.fetches <- [];
  check 40.;
  Alcotest.(check (list int)) "drained" [] (pus ());
  Alcotest.(check (list int)) "scan 0, 1, then drain 2" [ 0; 1; 2 ]
    (List.rev_map fst w.fetches)

(* Tracing must never steer a round.  One random script of crashes,
   recoveries (which bump LastStartTime), deposits (some duplicated on
   a second server) and checks runs three times per strategy: with a
   tracer sampling every uid, with a tracer sampling none, and with no
   tracer.  Stats, PUS order, inbox, LastCheckingTime and the ledger
   must agree, and the unsampled tracer must hold no round span. *)
type op = Crash of int | Recover of int | Deposit of int * bool | Check

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun s -> Crash s) (int_bound 2));
        (2, map (fun s -> Recover s) (int_bound 2));
        (3, map2 (fun s dup -> Deposit (s, dup)) (int_bound 2) bool);
        (4, return Check);
      ])

let show_op = function
  | Crash s -> Printf.sprintf "crash %d" s
  | Recover s -> Printf.sprintf "recover %d" s
  | Deposit (s, dup) -> Printf.sprintf "deposit %d%s" s (if dup then "+dup" else "")
  | Check -> "check"

type replay = {
  stats : (int * int * int) list;
  pus_after : int list list;
  inbox_ids : int list;
  last_checking : float;
  ledger_json : string;
  round_spans : int;
}

let replay ~strategy ~tracer ops =
  let w = world () in
  let a = Mail.User_agent.create ~uid:1 ~name:(nm "bob") ~host:7 ~authority:[ 0; 1; 2 ] () in
  let ledger = Mail.Ledger.create () in
  let stats = ref [] and pus_after = ref [] in
  let next_id = ref 0 in
  List.iteri
    (fun step op ->
      let now = float_of_int (10 * (step + 1)) in
      match op with
      | Crash s -> w.alive.(s) <- false
      | Recover s ->
          if not w.alive.(s) then begin
            w.alive.(s) <- true;
            w.started.(s) <- now
          end
      | Deposit (s, dup) ->
          let m = msg !next_id in
          incr next_id;
          (match tracer with
          | Some tr when m.Mail.Message.id mod 2 = 0 ->
              Mail.Message.set_span m
                (Telemetry.Tracer.span tr ~name:"message" ~start:now ())
          | Some _ | None -> ());
          Mail.Message.mark_deposited m ~at:now ~on:s;
          Mail.Ledger.record_submit ledger m ~at:now;
          let put s =
            w.boxes.(s) <- w.boxes.(s) @ [ m ];
            Mail.Ledger.record_deposit ledger m ~at:now
          in
          put s;
          if dup then put ((s + 1) mod 3)
      | Check ->
          let st = strategy ?tracer ~ledger a ~view:(view w) ~now in
          stats :=
            ( st.Mail.User_agent.polls,
              st.Mail.User_agent.failed_polls,
              st.Mail.User_agent.retrieved )
            :: !stats;
          pus_after := Mail.User_agent.previously_unavailable a :: !pus_after)
    ops;
  let round_spans =
    match tracer with
    | None -> 0
    | Some tr ->
        List.length
          (List.filter
             (fun sp -> String.equal sp.Telemetry.Span.name "getmail.check")
             (Telemetry.Tracer.spans tr))
  in
  {
    stats = List.rev !stats;
    pus_after = List.rev !pus_after;
    inbox_ids = List.map (fun m -> m.Mail.Message.id) (Mail.User_agent.inbox a);
    last_checking = Mail.User_agent.last_checking_time a;
    ledger_json =
      Telemetry.Json.to_string (Mail.Ledger.verdict_to_json (Mail.Ledger.check ledger));
    round_spans;
  }

let prop_tracing_does_not_steer_rounds =
  QCheck.Test.make ~name:"sampled, unsampled and untraced rounds agree" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let checks = List.length (List.filter (fun op -> op = Check) ops) in
      List.for_all
        (fun strategy ->
          let every =
            replay ~strategy ~tracer:(Some (Telemetry.Tracer.create ~sample:1 ())) ops
          in
          let none =
            replay ~strategy ~tracer:(Some (Telemetry.Tracer.create ~sample:max_int ())) ops
          in
          let untraced = replay ~strategy ~tracer:None ops in
          let same r = { r with round_spans = 0 } in
          every.round_spans = checks
          && none.round_spans = 0
          && same every = same none
          && same none = untraced)
        [
          (fun ?tracer ~ledger a ~view ~now ->
            Mail.User_agent.get_mail ?tracer ~ledger a ~view ~now);
          (fun ?tracer ~ledger a ~view ~now ->
            Mail.User_agent.poll_all ?tracer ~ledger a ~view ~now);
          (fun ?tracer ~ledger a ~view ~now ->
            Mail.User_agent.naive_check ?tracer ~ledger a ~view ~now);
        ])

(* The dedup table is created with the first accepted message: rounds
   that fetch nothing — every server empty, or down — leave the agent
   without one.  Once created it stays, even emptied by compaction. *)
let test_no_mail_no_table () =
  let w = world () in
  let a = agent () in
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.);
  ignore (Mail.User_agent.poll_all a ~view:(view w) ~now:20.);
  w.alive.(0) <- false;
  ignore (Mail.User_agent.naive_check a ~view:(view w) ~now:30.);
  Alcotest.(check bool) "empty rounds: no table" false (Mail.User_agent.holds_table a);
  Alcotest.(check int) "nothing to compact" 0 (Mail.User_agent.compact a (fun _ -> true));
  w.boxes.(1) <- [ msg 4 ];
  ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:40.);
  Alcotest.(check bool) "first accepted message: table" true (Mail.User_agent.holds_table a);
  Alcotest.(check int) "one entry" 1 (Mail.User_agent.seen_size a);
  Alcotest.(check int) "compacted" 1 (Mail.User_agent.compact a (fun _ -> true));
  Alcotest.(check bool) "kept once emptied" true (Mail.User_agent.holds_table a)

(* [compact_holders] visits the agents that joined the registry — those
   with a table — and none that [retire] took out. *)
let test_compact_holders () =
  let h = Mail.User_agent.holders () in
  let mk () = Mail.User_agent.create ~holders:h ~name:(nm "bob") ~host:7 ~authority:[ 0 ] () in
  let feed a ids =
    let w = world () in
    w.boxes.(0) <- List.map msg ids;
    ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.)
  in
  let kept = mk () and idle = mk () and gone = mk () in
  feed kept [ 1; 2; 3 ];
  feed gone [ 4; 5 ];
  Alcotest.(check bool) "idle agent: no table" false (Mail.User_agent.holds_table idle);
  Mail.User_agent.retire gone;
  Mail.User_agent.retire idle;
  let visited = ref 0 in
  let dropped =
    Mail.User_agent.compact_holders h (fun id ->
        incr visited;
        id <> 2)
  in
  Alcotest.(check int) "kept's two settled ids" 2 dropped;
  Alcotest.(check int) "only kept's entries visited" 3 !visited;
  Alcotest.(check int) "gone untouched" 2 (Mail.User_agent.seen_size gone);
  Mail.User_agent.retire kept;
  Alcotest.(check int) "registry empty" 0 (Mail.User_agent.compact_holders h (fun _ -> true));
  Alcotest.(check int) "kept untouched" 1 (Mail.User_agent.seen_size kept)

(* In-place compaction against the fold -> sort -> remove it replaced:
   the same ids are removed and the same count returned.  The ids left
   are read back by offering every id again — exactly the removed ones
   are fresh. *)
let reference_compact seen prunable =
  let doomed =
    Dsim.Id_table.fold (fun id () acc -> if prunable id then id :: acc else acc) seen []
    |> List.sort Int.compare
  in
  List.iter (Dsim.Id_table.remove seen) doomed;
  (List.length doomed, doomed)

let prop_compact_matches_reference =
  QCheck.Test.make ~name:"in-place compaction removes what fold/sort/remove did" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 150) (int_range 0 300))
        (list_of_size Gen.(int_range 0 150) (int_range 0 300)))
    (fun (ids, doomed) ->
      let prunable id = List.mem id doomed in
      let reference = Dsim.Id_table.create 32 in
      List.iter (fun id -> Dsim.Id_table.replace reference id ()) ids;
      let ref_count, ref_removed = reference_compact reference prunable in
      let w = world () in
      let a = agent () in
      w.boxes.(0) <- List.map msg ids;
      ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:10.);
      let count = Mail.User_agent.compact a prunable in
      let left = Mail.User_agent.seen_size a in
      let distinct = List.sort_uniq Int.compare ids in
      w.boxes.(0) <- List.map msg distinct;
      let before = Mail.User_agent.inbox_size a in
      ignore (Mail.User_agent.get_mail a ~view:(view w) ~now:20.);
      let fresh =
        List.filteri (fun i _ -> i >= before) (Mail.User_agent.inbox a)
        |> List.map (fun m -> m.Mail.Message.id)
        |> List.sort Int.compare
      in
      count = ref_count
      && left = Dsim.Id_table.length reference
      && fresh = ref_removed)

(* A server that never restarted reads LastStartTime = -inf, the real
   initial value of [Mail.Server.last_start]: the primary is stable for
   the user's first check, so that check is one poll. *)
let fresh_start = Mail.Server.last_start (Mail.Server.create ~node:0 ~region:"east" ())

let test_never_restarted_stable_first_check () =
  let w = world () in
  Array.fill w.started 0 3 fresh_start;
  w.alive.(1) <- false;
  w.boxes.(0) <- [ msg 1 ];
  let a = agent () in
  let st = Mail.User_agent.get_mail a ~view:(view w) ~now:10. in
  Alcotest.(check int) "one poll" 1 st.Mail.User_agent.polls;
  Alcotest.(check int) "no failed polls" 0 st.Mail.User_agent.failed_polls;
  Alcotest.(check int) "mail retrieved" 1 st.Mail.User_agent.retrieved

(* Exhaustive small-scope check of the §3.1.2c retrieval claims
   (Jackson's small-scope hypothesis): every op sequence up to a bound
   over the three-server world, each replayed from a fresh world.

   - The clock starts at 0, the agent's LastCheckingTime, and only
     [Tick] moves it (by 10).  Every op between two ticks happens at
     the same instant, so LastStartTime/LastCheckingTime ties are
     covered; an op that keeps the time unchanged would change nothing
     and is not enumerated.
   - Servers start at a fresh holder's [Mail.Server.last_start];
     [Recover] records the current time.
   - [Deposit] puts a new message on the first up server, the
     pipeline's deposit rule; with every server down it waits for the
     next [Recover].
   - Ops that change nothing are skipped: a crash of a down server, a
     recovery of an up one.

   Each check must poll at most the chain's three servers, and a check
   with no crash before it exactly one, the first check included.
   After the ops, every server recovers and the user checks once more:
   every deposited message must then be in the inbox exactly once.

   Sequences are tried shortest first, so the first violation found is
   a minimal op list.  The tier-1 bound is 6 ops; set
   GETMAIL_SCOPE_DEPTH for a deeper run (8 takes about 2 s, 9 about 16 s). *)
module Scope = struct
  type op = Crash of int | Recover of int | Deposit | Check | Tick

  let show = function
    | Crash s -> Printf.sprintf "crash %d" s
    | Recover s -> Printf.sprintf "recover %d" s
    | Deposit -> "deposit"
    | Check -> "check"
    | Tick -> "tick 10"

  let show_ops ops = "[" ^ String.concat "; " (List.map show ops) ^ "]"

  (* The ops that change something, given the bit set of up servers. *)
  let moves up =
    List.init 3 (fun s -> if up land (1 lsl s) <> 0 then Crash s else Recover s)
    @ [ Deposit; Check; Tick ]

  let after up = function
    | Crash s -> up land lnot (1 lsl s)
    | Recover s -> up lor (1 lsl s)
    | Deposit | Check | Tick -> up

  exception Violation of string

  let run strategy ops =
    let w = world () in
    Array.fill w.started 0 3 fresh_start;
    let a = agent () in
    let clock = ref 0. and crashed = ref false and deposited = ref 0 in
    let waiting = ref [] in
    let fail fmt =
      Printf.ksprintf (fun why -> raise (Violation (show_ops ops ^ ": " ^ why))) fmt
    in
    let deposit m =
      match List.find_opt (fun s -> w.alive.(s)) [ 0; 1; 2 ] with
      | Some s -> w.boxes.(s) <- w.boxes.(s) @ [ m ]
      | None -> waiting := !waiting @ [ m ]
    in
    let check () =
      let st = strategy a ~view:(view w) ~now:!clock in
      let polls = st.Mail.User_agent.polls in
      if polls > 3 then fail "%d polls on a chain of 3" polls;
      if (not !crashed) && polls <> 1 then fail "%d polls with no crash before the check" polls
    in
    let apply = function
      | Crash s ->
          w.alive.(s) <- false;
          crashed := true
      | Recover s ->
          w.alive.(s) <- true;
          w.started.(s) <- !clock;
          let held = !waiting in
          waiting := [];
          List.iter deposit held
      | Deposit ->
          deposit (msg !deposited);
          incr deposited
      | Check -> check ()
      | Tick -> clock := !clock +. 10.
    in
    List.iter apply ops;
    List.iter (fun s -> if not w.alive.(s) then apply (Recover s)) [ 0; 1; 2 ];
    check ();
    let inbox =
      List.sort Int.compare (List.map (fun m -> m.Mail.Message.id) (Mail.User_agent.inbox a))
    in
    if inbox <> List.init !deposited Fun.id then
      fail "inbox holds [%s] of %d deposited"
        (String.concat "; " (List.map string_of_int inbox))
        !deposited

  (* Every sequence of at most [depth] ops, by iterative deepening:
     the first violation and how many sequences were replayed. *)
  let search strategy ~depth =
    let replayed = ref 0 in
    let rec exactly k rev up =
      if k = 0 then begin
        incr replayed;
        match run strategy (List.rev rev) with
        | () -> None
        | exception Violation why -> Some why
      end
      else List.find_map (fun op -> exactly (k - 1) (op :: rev) (after up op)) (moves up)
    in
    let rec deepen k =
      if k > depth then None
      else match exactly k [] 0b111 with Some why -> Some why | None -> deepen (k + 1)
    in
    let found = deepen 0 in
    (found, !replayed)

  let depth =
    match Sys.getenv_opt "GETMAIL_SCOPE_DEPTH" with
    | Some d -> int_of_string d
    | None -> 6

  let get_mail a ~view ~now = Mail.User_agent.get_mail a ~view ~now
  let naive_check a ~view ~now = Mail.User_agent.naive_check a ~view ~now
end

(* Six moves at every step: 1 + 6 + ... + 6^depth sequences. *)
let test_small_scope_get_mail () =
  let found, replayed = Scope.search Scope.get_mail ~depth:Scope.depth in
  Option.iter (Alcotest.failf "GetMail violates §3.1.2c: %s") found;
  let rec sequences k = if k < 0 then 0 else 1 + (6 * sequences (k - 1)) in
  Alcotest.(check int) "every sequence replayed" (sequences Scope.depth) replayed

(* The checker's teeth: the naive strategy loses mail, and the minimal
   op list it finds is the test below. *)
let test_small_scope_finds_naive_loss () =
  match Scope.search Scope.naive_check ~depth:Scope.depth with
  | Some why, _ ->
      Alcotest.(check string) "minimal counterexample"
        "[crash 0; deposit]: inbox holds [] of 1 deposited" why
  | None, _ -> Alcotest.fail "naive_check lost nothing"

(* The minimal counterexample: mail deposited on server 1 while 0 is
   down is never found by a strategy that polls only the first up
   server once 0 is back; GetMail's PUS finds it. *)
let test_naive_loses_after_one_crash () =
  let ops = Scope.[ Crash 0; Deposit ] in
  (match Scope.run Scope.naive_check ops with
  | () -> Alcotest.fail "naive_check kept the mail"
  | exception Scope.Violation _ -> ());
  Scope.run Scope.get_mail ops

let suite =
  [
    ( "user_agent",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "first check polls all" `Quick test_first_check_polls_all;
        Alcotest.test_case "steady state: one poll" `Quick test_steady_state_single_poll;
        Alcotest.test_case "retrieves mail" `Quick test_retrieves_mail;
        Alcotest.test_case "failover to secondary" `Quick
          test_failed_primary_goes_to_secondary;
        Alcotest.test_case "recovered server drained" `Quick
          test_recovered_server_drained;
        Alcotest.test_case "recovery forces deeper scan" `Quick
          test_recovery_forces_deeper_scan;
        Alcotest.test_case "stable primary stops scan" `Quick
          test_stable_primary_stops_scan;
        Alcotest.test_case "all servers down" `Quick test_all_servers_down;
        Alcotest.test_case "duplicate suppression" `Quick test_duplicate_suppression;
        Alcotest.test_case "poll_all baseline" `Quick test_poll_all_baseline;
        Alcotest.test_case "naive misses stranded mail" `Quick
          test_naive_misses_stranded_mail;
        Alcotest.test_case "setters" `Quick test_setters;
        Alcotest.test_case "inbox order" `Quick test_inbox_order;
        Alcotest.test_case "PUS: re-added server drains last" `Quick
          test_pus_readd_goes_last;
        QCheck_alcotest.to_alcotest prop_tracing_does_not_steer_rounds;
        Alcotest.test_case "no accepted mail, no dedup table" `Quick test_no_mail_no_table;
        Alcotest.test_case "compaction visits table holders" `Quick test_compact_holders;
        QCheck_alcotest.to_alcotest prop_compact_matches_reference;
        Alcotest.test_case "never-restarted server is stable on the first check" `Quick
          test_never_restarted_stable_first_check;
        Alcotest.test_case "small scope: GetMail loses nothing, one poll when calm" `Quick
          test_small_scope_get_mail;
        Alcotest.test_case "small scope: finds naive's loss" `Quick
          test_small_scope_finds_naive_loss;
        Alcotest.test_case "naive loses: crash 0; deposit" `Quick
          test_naive_loses_after_one_crash;
      ] );
  ]
