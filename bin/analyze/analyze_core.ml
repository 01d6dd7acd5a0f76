(* mailsys.analyze: the repository's static gate.  It reads the .cmt
   typed ASTs dune emits ([-bin-annot]) — so it can see through local
   helper functions, resolve identifier paths through [open]s and
   module aliases, and ask what type a comparison was instantiated at.
   Nine rules.  R1–R5 guard determinism: every artifact the repo
   compares across runs and PRs (BENCH.json, TRACE.jsonl, LEDGER.json,
   outcome.metrics) depends on a seeded simulation being
   bit-deterministic.

   R1 [unsorted-fold]   a Hashtbl fold/iter (including module aliases
                        of Hashtbl and Hashtbl.Make instances, also
                        ones another analysed unit exports) whose
                        callback builds a list (contains a cons),
                        inside a top-level binding with no List/Array
                        sort — hash order escapes.
   R2 [poly-compare]    [Hashtbl.hash]/[Hashtbl.seeded_hash] — require
                        typed hash mixes.  Bare [compare] and the
                        comparison operators are A4's job.
   R3 [wall-clock]      wall-clock or ambient entropy ([Sys.time],
                        [Unix.gettimeofday]/[time]/[gmtime]/
                        [localtime], global [Random.*]) in sim code;
                        use [Dsim.Rng] or the telemetry probe.
   R4 [stdout]          [print_*]/[Printf.printf]/[Format.printf]/
                        [exit]/[Printexc.print_backtrace] in [lib/].
   R5 [missing-mli]     a [lib/] module without an .mli.

   A1 [hot-path-alloc]  for a declared hot-function set (engine step,
                        heap push/pop, Net.send, pipeline handlers,
                        replica deposit/fetch, telemetry bump paths)
                        count heap-allocation sites per function and
                        ratchet them against a checked-in baseline
                        (analysis_baseline.json).  Counts are a static
                        proxy: closure/tuple/record/variant/array
                        construction, partial applications, allocating
                        stdlib calls and float-arith boxing sites.
   A2 [metric-name]     every string literal reaching a
                        Telemetry.Registry counter/gauge/histogram
                        constructor — including ones flowing through
                        local helpers like [let set name v = ...] and
                        promoted counter lists — must appear in the
                        docs/METRICS.md tables, every documented
                        metric must have an emitter, and every
                        monitor-DSL rule literal must reference an
                        emitted metric.
   A3 [span-drift]      span names created through Telemetry.Tracer
                        must match the docs/TRACING.md stage tables
                        (the stage list Critical_path reports on), and
                        a compilation unit that opens spans without
                        [~finish] must also contain a [Span.finish].
   A4 [poly-compare]    type-directed companion of R2: bare
                        [compare] and the =/<>/</>/<=/>= operators are
                        flagged only when instantiated at a type where
                        polymorphic comparison is actually unsafe —
                        function types, abstract types, extensible
                        variants, lazy values, first-class modules, or
                        an unresolved type variable.

   Findings print as [file:line rule message].  A finding can be
   suppressed with an audited comment on the same or the preceding
   line (markdown docs use [<!-- lint: allow ... -->]):

     (* lint: allow <rule> — reason *)

   The annotation may live inside a multi-line comment block; the
   justification may continue over following lines, and the block
   suppresses matching findings on any line it touches plus the line
   directly after it.  A suppression without a reason, or naming no
   rule of this gate, is itself reported [bad-suppression] in every
   source file the gate reads; an audited one that silences no finding
   is reported [unused-suppression].  Neither can be suppressed.
   [missing-mli] is suppressed by an allow comment anywhere in the
   .ml.  The machine-readable report (ANALYSIS.json) carries schema
   [mailsys.analysis/1]. *)

open Typedtree
open Asttypes

type violation = { file : string; line : int; rule : string; message : string }

let compare_violation a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
  | c -> c

let pp_violation ppf v =
  Format.fprintf ppf "%s:%d %s %s" v.file v.line v.rule v.message

(* --- suppression comments ---------------------------------------------- *)

type allow = {
  a_line : int;  (* line carrying the "lint: allow" marker *)
  a_until : int;  (* last line the suppression covers (comment block
                     end + 1, so an annotation above a construct works
                     even when the justification spans lines) *)
  a_rule : string;
  a_reason : bool;
}

(* The rules an allow comment may name: R1–R5, then A1–A3 (A4 reports
   under R2's name). *)
let all_rules =
  [ "unsorted-fold"; "poly-compare"; "wall-clock"; "stdout"; "missing-mli";
    "hot-path-alloc"; "metric-name"; "span-drift" ]

(* Comment blocks [(start_offset, end_offset_exclusive, end_line)] of
   the source, honouring nesting and string literals (both outside and
   inside comments — OCaml lexes strings within comments).  Best
   effort: a miss only costs a (visible) finding. *)
let comment_blocks source =
  let n = String.length source in
  let line = ref 1 in
  let blocks = ref [] in
  let i = ref 0 in
  let bump c = if c = '\n' then incr line in
  (* skip a string literal starting at [i] (source.[i] = '"') *)
  let skip_string () =
    incr i;
    let rec go () =
      if !i < n then
        match source.[!i] with
        | '"' -> incr i
        | '\\' when !i + 1 < n ->
            bump source.[!i + 1];
            i := !i + 2;
            go ()
        | c ->
            bump c;
            incr i;
            go ()
    in
    go ()
  in
  let rec skip_comment depth start =
    if !i >= n then blocks := (start, n, !line) :: !blocks
    else if !i + 1 < n && source.[!i] = '*' && source.[!i + 1] = ')' then begin
      i := !i + 2;
      if depth = 1 then blocks := (start, !i, !line) :: !blocks
      else skip_comment (depth - 1) start
    end
    else if !i + 1 < n && source.[!i] = '(' && source.[!i + 1] = '*' then begin
      i := !i + 2;
      skip_comment (depth + 1) start
    end
    else if source.[!i] = '"' then begin
      skip_string ();
      skip_comment depth start
    end
    else begin
      bump source.[!i];
      incr i;
      skip_comment depth start
    end
  in
  while !i < n do
    if !i + 1 < n && source.[!i] = '(' && source.[!i + 1] = '*' then begin
      let start = !i in
      i := !i + 2;
      skip_comment 1 start
    end
    else if source.[!i] = '"' then skip_string ()
    else if
      (* char literal '"' would otherwise open a bogus string *)
      !i + 2 < n && source.[!i] = '\'' && source.[!i + 2] = '\''
      && source.[!i + 1] <> '\\'
    then begin
      bump source.[!i + 1];
      i := !i + 3
    end
    else begin
      bump source.[!i];
      incr i
    end
  done;
  List.rev !blocks

(* Find "lint: allow <rule>[ — reason]" annotations.  The marker, the
   rule and the reason may be spread across the lines of one comment
   block; outside any block (e.g. markdown files, where suppressions
   ride in "<!-- lint: allow ... -->" comments) the annotation is read
   to the end of its line. *)
let scan_allows source =
  let marker = "lint: allow " in
  let mlen = String.length marker in
  let n = String.length source in
  let blocks = comment_blocks source in
  (* offset -> line, via a simple forward walk over all marker hits *)
  let hits = ref [] in
  let line = ref 1 in
  for i = 0 to n - 1 do
    if source.[i] = '\n' then incr line
    else if i + mlen <= n && String.sub source i mlen = marker then
      hits := (i, !line) :: !hits
  done;
  let line_end_of_offset off =
    (* line number of the last line touched by [0, off) *)
    let l = ref 1 in
    for i = 0 to off - 1 do
      if source.[i] = '\n' then incr l
    done;
    !l
  in
  List.rev_map
    (fun (off, lnum) ->
      let text_end, until =
        match
          List.find_opt (fun (s, e, _) -> off >= s && off < e) blocks
        with
        | Some (_, e, _) ->
            (* strip the closing "*)" so a flush rule name parses *)
            let e' = if e >= 2 then e - 2 else e in
            (max (off + mlen) e', line_end_of_offset e + 1)
        | None ->
            let eol =
              match String.index_from_opt source off '\n' with
              | Some j -> j
              | None -> n
            in
            (eol, lnum + 1)
      in
      let text = String.sub source (off + mlen) (text_end - (off + mlen)) in
      (* collapse the block's newlines: the annotation reads as one line *)
      let text =
        String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) text
      in
      let text = String.trim text in
      let rule =
        match String.index_opt text ' ' with
        | Some i -> String.sub text 0 i
        | None -> text
      in
      let after =
        String.sub text (String.length rule) (String.length text - String.length rule)
      in
      (* audited: the comment must carry a reason after a dash *)
      let has_reason =
        let dash i =
          (* "—" (U+2014, 3 bytes) or "-" *)
          after.[i] = '-'
          || (i + 2 < String.length after
             && Char.code after.[i] = 0xE2
             && Char.code after.[i + 1] = 0x80)
        in
        let rec scan i seen_dash =
          if i >= String.length after then false
          else if seen_dash then
            (* any word character after the dash counts as a reason *)
            match after.[i] with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
            | _ -> scan (i + 1) true
          else if dash i then scan (i + 1) true
          else scan (i + 1) false
        in
        scan 0 false
      in
      (* Prose merely mentioning the syntax (placeholders like
         "<rule>") is not an annotation. *)
      let rule_shaped =
        String.length rule > 0
        && String.for_all (function 'a' .. 'z' | '-' -> true | _ -> false) rule
      in
      if rule_shaped then
        Some { a_line = lnum; a_until = until; a_rule = rule; a_reason = has_reason }
      else None)
    !hits
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> Int.compare a.a_line b.a_line)

(* Does the audited allow [a] silence a finding of [rule] at [line]?
   [missing-mli] is file-level: an allow anywhere in the .ml covers it. *)
let covers a ~rule ~line =
  String.equal a.a_rule rule && a.a_reason
  && (String.equal rule "missing-mli" || (line >= a.a_line && line <= a.a_until))

let suppressed allows ~rule ~line = List.exists (covers ~rule ~line) allows

(* Allow comments that are malformed ([bad-suppression]) or, given the
   unsuppressed findings [raw] of the whole tree, silence nothing in
   [file] ([unused-suppression]).  Neither finding is itself
   suppressible. *)
let allow_violations file allows raw =
  List.filter_map
    (fun a ->
      if not (List.mem a.a_rule all_rules) then
        Some
          {
            file;
            line = a.a_line;
            rule = "bad-suppression";
            message =
              Printf.sprintf "unknown rule %S in lint: allow comment" a.a_rule;
          }
      else if not a.a_reason then
        Some
          {
            file;
            line = a.a_line;
            rule = "bad-suppression";
            message =
              Printf.sprintf
                "suppression of %s must carry a reason: (* lint: allow %s — why *)"
                a.a_rule a.a_rule;
          }
      else if
        not
          (List.exists
             (fun (viol : violation) ->
               String.equal viol.file file
               && covers a ~rule:viol.rule ~line:viol.line)
             raw)
      then
        Some
          {
            file;
            line = a.a_line;
            rule = "unused-suppression";
            message =
              Printf.sprintf "allow of %s suppresses no finding; delete it" a.a_rule;
          }
      else None)
    allows

(* --- the source walk ---------------------------------------------------- *)

(* normalised relative paths: lib/..., ./lib/..., /abs/.../lib/... *)
let in_lib path = List.mem "lib" (String.split_on_char '/' path)

(* The .ml/.mli files under [path], skipping hidden and _build
   directories. *)
let rec collect_sources path acc =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if String.length entry > 0 && entry.[0] = '.' then acc
           else if String.equal entry "_build" then acc
           else collect_sources (Filename.concat path entry) acc)
         acc
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

(* --- the hot-function set (A1) ------------------------------------------ *)

(* Dotted module name -> function names whose allocation counts are
   ratcheted.  These are the per-event code paths the ROADMAP's
   flat-core refactor targets: every site removed here is multiplied
   by ~50k events/sec. *)
let default_hot_set =
  [
    ( "Dsim.Engine",
      [ "exec"; "step"; "step_uninstrumented"; "settle_head"; "drain"; "run";
        "schedule_at"; "schedule_after"; "schedule_after_cat"; "next_time";
        "advance"; "schedule_at_cat"; "heap_push"; "lane_push"; "drop_heap";
        "drop_lane"; "min_lane"; "head_before"; "settle_heap"; "settle_lane";
        "head_time"; "due_after" ] );
    ("Dsim.Heap", [ "push"; "pop"; "peek"; "sift_up"; "sift_down" ]);
    ("Netsim.Net", [ "send"; "send_raw"; "send_timed"; "route" ]);
    ( "Mail.Pipeline",
      [
        "handle_wire";
        "through_queue";
        "do_deposit";
        "deposit_with";
        "resolve_phase";
        "try_submit";
        "submit_to";
        "send_fenced";
        "flight";
        "hand_off";
        "pending_for";
        "ack_pending";
        "finish_round";
      ] );
    ( "Mail.Replica_group",
      [ "write"; "fetch"; "serve"; "observe_latencies"; "unfetched"; "add_unfetched" ] );
    ("Mail.Server", [ "take" ]);
    ( "Mail.User_agent",
      [
        "get_mail";
        "poll_all";
        "naive_check";
        "start";
        "contact";
        "record_poll";
        "fresh_only";
        "scan";
        "drain";
        "poll_every";
        "first_alive";
        "finish";
        "marked";
        "remove_pus";
      ] );
    ( "Telemetry.Registry",
      [ "incr"; "set_counter"; "set_gauge"; "add_gauge"; "observe"; "find_or_create" ] );
  ]

(* --- scan results ------------------------------------------------------- *)

type alloc_site = { al_line : int; al_kind : string }

type hot_fn = {
  hf_name : string;  (* "Dsim.Engine.step" *)
  hf_file : string;
  hf_line : int;
  hf_sites : alloc_site list;  (* sorted by line *)
}

type poly_site = {
  pc_file : string;
  pc_line : int;
  pc_op : string;  (* "compare", "=", ... *)
  pc_type : string;  (* printed instantiated argument type *)
  pc_reason : string;  (* why polymorphic comparison is unsafe there *)
}

type facts = {
  f_file : string;  (* source path recorded in the cmt *)
  f_module : string;  (* dotted module name *)
  f_hot : hot_fn list;
  f_metrics : (string * int) list;  (* metric name literal, line *)
  f_spans : (string * int * bool) list;  (* span name, line, closed at creation *)
  f_finishes : int list;  (* lines of Span.finish calls *)
  f_monitor_refs : (string * string * int) list;  (* rule name, metric, line *)
  f_poly : poly_site list;
  f_strings : string list;
      (* every name-shaped string literal in the unit — weak evidence
         that a documented name is still wired up somewhere, used to
         keep A3 quiet about spans emitted through data structures
         (e.g. hop names stored in a table and closed at the receiving
         node) *)
  f_lint : violation list;  (* R1–R4 findings, unfiltered *)
}

(* --- path helpers ------------------------------------------------------- *)

(* "Telemetry__Registry.counter" -> "Telemetry.Registry.counter" *)
let norm_name s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let norm_path p = norm_name (Path.name p)

let path_has_suffix p suffix =
  let s = norm_path p in
  String.equal s suffix || String.ends_with ~suffix:("." ^ suffix) s

let drop_stdlib s =
  let pre = "Stdlib." in
  if String.length s > String.length pre && String.sub s 0 (String.length pre) = pre
  then String.sub s (String.length pre) (String.length s - String.length pre)
  else s

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* --- R1–R4: determinism rules on resolved paths -------------------------- *)

(* The module a module expression stands for: an alias
   ([module T = Hashtbl]) its target, a functor application
   ([module H = Hashtbl.Make (Int)]) the functor's parent module,
   whose fold and iter the instance shares. *)
let rec module_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> module_target me
  | Tmod_apply (f, _, _) | Tmod_apply_unit f -> (
      match module_target f with Some (Path.Pdot (m, _)) -> Some m | _ -> None)
  | _ -> None

(* Module bindings of a unit that stand for another module, mapped to
   their [module_target]. *)
let module_aliases str =
  let aliases = ref [] in
  let bind id me =
    match (id, module_target me) with
    | Some id, Some p -> aliases := (id, p) :: !aliases
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          bind mb.mb_id mb.mb_expr;
          Tast_iterator.default_iterator.module_binding self mb);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_letmodule (id, _, _, me, _) -> bind id me
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !aliases

(* The global name a value path denotes once the unit's module aliases
   are expanded ("Hashtbl.fold" for [T.fold] under [module T =
   Hashtbl]), without the [Stdlib.] prefix.  [None] for a path rooted
   in a local binding: a module-local [exit] or [Random] is not the
   stdlib one. *)
let global_name aliases p =
  let rec expand p =
    match p with
    | Path.Pident id -> (
        match List.find_opt (fun (a, _) -> Ident.same a id) aliases with
        | Some (_, target) -> expand target
        | None -> p)
    | Path.Pdot (m, s) -> Path.Pdot (expand m, s)
    | _ -> p
  in
  let p = expand p in
  if Ident.global (Path.head p) then Some (drop_stdlib (norm_path p)) else None

let sort_fns =
  [ "List.sort"; "List.sort_uniq"; "List.stable_sort"; "List.fast_sort";
    "Array.sort"; "Array.stable_sort"; "Array.fast_sort" ]

(* R2–R4 for one resolved identifier: [Some (rule, message)]. *)
let ident_rule ~in_lib name =
  let stdout message = if in_lib then Some ("stdout", message) else None in
  match name with
  | "Hashtbl.hash" | "Hashtbl.seeded_hash" ->
      Some
        ( "poly-compare",
          "polymorphic Hashtbl.hash; derive a typed hash from \
           String.hash/Int.hash instead" )
  | "Sys.time" ->
      Some
        ( "wall-clock",
          "Sys.time reads the wall clock; sim code must use virtual time \
           (Dsim.Engine.now) or go through the telemetry probe" )
  | "Unix.gettimeofday" | "Unix.time" | "Unix.gmtime" | "Unix.localtime" ->
      Some
        ( "wall-clock",
          Printf.sprintf
            "%s reads the wall clock; sim code must use virtual time \
             (Dsim.Engine.now)"
            name )
  | "print_endline" | "print_string" | "print_newline" | "print_int"
  | "print_float" | "print_char" ->
      stdout
        (Printf.sprintf
           "%s writes to stdout from library code; return data or take a \
            formatter"
           name)
  | "exit" -> stdout "exit from library code; raise or return an error instead"
  | "Printf.printf" ->
      stdout
        "Printf.printf writes to stdout from library code; use sprintf or a \
         formatter argument"
  | "Format.printf" ->
      stdout
        "Format.printf writes to stdout from library code; take a formatter \
         argument"
  | "Printexc.print_backtrace" ->
      stdout
        "Printexc.print_backtrace writes to an ambient channel from library \
         code"
  | _ -> (
      match String.split_on_char '.' name with
      | [ "Random"; f ] ->
          Some
            ( "wall-clock",
              Printf.sprintf
                "Random.%s uses ambient global entropy; use Dsim.Rng with an \
                 explicit seed"
                f )
      | _ -> None)

(* Does an expression tree contain a list cons anywhere?  A fold/iter
   callback that conses builds an order-dependent list. *)
let contains_cons expr =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_construct (_, { Types.cstr_name = "::"; _ }, _) -> found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it expr;
  !found

(* Is [name] (a [global_name]) a Hashtbl fold or iter?  Besides
   [Hashtbl]'s own, the fold and iter of every instance in [tables]
   (see [exported_tables]) count. *)
let hashtbl_walk ~tables name =
  match String.rindex_opt name '.' with
  | None -> false
  | Some i ->
      let m = String.sub name 0 i in
      let f = String.sub name (i + 1) (String.length name - i - 1) in
      (String.equal f "fold" || String.equal f "iter")
      && (String.equal m "Hashtbl" || List.mem m tables)

(* R1–R4 over one unit.  A top-level binding is R1's "same function"
   scope: a consing Hashtbl fold/iter in it is reported unless the
   binding also sorts. *)
let determinism_findings ~tables ~file str =
  let aliases = module_aliases str in
  let in_lib = in_lib file in
  let out = ref [] in
  let add loc rule message =
    out := { file; line = line_of loc; rule; message } :: !out
  in
  let check_binding expr =
    let escapes = ref [] and sorts = ref false in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.exp_desc with
            | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
                match global_name aliases p with
                | Some name
                  when hashtbl_walk ~tables name
                       && List.exists
                            (fun (_, a) -> Option.fold ~none:false ~some:contains_cons a)
                            args ->
                    escapes := e.exp_loc :: !escapes
                | _ -> ())
            | Texp_ident (p, _, _) -> (
                match global_name aliases p with
                | Some name ->
                    if List.mem name sort_fns then sorts := true;
                    Option.iter
                      (fun (rule, message) -> add e.exp_loc rule message)
                      (ident_rule ~in_lib name)
                | None -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    it.expr it expr;
    if not !sorts then
      List.iter
        (fun loc ->
          add loc "unsorted-fold"
            "Hashtbl fold/iter builds a list but the binding never sorts; \
             hash order escapes — List.sort with a typed comparator before \
             the result leaves this function")
        !escapes
  in
  let it =
    {
      Tast_iterator.default_iterator with
      structure_item =
        (fun self item ->
          match item.str_desc with
          | Tstr_value (_, vbs) -> List.iter (fun vb -> check_binding vb.vb_expr) vbs
          | Tstr_eval (e, _) -> check_binding e
          | _ -> Tast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it str;
  List.rev !out

(* --- A1: allocation-site counting --------------------------------------- *)

(* Calls into the stdlib that allocate on every invocation. *)
let allocating_calls =
  [
    "^"; "@"; "ref";
    "List.append"; "List.concat"; "List.rev"; "List.rev_append"; "List.map";
    "List.mapi"; "List.rev_map"; "List.filter"; "List.filter_map"; "List.init";
    "List.sort"; "List.sort_uniq"; "List.stable_sort"; "List.concat_map";
    "List.split"; "List.combine";
    "Array.make"; "Array.init"; "Array.append"; "Array.concat"; "Array.copy";
    "Array.sub"; "Array.of_list"; "Array.to_list"; "Array.map";
    "String.concat"; "String.sub"; "String.make"; "String.map"; "String.init";
    "String.split_on_char"; "String.trim"; "String.uppercase_ascii";
    "String.lowercase_ascii";
    "Bytes.make"; "Bytes.sub"; "Bytes.create"; "Bytes.cat";
    "Printf.sprintf"; "Format.asprintf"; "Format.sprintf";
    "Buffer.create"; "Buffer.contents"; "Hashtbl.create";
    "string_of_int"; "string_of_float"; "float_of_string"; "int_of_string_opt";
  ]

(* Float arithmetic whose boxed result is an allocation unless the
   compiler keeps it unboxed — counted as its own site kind so the
   baseline shows the breakdown. *)
let float_arith = [ "+."; "-."; "*."; "/."; "**"; "~-."; "float_of_int"; "Float.of_int" ]

(* Peel the leading curried-lambda spine of a function definition: the
   chain [fun a -> fun b -> ...]/[function ...] that forms the
   function's declared parameters compiles to one multi-argument
   function and allocates nothing per call.  Everything below counts. *)
let rec body_exprs e =
  match e.exp_desc with
  | Texp_function { cases; _ } -> List.concat_map (fun c -> body_exprs c.c_rhs) cases
  | _ -> [ e ]

let alloc_sites expr =
  let sites = ref [] in
  let add loc kind = sites := { al_line = line_of loc; al_kind = kind } :: !sites in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_function _ -> add e.exp_loc "closure"
          | Texp_tuple _ -> add e.exp_loc "tuple"
          | Texp_construct (_, _, args) when args <> [] -> add e.exp_loc "construct"
          | Texp_record _ -> add e.exp_loc "record"
          | Texp_array _ -> add e.exp_loc "array"
          | Texp_variant (_, Some _) -> add e.exp_loc "variant"
          | Texp_lazy _ -> add e.exp_loc "lazy"
          | Texp_apply (fn, _) -> (
              (match Types.get_desc e.exp_type with
              | Types.Tarrow _ -> add e.exp_loc "partial-apply"
              | _ -> ());
              match fn.exp_desc with
              | Texp_ident (p, _, _) ->
                  let name = drop_stdlib (norm_path p) in
                  if List.mem name allocating_calls then add e.exp_loc "alloc-call"
                  else if List.mem name float_arith then add e.exp_loc "float-box"
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  List.iter (fun body -> it.expr it body) (body_exprs expr);
  List.sort
    (fun a b ->
      match Int.compare a.al_line b.al_line with
      | 0 -> String.compare a.al_kind b.al_kind
      | c -> c)
    (List.rev !sites)

let hot_fns_of_structure ~hot_set ~modname ~file str =
  match List.assoc_opt modname hot_set with
  | None -> []
  | Some wanted ->
      List.concat_map
        (fun (item : structure_item) ->
          match item.str_desc with
          | Tstr_value (_, vbs) ->
              List.filter_map
                (fun vb ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) when List.mem (Ident.name id) wanted ->
                      Some
                        {
                          hf_name = modname ^ "." ^ Ident.name id;
                          hf_file = file;
                          hf_line = line_of vb.vb_loc;
                          hf_sites = alloc_sites vb.vb_expr;
                        }
                  | _ -> None)
                vbs
          | _ -> [])
        str.str_items

(* --- A4: typed polymorphic-comparison classification --------------------- *)

let compared_idents =
  [ "Stdlib.compare"; "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>";
    "Stdlib.<="; "Stdlib.>=" ]

type safety = Safe | Unknown | Unsafe of string

let join a b =
  match (a, b) with
  | Unsafe r, _ | _, Unsafe r -> Unsafe r
  | Unknown, _ | _, Unknown -> Unknown
  | Safe, Safe -> Safe

let join_all = List.fold_left join Safe

let safe_predefs =
  [
    Predef.path_int; Predef.path_char; Predef.path_string; Predef.path_bytes;
    Predef.path_float; Predef.path_bool; Predef.path_unit; Predef.path_int32;
    Predef.path_int64; Predef.path_nativeint; Predef.path_floatarray;
  ]

let container_predefs = [ Predef.path_list; Predef.path_option; Predef.path_array ]

(* Is polymorphic structural comparison safe at this type?  Expands
   aliases and recurses into tuples, containers, records and variants;
   function types, abstract types, open types, lazy values, objects,
   packages and unresolved variables are unsafe.  Unresolvable
   declarations (a .cmi outside the load path) stay [Unknown] and are
   not reported — the pass prefers silence to false positives. *)
let rec type_safety env visited ty =
  match Types.get_desc ty with
  | Types.Tvar _ | Types.Tunivar _ ->
      Unsafe "the comparison is still polymorphic here (unresolved type variable)"
  | Types.Tarrow _ -> Unsafe "function types compare nondeterministically (or raise)"
  | Types.Ttuple ts -> join_all (List.map (type_safety env visited) ts)
  | Types.Tpoly (t, _) -> type_safety env visited t
  | Types.Tobject _ | Types.Tfield _ | Types.Tnil -> Unsafe "object types"
  | Types.Tpackage _ -> Unsafe "first-class modules"
  | Types.Tconstr (p, args, _) ->
      if List.exists (Path.same p) safe_predefs then Safe
      else if Path.same p Predef.path_lazy_t then
        Unsafe "lazy values compare by forcing (or raise)"
      else if List.exists (Path.same p) container_predefs then
        join_all (List.map (type_safety env visited) args)
      else if List.exists (Path.same p) visited then Safe (* recursive type: fields decide *)
      else (
        match Env.find_type p env with
        | exception Not_found -> Unknown
        | decl -> (
            let visited = p :: visited in
            (* safety of a declaration component at this instance *)
            let sub body =
              match Ctype.apply env decl.Types.type_params body args with
              | t -> type_safety env visited t
              | exception _ -> Unknown
            in
            let fields lds =
              join_all (List.map (fun (ld : Types.label_declaration) -> sub ld.ld_type) lds)
            in
            match decl.Types.type_manifest with
            | Some body -> sub body
            | None -> (
                match decl.Types.type_kind with
                | Types.Type_abstract ->
                    Unsafe
                      (Printf.sprintf
                         "%s is abstract; its representation is not comparable \
                          by contract"
                         (norm_path p))
                | Types.Type_open -> Unsafe "extensible variant types"
                | Types.Type_record (lds, _) -> fields lds
                | Types.Type_variant (cds, _) ->
                    join_all
                      (List.map
                         (fun (cd : Types.constructor_declaration) ->
                           match cd.cd_args with
                           | Types.Cstr_tuple ts -> join_all (List.map sub ts)
                           | Types.Cstr_record lds -> fields lds)
                         cds))))
  | _ -> Unknown

let poly_site_of_ident ~file op expr =
  match Types.get_desc expr.exp_type with
  | Types.Tarrow (_, arg, _, _) -> (
      match Envaux.env_of_only_summary expr.exp_env with
      | exception _ -> None
      | env -> (
          match type_safety env [] arg with
          | Safe | Unknown -> None
          | Unsafe reason ->
              let ty =
                try Format.asprintf "%a" Printtyp.type_expr arg
                with _ -> "<type>"
              in
              Some
                {
                  pc_file = file;
                  pc_line = line_of expr.exp_loc;
                  pc_op = drop_stdlib op;
                  pc_type = ty;
                  pc_reason = reason;
                }))
  | _ -> None

(* --- A2/A3: name extraction --------------------------------------------- *)

let is_name_shaped ~dots s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | '0' .. '9' | '_' -> true
         | '.' when dots -> true
         | _ -> false)
       s

(* Registry functions whose string argument names a metric.  get_*
   readers are excluded: A2 checks the emission surface. *)
let registry_fns =
  [
    "Registry.counter"; "Registry.gauge"; "Registry.histogram";
    "Registry.set_counter"; "Registry.set_gauge"; "Registry.mark_volatile";
  ]

type sink_kind = Metric_sink | Span_sink of bool (* closed at creation *)

let literal_string e =
  match e.exp_desc with
  | Texp_constant (Const_string (s, _, _)) -> Some (s, line_of e.exp_loc)
  | Texp_construct
      (_, { Types.cstr_name = "Some"; _ },
       [ { exp_desc = Texp_constant (Const_string (s, _, _)); exp_loc; _ } ]) ->
      Some (s, line_of exp_loc)
  | _ -> None

let ident_arg e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some id
  | Texp_construct
      (_, { Types.cstr_name = "Some"; _ },
       [ { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ]) ->
      Some id
  | _ -> None

let rec string_list_of_expr e =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "[]"; _ }, []) -> Some []
  | Texp_construct (_, { Types.cstr_name = "::"; _ }, [ hd; tl ]) -> (
      match (literal_string hd, string_list_of_expr tl) with
      | Some s, Some rest -> Some (s :: rest)
      | _ -> None)
  | _ -> None

(* All parameters bound by a definition's leading lambda spine. *)
let rec fun_params e =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.concat_map
        (fun c -> pat_bound_idents c.c_lhs @ fun_params c.c_rhs)
        cases
  | _ -> []

(* A fully-applied call materialises omitted optional arguments as a
   synthesised [None] constructor — that is "not passed", not a
   value. *)
let is_omitted e =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "None"; _ }, []) -> true
  | _ -> false

let labelled label (l, eo) =
  match (l, eo) with
  | (Labelled s | Optional s), Some e
    when String.equal s label && not (is_omitted e) ->
      Some e
  | _ -> None

let find_labelled label args = List.find_map (labelled label) args

(* The per-cmt scanner.  Helper-sink discovery needs a fixpoint: [let
   set name v = Registry.set_gauge (Registry.gauge reg name) v] makes
   [set] a metric sink, [record_hop] calling span-sink [emit_span]
   makes it a span sink one round later.  We iterate collection-only
   passes until the sink set is stable, then record sites once. *)
let scan_structure ~file str =
  let sinks : (Ident.t * sink_kind) list ref = ref [] in
  let string_lists : (Ident.t * (string * int) list) list ref = ref [] in
  let changed = ref true in
  let recording = ref false in
  let metrics = ref [] in
  let spans = ref [] in
  let finishes = ref [] in
  let monitor_refs = ref [] in
  let poly = ref [] in
  let strings = ref [] in
  let frames : (Ident.t * Ident.t list) list ref = ref [] in
  let sink_of id = List.find_map (fun (i, k) -> if Ident.same i id then Some k else None) !sinks in
  let mark_sink id kind =
    if sink_of id = None then begin
      sinks := (id, kind) :: !sinks;
      changed := true
    end
  in
  let owner_of_param id =
    List.find_map
      (fun (owner, params) ->
        if List.exists (Ident.same id) params then Some owner else None)
      !frames
  in
  let add_metric s = if !recording then metrics := s :: !metrics in
  let add_span s = if !recording then spans := s :: !spans in
  (* name flows into a metric position: literal -> site, parameter ->
     the enclosing definition becomes a sink *)
  let metric_name_arg e =
    (match literal_string e with Some s -> add_metric s | None -> ());
    match ident_arg e with
    | Some id -> (
        match owner_of_param id with
        | Some owner -> mark_sink owner Metric_sink
        | None -> ())
    | None -> ()
  in
  let span_name_arg ~closed e =
    (match literal_string e with
    | Some (s, line) -> add_span (s, line, closed)
    | None -> ());
    match ident_arg e with
    | Some id -> (
        match owner_of_param id with
        | Some owner -> mark_sink owner (Span_sink closed)
        | None -> ())
    | None -> ()
  in
  (* Does this lambda body feed [param] into a metric-name position?
     Covers [List.iter (fun k -> Registry.set_counter reg k v) keys]. *)
  let lambda_feeds_metric body params =
    let found = ref false in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.exp_desc with
            | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
                let is_registry =
                  List.exists (path_has_suffix p) registry_fns
                in
                let is_sink =
                  match p with
                  | Path.Pident id -> sink_of id = Some Metric_sink
                  | _ -> false
                in
                if is_registry || is_sink then
                  List.iter
                    (fun (_, eo) ->
                      match eo with
                      | Some e -> (
                          match ident_arg e with
                          | Some id when List.exists (Ident.same id) params ->
                              found := true
                          | _ -> ())
                      | None -> ())
                    args
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    it.expr it body;
    !found
  in
  let handle_apply fn args =
    match fn.exp_desc with
    | Texp_ident (p, _, _) ->
        if List.exists (path_has_suffix p) registry_fns then
          List.iter (fun (_, eo) -> Option.iter metric_name_arg eo) args
        else if path_has_suffix p "Probe.sync_counters" then
          Option.iter metric_name_arg (find_labelled "rest_as" args)
        else if path_has_suffix p "Tracer.span" then begin
          let closed = find_labelled "finish" args <> None in
          Option.iter (span_name_arg ~closed) (find_labelled "name" args)
        end
        else if path_has_suffix p "Span.finish" then begin
          if !recording then finishes := line_of fn.exp_loc :: !finishes
        end
        else if path_has_suffix p "List.iter" then (
          match args with
          | [ (_, Some f); (_, Some l) ] -> (
              let params = fun_params f in
              if params <> [] && lambda_feeds_metric f params then
                let named id =
                  List.find_map
                    (fun (i, items) -> if Ident.same i id then Some items else None)
                    !string_lists
                in
                let items =
                  match (string_list_of_expr l, l.exp_desc) with
                  | Some items, _ -> items
                  | None, Texp_ident (Path.Pident id, _, _) ->
                      Option.value (named id) ~default:[]
                  | None, _ -> []
                in
                List.iter add_metric items)
          | _ -> ())
        else (
          (* call of a locally-defined sink *)
          match p with
          | Path.Pident id -> (
              match sink_of id with
              | Some Metric_sink ->
                  List.iter (fun (_, eo) -> Option.iter metric_name_arg eo) args
              | Some (Span_sink closed) ->
                  List.iter
                    (fun arg ->
                      match arg with
                      | (Labelled "name" | Optional "name"), Some e ->
                          span_name_arg ~closed e
                      | _ -> ())
                    args
              | None -> ())
          | _ -> ())
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match (vb.vb_pat.pat_desc, string_list_of_expr vb.vb_expr) with
          | Tpat_var (id, _), Some items ->
              if
                not (List.exists (fun (i, _) -> Ident.same i id) !string_lists)
              then string_lists := (id, items) :: !string_lists
          | _ -> ());
          match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) ->
              let params = fun_params vb.vb_expr in
              if params <> [] then begin
                frames := (id, params) :: !frames;
                Tast_iterator.default_iterator.value_binding self vb;
                frames := List.tl !frames
              end
              else Tast_iterator.default_iterator.value_binding self vb
          | _ -> Tast_iterator.default_iterator.value_binding self vb);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_apply (fn, args) -> handle_apply fn args
          | Texp_ident (p, _, _) when !recording ->
              let name = norm_path p in
              if List.mem name compared_idents then
                Option.iter
                  (fun s -> poly := s :: !poly)
                  (poly_site_of_ident ~file name e)
          | Texp_constant (Const_string (s, _, _))
            when !recording && String.length s <= 60 && is_name_shaped ~dots:true s
            ->
              strings := s :: !strings
          | Texp_constant (Const_string (s, _, _))
            when !recording && String.contains s '=' && String.length s < 200
            -> (
              (* a literal that parses as monitor-DSL rules references
                 metrics: the standard rule set, CLI defaults, docs in
                 --help strings *)
              match Telemetry.Monitor.parse s with
              | rules ->
                  List.iter
                    (fun (r : Telemetry.Monitor.rule) ->
                      monitor_refs :=
                        (r.rule_name, r.metric, line_of e.exp_loc)
                        :: !monitor_refs)
                    rules
              | exception _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  let rounds = ref 0 in
  while !changed && !rounds < 5 do
    changed := false;
    incr rounds;
    it.structure it str
  done;
  recording := true;
  it.structure it str;
  ( List.rev !metrics,
    List.rev !spans,
    List.rev !finishes,
    List.rev !monitor_refs,
    List.rev !poly,
    List.sort_uniq String.compare !strings )

(* --- cmt loading -------------------------------------------------------- *)

(* One compilation unit's typed tree, keyed by its source file. *)
type unit_tree = { u_file : string; u_module : string; u_str : structure }

let rec collect_cmts path acc =
  if not (Sys.file_exists path) then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left (fun acc e -> collect_cmts (Filename.concat path e) acc) acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

(* The load path lets Envaux rebuild environments: every directory
   that holds a .cmi (the repo's .objs dirs) plus the stdlib. *)
let init_load_path cmt_paths =
  let dirs =
    List.sort_uniq String.compare (List.map Filename.dirname cmt_paths)
  in
  Load_path.init ~auto_include:Load_path.no_auto_include
    (dirs @ [ Config.standard_library ]);
  Envaux.reset_cache ()

(* Read the implementation trees, one per source file.  Dune may leave
   a byte and a native .cmt of one unit side by side, and which exist
   depends on what was built; the first path in the given order wins,
   so the unit set does not depend on build history. *)
let load_units cmt_paths =
  init_load_path cmt_paths;
  List.fold_left
    (fun acc path ->
      let cmt = Cmt_format.read_cmt path in
      let file = Option.value cmt.Cmt_format.cmt_sourcefile ~default:path in
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str
        when not (List.exists (fun u -> String.equal u.u_file file) acc) ->
          let u_module = norm_name cmt.Cmt_format.cmt_modname in
          { u_file = file; u_module; u_str = str } :: acc
      | _ -> acc)
    [] cmt_paths
  |> List.rev

(* R1 across units: the Hashtbl instances each unit exports, by
   global name — the unit itself when its top level [include]s one
   ([Dsim.Id_table]), and ["Unit.M"] for a top-level [module M =
   Hashtbl.Make (...)].  A fold over another unit's instance is then a
   Hashtbl fold like any other.  Only instances among the analysed
   units are known. *)
let exported_tables units =
  List.concat_map
    (fun u ->
      let aliases = module_aliases u.u_str in
      let is_hashtbl me =
        match module_target me with
        | Some p -> global_name aliases p = Some "Hashtbl"
        | None -> false
      in
      List.filter_map
        (fun item ->
          match item.str_desc with
          | Tstr_include { incl_mod; _ } when is_hashtbl incl_mod -> Some u.u_module
          | Tstr_module { mb_id = Some id; mb_expr; _ } when is_hashtbl mb_expr ->
              Some (u.u_module ^ "." ^ Ident.name id)
          | _ -> None)
        u.u_str.str_items)
    units

let scan_unit ~hot_set ~tables u =
  let file = u.u_file in
  let metrics, spans, finishes, monitor_refs, poly, strings =
    scan_structure ~file u.u_str
  in
  {
    f_file = file;
    f_module = u.u_module;
    f_hot = hot_fns_of_structure ~hot_set ~modname:u.u_module ~file u.u_str;
    f_metrics = metrics;
    f_spans = spans;
    f_finishes = finishes;
    f_monitor_refs = monitor_refs;
    f_poly = poly;
    f_strings = strings;
    f_lint = determinism_findings ~tables ~file u.u_str;
  }

(* --- docs parsing (A2/A3 reference lists) -------------------------------- *)

let strip_labels s =
  match String.index_opt s '{' with Some i -> String.sub s 0 i | None -> s

(* Backticked names in a markdown file: the first cell of table rows
   ("| `name` | ...") and bold catalogue entries ("**`name{...}`**").
   Returns (name, first line) pairs, label selectors stripped. *)
let doc_names ~dots content =
  let out = ref [] in
  let add name line =
    let name = strip_labels name in
    if is_name_shaped ~dots name && not (List.mem_assoc name !out) then
      out := (name, line) :: !out
  in
  let lines = String.split_on_char '\n' content in
  List.iteri
    (fun i line ->
      let lnum = i + 1 in
      let ltrim = String.trim line in
      (if String.length ltrim > 1 && ltrim.[0] = '|' then
         (* first cell, backticked *)
         let cell =
           match String.index_from_opt ltrim 1 '|' with
           | Some j -> String.sub ltrim 1 (j - 1)
           | None -> String.sub ltrim 1 (String.length ltrim - 1)
         in
         let cell = String.trim cell in
         if String.length cell > 2 && cell.[0] = '`' then
           match String.index_from_opt cell 1 '`' with
           | Some j -> add (String.sub cell 1 (j - 1)) lnum
           | None -> ());
       (* bold entries anywhere in the line *)
       let rec bold_from i =
         if i + 3 <= String.length line then
           if not (String.equal (String.sub line i 3) "**`") then bold_from (i + 1)
           else
             match String.index_from_opt line (i + 3) '`' with
             | Some e ->
                 add (String.sub line (i + 3) (e - i - 3)) lnum;
                 bold_from (e + 1)
             | None -> ()
       in
       bold_from 0)
    lines;
  List.rev !out

let doc_metric_names content = doc_names ~dots:false content
let doc_span_names content = doc_names ~dots:true content

(* --- baselines (A1 ratchet) --------------------------------------------- *)

let baseline_schema = "mailsys.analysis-baseline/1"

let baseline_of_json json =
  match Telemetry.Json.member "functions" json with
  | Some (Telemetry.Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match v with Telemetry.Json.Int n -> Some (k, n) | _ -> None)
        kvs
  | _ -> []

let baseline_to_json entries =
  Telemetry.Json.Obj
    [
      ("schema", Telemetry.Json.String baseline_schema);
      ( "functions",
        Telemetry.Json.Obj
          (List.map
             (fun (k, n) -> (k, Telemetry.Json.Int n))
             (List.sort (fun (a, _) (b, _) -> String.compare a b) entries)) );
    ]

(* --- findings ----------------------------------------------------------- *)

let v file line rule message = { file; line; rule; message }

type a1_result = {
  a1_findings : violation list;
  a1_improvements : (string * int * int) list;  (* fn, count, baseline *)
}

let a1_ratchet ~baseline_file ~baseline ~hot_set facts_list =
  let reports = List.concat_map (fun f -> f.f_hot) facts_list in
  let findings = ref [] in
  let improvements = ref [] in
  List.iter
    (fun hf ->
      let n = List.length hf.hf_sites in
      match List.assoc_opt hf.hf_name baseline with
      | None ->
          findings :=
            v hf.hf_file hf.hf_line "hot-path-alloc"
              (Printf.sprintf
                 "hot function %s has no baseline entry (%d allocation \
                  site(s)); record it with `make analyze-baseline`"
                 hf.hf_name n)
            :: !findings
      | Some m when n > m ->
          findings :=
            v hf.hf_file hf.hf_line "hot-path-alloc"
              (Printf.sprintf
                 "hot function %s has %d allocation site(s), baseline is %d — \
                  remove the new allocation or consciously re-baseline with \
                  `make analyze-baseline`"
                 hf.hf_name n m)
            :: !findings
      | Some m when n < m -> improvements := (hf.hf_name, n, m) :: !improvements
      | Some _ -> ())
    reports;
  (* stale baseline entries and hot declarations the tree no longer has *)
  let reported = List.map (fun hf -> hf.hf_name) reports in
  List.iter
    (fun (name, _) ->
      if not (List.mem name reported) then
        findings :=
          v baseline_file 1 "hot-path-alloc"
            (Printf.sprintf
               "baseline entry %s matches no function in the scanned tree \
                (renamed or removed?); refresh with `make analyze-baseline`"
               name)
          :: !findings)
    baseline;
  List.iter
    (fun (m, fns) ->
      match List.find_opt (fun f -> String.equal f.f_module m) facts_list with
      | None -> ()
      | Some { f_file = file; _ } ->
          List.iter
            (fun fn ->
              let full = m ^ "." ^ fn in
              if not (List.mem full reported) then
                findings :=
                  v file 1 "hot-path-alloc"
                    (Printf.sprintf
                       "declared hot function %s not found in %s — update the \
                        hot set in bin/analyze/analyze_core.ml"
                       full file)
                  :: !findings)
            fns)
    hot_set;
  { a1_findings = List.rev !findings; a1_improvements = List.rev !improvements }

(* Doc-table drift for one family of names: an emitted name missing
   from the table is reported once, at its first emission site;
   [stale] decides, per documented name, whether its table row is
   reported too. *)
let doc_drift ~rule ~doc_file ~documented ~undocumented ~stale emitted =
  let names = List.sort_uniq String.compare (List.map (fun (n, _, _) -> n) emitted) in
  List.filter_map
    (fun name ->
      if List.mem_assoc name documented then None
      else
        let _, file, line = List.find (fun (n, _, _) -> String.equal n name) emitted in
        Some (v file line rule (undocumented name)))
    names
  @ List.filter_map
      (fun (name, line) ->
        Option.map (fun message -> v doc_file line rule message) (stale name))
      documented

let a2_findings ~doc_file ~documented facts_list =
  let emitted =
    List.concat_map
      (fun f -> List.map (fun (n, l) -> (n, f.f_file, l)) f.f_metrics)
      facts_list
  in
  let emitted_names = List.map (fun (n, _, _) -> n) emitted in
  doc_drift ~rule:"metric-name" ~doc_file ~documented emitted
    ~undocumented:(fun name ->
      Printf.sprintf
        "metric %S is emitted but undocumented — add it to the %s catalogue"
        name doc_file)
    ~stale:(fun name ->
      if List.mem name emitted_names then None
      else
        Some
          (Printf.sprintf
             "documented metric %S has no emitter under the scanned tree — \
              stale catalogue entry?"
             name))
  (* monitor rules must reference emitted metrics *)
  @ List.concat_map
      (fun f ->
        List.filter_map
          (fun (rule, metric, line) ->
            if List.mem metric emitted_names then None
            else
              Some
                (v f.f_file line "metric-name"
                   (Printf.sprintf
                      "monitor rule %S references metric %S, which nothing \
                       emits — dangling rule"
                      rule metric)))
          f.f_monitor_refs)
      facts_list

let a3_findings ~doc_file ~documented facts_list =
  let emitted =
    List.concat_map
      (fun f -> List.map (fun (n, l, _) -> (n, f.f_file, l)) f.f_spans)
      facts_list
  in
  let emitted_names = List.map (fun (n, _, _) -> n) emitted in
  (* A documented stage with no creation site is stale only if its
     name has also vanished from the code: spans emitted through data
     structures (hop names parked in a table, closed at the receiver)
     leave the literal behind as evidence. *)
  let literals = List.concat_map (fun f -> f.f_strings) facts_list in
  doc_drift ~rule:"span-drift" ~doc_file ~documented emitted
    ~undocumented:(fun name ->
      Printf.sprintf
        "span %S is created here but missing from the %s stage tables — \
         critical-path stages and docs have drifted"
        name doc_file)
    ~stale:(fun name ->
      if List.mem name emitted_names || List.mem name literals then None
      else
        Some
          (Printf.sprintf
             "documented span stage %S is never created by the scanned tree \
              — stale stage table entry (the name appears nowhere in the \
              code)?"
             name))
  (* pairing: a unit opening spans must also close them *)
  @ List.concat_map
      (fun f ->
        if f.f_finishes <> [] then []
        else
          List.filter_map
            (fun (name, line, closed) ->
              if closed then None
              else
                Some
                  (v f.f_file line "span-drift"
                     (Printf.sprintf
                        "span %S is opened without ~finish but %s never calls \
                         Span.finish — the span can leak open"
                        name f.f_file)))
            f.f_spans)
      facts_list

let a4_findings facts_list =
  List.concat_map
    (fun f ->
      List.map
        (fun p ->
          v p.pc_file p.pc_line "poly-compare"
            (Printf.sprintf
               "polymorphic %s at type %s is unsafe: %s — use a typed \
                comparator"
               p.pc_op p.pc_type p.pc_reason))
        f.f_poly)
    facts_list

(* [read_source] maps a file to its text (None = unreadable: no
   allows, so its findings are kept); markdown files carry allows in
   HTML comments. *)
let allows_of ~read_source file =
  match read_source file with Some src -> scan_allows src | None -> []

(* R5: a lib/ .ml among [sources] with no .mli beside it.  An allow
   anywhere in the file suppresses it (see [covers]). *)
let missing_mli_findings sources =
  List.filter_map
    (fun path ->
      if
        Filename.check_suffix path ".ml"
        && in_lib path
        && not (List.mem (path ^ "i") sources)
      then
        Some
          (v path 1 "missing-mli"
             "library module has no .mli; every lib/ module must state its \
              interface")
      else None)
    sources

(* --- suppression filtering ---------------------------------------------- *)

let filter_suppressed ~read_source violations =
  List.filter
    (fun (viol : violation) ->
      not
        (suppressed (allows_of ~read_source viol.file) ~rule:viol.rule
           ~line:viol.line))
    violations

let read_source_from_disk file =
  if Sys.file_exists file && not (Sys.is_directory file) then
    Some (In_channel.with_open_bin file In_channel.input_all)
  else None

(* --- ANALYSIS.json ------------------------------------------------------ *)

let analysis_schema = "mailsys.analysis/1"

let report_to_json ~baseline ~findings ~facts_list =
  let open Telemetry.Json in
  let hot =
    List.concat_map (fun f -> f.f_hot) facts_list
    |> List.sort (fun a b -> String.compare a.hf_name b.hf_name)
    |> List.map (fun hf ->
           Obj
             [
               ("function", String hf.hf_name);
               ("file", String hf.hf_file);
               ("line", Int hf.hf_line);
               ("allocs", Int (List.length hf.hf_sites));
               ( "baseline",
                 match List.assoc_opt hf.hf_name baseline with
                 | Some n -> Int n
                 | None -> Null );
               ( "sites",
                 List
                   (List.map
                      (fun s ->
                        Obj [ ("line", Int s.al_line); ("kind", String s.al_kind) ])
                      hf.hf_sites) );
             ])
  in
  let names_of select =
    List.concat_map select facts_list |> List.sort_uniq String.compare
    |> List.map (fun n -> String n)
  in
  let metrics_emitted = names_of (fun f -> List.map fst f.f_metrics) in
  let spans_emitted = names_of (fun f -> List.map (fun (n, _, _) -> n) f.f_spans) in
  let monitor_refs =
    List.concat_map
      (fun f ->
        List.map
          (fun (rule, metric, _) ->
            Obj [ ("rule", String rule); ("metric", String metric) ])
          f.f_monitor_refs)
      facts_list
  in
  let poly =
    List.concat_map
      (fun f ->
        List.map
          (fun p ->
            Obj
              [
                ("file", String p.pc_file);
                ("line", Int p.pc_line);
                ("op", String p.pc_op);
                ("type", String p.pc_type);
                ("reason", String p.pc_reason);
              ])
          f.f_poly)
      facts_list
  in
  Obj
    [
      ("schema", String analysis_schema);
      ("hot", List hot);
      ( "metrics",
        Obj
          [ ("emitted", List metrics_emitted); ("monitor_refs", List monitor_refs) ] );
      ("spans", Obj [ ("emitted", List spans_emitted) ]);
      ("poly_compare", List poly);
      ( "findings",
        List
          (List.map
             (fun (viol : violation) ->
               Obj
                 [
                   ("file", String viol.file);
                   ("line", Int viol.line);
                   ("rule", String viol.rule);
                   ("message", String viol.message);
                 ])
             findings) );
    ]

(* --- whole-tree driver --------------------------------------------------- *)

type analysis = {
  an_facts : facts list;
  an_findings : violation list;  (* suppression-filtered, sorted *)
  an_improvements : (string * int * int) list;
  an_baseline : (string * int) list;
}

let baseline_file = "analysis_baseline.json"
let metrics_doc = "docs/METRICS.md"
let tracing_doc = "docs/TRACING.md"

(* [sources] are the .ml/.mli files the gate reads besides the typed
   trees: R5 and the bad-suppression check run over them. *)
let analyze_tree ?(hot_set = default_hot_set) ?(read_source = read_source_from_disk)
    ~sources units =
  let tables = exported_tables units in
  let facts_list = List.map (scan_unit ~hot_set ~tables) units in
  let baseline =
    match read_source baseline_file with
    | Some src -> (
        match Telemetry.Json.of_string src with
        | json -> baseline_of_json json
        | exception _ -> [])
    | None -> []
  in
  let documented doc names =
    match read_source doc with Some src -> names src | None -> []
  in
  let a1 = a1_ratchet ~baseline_file ~baseline ~hot_set facts_list in
  let findings =
    a1.a1_findings
    @ a2_findings ~doc_file:metrics_doc
        ~documented:(documented metrics_doc doc_metric_names) facts_list
    @ a3_findings ~doc_file:tracing_doc
        ~documented:(documented tracing_doc doc_span_names) facts_list
    @ a4_findings facts_list
    @ List.concat_map (fun f -> f.f_lint) facts_list
    @ missing_mli_findings sources
  in
  let allow_findings =
    List.concat_map
      (fun file -> allow_violations file (allows_of ~read_source file) findings)
      (sources @ [ metrics_doc; tracing_doc ])
  in
  let findings =
    filter_suppressed ~read_source findings @ allow_findings
    |> List.sort compare_violation
  in
  {
    an_facts = facts_list;
    an_findings = findings;
    an_improvements = a1.a1_improvements;
    an_baseline = baseline;
  }

let current_counts facts_list =
  List.concat_map (fun f -> f.f_hot) facts_list
  |> List.map (fun hf -> (hf.hf_name, List.length hf.hf_sites))
