(* Tests for hierarchical names and syntax patterns. *)

let name = Alcotest.testable Naming.Name.pp Naming.Name.equal

let test_make_and_accessors () =
  let n = Naming.Name.make ~region:"east" ~host:"vax1" ~user:"alice" in
  Alcotest.(check string) "region" "east" (Naming.Name.region n);
  Alcotest.(check string) "host" "vax1" (Naming.Name.host n);
  Alcotest.(check string) "user" "alice" (Naming.Name.user n);
  Alcotest.(check string) "to_string" "east.vax1.alice" (Naming.Name.to_string n)

let test_parse_ok () =
  match Naming.Name.of_string "west.pdp10.bob" with
  | Ok n ->
      Alcotest.check name "parsed"
        (Naming.Name.make ~region:"west" ~host:"pdp10" ~user:"bob")
        n
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  let bad = [ ""; "a.b"; "a.b.c.d"; "a..c"; "a.b!c.d"; ".b.c"; "a b.c.d" ] in
  List.iter
    (fun s ->
      match Naming.Name.of_string s with
      | Ok _ -> Alcotest.failf "accepted bad name %S" s
      | Error _ -> ())
    bad

let test_make_invalid () =
  try
    ignore (Naming.Name.make ~region:"" ~host:"h" ~user:"u");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_valid_token () =
  Alcotest.(check bool) "alnum" true (Naming.Name.valid_token "abc-12_Z");
  Alcotest.(check bool) "empty" false (Naming.Name.valid_token "");
  Alcotest.(check bool) "dot" false (Naming.Name.valid_token "a.b");
  Alcotest.(check bool) "space" false (Naming.Name.valid_token "a b")

let test_migration_helpers () =
  let n = Naming.Name.make ~region:"east" ~host:"vax1" ~user:"alice" in
  let moved = Naming.Name.with_host n "vax9" in
  Alcotest.(check string) "host changed" "vax9" (Naming.Name.host moved);
  Alcotest.(check string) "region kept" "east" (Naming.Name.region moved);
  let far = Naming.Name.with_region n ~region:"west" ~host:"sun3" in
  Alcotest.(check string) "region changed" "west" (Naming.Name.region far);
  Alcotest.(check string) "user stable" "alice" (Naming.Name.user far)

let test_compare_total_order () =
  let a = Naming.Name.make ~region:"a" ~host:"h" ~user:"u" in
  let b = Naming.Name.make ~region:"b" ~host:"a" ~user:"a" in
  let c = Naming.Name.make ~region:"a" ~host:"h" ~user:"v" in
  Alcotest.(check bool) "region dominates" true (Naming.Name.compare a b < 0);
  Alcotest.(check bool) "user breaks ties" true (Naming.Name.compare a c < 0);
  Alcotest.(check int) "reflexive" 0 (Naming.Name.compare a a)

let test_patterns () =
  let n = Naming.Name.make ~region:"east" ~host:"vax1" ~user:"alice" in
  let check_match p expected =
    let pat = Naming.Name.Pattern.of_string_exn p in
    Alcotest.(check bool) p expected (Naming.Name.Pattern.matches pat n)
  in
  check_match "east.vax1.alice" true;
  check_match "east.*.*" true;
  check_match "*.*.alice" true;
  check_match "*.*.*" true;
  check_match "west.*.*" false;
  check_match "east.vax2.*" false;
  Alcotest.(check string) "roundtrip" "east.*.alice"
    (Naming.Name.Pattern.to_string (Naming.Name.Pattern.of_string_exn "east.*.alice"));
  match Naming.Name.Pattern.of_string "only.two" with
  | Ok _ -> Alcotest.fail "accepted malformed pattern"
  | Error _ -> ()

let token_gen =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 8)
         (oneof [ char_range 'a' 'z'; char_range '0' '9'; return '-'; return '_' ])))

let name_gen =
  QCheck.Gen.(
    map
      (fun (r, h, u) -> Naming.Name.make ~region:r ~host:h ~user:u)
      (triple token_gen token_gen token_gen))

let arbitrary_name = QCheck.make ~print:Naming.Name.to_string name_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string n) = n" ~count:500 arbitrary_name
    (fun n -> Naming.Name.of_string_exn (Naming.Name.to_string n) = n)

let prop_hash_consistent_with_equal =
  QCheck.Test.make ~name:"equal names hash identically" ~count:200 arbitrary_name
    (fun n ->
      let copy = Naming.Name.of_string_exn (Naming.Name.to_string n) in
      Naming.Name.hash n = Naming.Name.hash copy)

(* Interning round trip: an interned id recovers a Name.t whose string
   form is byte-identical to the original, and re-interning the
   recovered name yields the same id (idempotence). *)
let prop_intern_roundtrip =
  QCheck.Test.make ~name:"intern id -> name -> string roundtrip" ~count:500
    (QCheck.make
       ~print:(fun ns -> String.concat ", " (List.map Naming.Name.to_string ns))
       QCheck.Gen.(list_size (int_range 1 40) name_gen))
    (fun names ->
      let intern = Naming.Intern.create () in
      let ids = List.map (Naming.Intern.intern intern) names in
      List.for_all2
        (fun n id ->
          let back = Naming.Intern.name intern id in
          String.equal (Naming.Name.to_string back) (Naming.Name.to_string n)
          && Naming.Intern.intern intern back = id
          && Naming.Intern.find_opt intern n = Some id)
        names ids)

let prop_intern_dense_ids =
  QCheck.Test.make ~name:"intern ids are dense in first-seen order" ~count:200
    (QCheck.make
       ~print:(fun ns -> String.concat ", " (List.map Naming.Name.to_string ns))
       QCheck.Gen.(list_size (int_range 1 40) name_gen))
    (fun names ->
      let intern = Naming.Intern.create () in
      ignore (List.map (Naming.Intern.intern intern) names);
      let distinct =
        List.sort_uniq Naming.Name.compare names |> List.length
      in
      Naming.Intern.count intern = distinct
      && List.for_all
           (fun n ->
             match Naming.Intern.find_opt intern n with
             | Some id -> id >= 0 && id < distinct
             | None -> false)
           names)

(* Design 2's hash sub-groups ({!Naming.Name.hash_group}). *)

let n r h u = Naming.Name.make ~region:r ~host:h ~user:u

let test_hash_host_independent () =
  (* Design 2's key property: the hash group ignores the host. *)
  let g = Naming.Name.hash_group ~groups:8 in
  Alcotest.(check int) "host does not matter" (g (n "east" "h1" "alice"))
    (g (n "east" "h2" "alice"));
  (* but region and user do: over 100 users, some group differs *)
  let differs f =
    List.exists (fun i -> f (Printf.sprintf "u%d" i)) (List.init 100 Fun.id)
  in
  Alcotest.(check bool) "region matters" true
    (differs (fun u -> g (n "east" "h1" u) <> g (n "west" "h1" u)));
  Alcotest.(check bool) "user matters" true
    (differs (fun u -> g (n "east" "h1" u) <> g (n "east" "h1" "alice")))

let test_hash_group_range () =
  for groups = 1 to 16 do
    for i = 0 to 100 do
      let g = Naming.Name.hash_group ~groups (n "r" "h" (Printf.sprintf "u%d" i)) in
      if g < 0 || g >= groups then Alcotest.failf "group %d out of range" g
    done
  done

let test_hash_spread () =
  (* 400 users over 8 groups: no group should be empty or hold more
     than half of all users. *)
  let counts = Array.make 8 0 in
  for i = 0 to 399 do
    let g = Naming.Name.hash_group ~groups:8 (n "r" "h" (Printf.sprintf "u%d" i)) in
    counts.(g) <- counts.(g) + 1
  done;
  Array.iteri
    (fun i c ->
      if c = 0 then Alcotest.failf "group %d empty" i;
      if c > 200 then Alcotest.failf "group %d overloaded: %d" i c)
    counts

let prop_hash_deterministic =
  QCheck.Test.make ~name:"hash_group is deterministic" ~count:200
    QCheck.(pair (int_range 1 32) small_string)
    (fun (groups, s) ->
      let user = if Naming.Name.valid_token s then s else "fallback" in
      let nm = n "r" "h" user in
      Naming.Name.hash_group ~groups nm = Naming.Name.hash_group ~groups nm)

let suite =
  [
    ( "name",
      [
        Alcotest.test_case "make and accessors" `Quick test_make_and_accessors;
        Alcotest.test_case "parse ok" `Quick test_parse_ok;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "make invalid" `Quick test_make_invalid;
        Alcotest.test_case "valid_token" `Quick test_valid_token;
        Alcotest.test_case "migration helpers" `Quick test_migration_helpers;
        Alcotest.test_case "compare total order" `Quick test_compare_total_order;
        Alcotest.test_case "syntax patterns" `Quick test_patterns;
        QCheck_alcotest.to_alcotest prop_roundtrip;
        QCheck_alcotest.to_alcotest prop_hash_consistent_with_equal;
        QCheck_alcotest.to_alcotest prop_intern_roundtrip;
        QCheck_alcotest.to_alcotest prop_intern_dense_ids;
        Alcotest.test_case "hash group ignores host" `Quick test_hash_host_independent;
        Alcotest.test_case "hash group in range" `Quick test_hash_group_range;
        Alcotest.test_case "hash spreads load" `Quick test_hash_spread;
        QCheck_alcotest.to_alcotest prop_hash_deterministic;
      ] );
  ]
