(* Tests for Dsim.Id_table, the int-keyed hash table behind the mail
   layer's per-message, per-user and per-node state. *)

module T = Dsim.Id_table

let test_id_zero () =
  let t = T.create 4 in
  Alcotest.(check bool) "empty table has no 0" false (T.mem t 0);
  T.replace t 0 "zero";
  Alcotest.(check (option string)) "0 found" (Some "zero") (T.find_opt t 0);
  T.replace t 0 "again";
  Alcotest.(check int) "replace keeps one binding" 1 (T.length t);
  Alcotest.(check (option string)) "replaced" (Some "again") (T.find_opt t 0);
  T.remove t 0;
  Alcotest.(check bool) "removed" false (T.mem t 0);
  Alcotest.(check int) "empty again" 0 (T.length t)

(* Keys packed as [id * n + node], the pipeline's (node, message)
   dedup keys, at ids far past any run's message count — plus the
   largest int, whose hash is itself. *)
let test_packed_keys () =
  let n = 2750 in
  let t = T.create 16 in
  let key id node = (id * n) + node in
  let ids = [ 0; 1; 999_983; 1_000_000; 123_456_789; (max_int / n) - 1 ] in
  let nodes = [ 0; 1; 17; n - 1 ] in
  List.iter
    (fun id -> List.iter (fun node -> T.replace t (key id node) (id, node)) nodes)
    ids;
  T.replace t max_int (-1, -1);
  Alcotest.(check int) "all distinct"
    ((List.length ids * List.length nodes) + 1)
    (T.length t);
  List.iter
    (fun id ->
      List.iter
        (fun node ->
          Alcotest.(check (option (pair int int)))
            (Printf.sprintf "key (%d, %d)" id node)
            (Some (id, node))
            (T.find_opt t (key id node));
          Alcotest.(check bool)
            (Printf.sprintf "decodes (%d, %d)" id node)
            true
            (key id node / n = id && key id node mod n = node))
        nodes)
    ids;
  Alcotest.(check (option (pair int int))) "max_int" (Some (-1, -1)) (T.find_opt t max_int);
  Alcotest.(check bool) "absent neighbour" false (T.mem t (key 1_000_000 2))

(* Removals interleaved with inserts while the table grows from one
   bucket: every resize must carry the survivors and only them. *)
let test_remove_during_growth () =
  let t = T.create 1 in
  let last = 4999 in
  for k = 0 to last do
    T.replace t k (k * 3);
    if k mod 2 = 1 then T.remove t (k - 1)
  done;
  Alcotest.(check int) "odd keys survive" ((last + 1) / 2) (T.length t);
  for k = 0 to last do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d" k)
      (if k mod 2 = 1 then Some (k * 3) else None)
      (T.find_opt t k)
  done

let test_fold_totals () =
  let t = T.create 8 in
  for k = 1 to 1000 do
    T.replace t (k * 7919) k
  done;
  let count, key_sum, value_sum =
    T.fold (fun k v (c, ks, vs) -> (c + 1, ks + k, vs + v)) t (0, 0, 0)
  in
  Alcotest.(check int) "fold visits every binding" (T.length t) count;
  Alcotest.(check int) "value total" (1000 * 1001 / 2) value_sum;
  Alcotest.(check int) "key total" (7919 * 1000 * 1001 / 2) key_sum;
  let iter_sum = ref 0 in
  T.iter (fun _ v -> iter_sum := !iter_sum + v) t;
  Alcotest.(check int) "iter agrees" value_sum !iter_sum

let suite =
  [
    ( "id_table",
      [
        Alcotest.test_case "id 0" `Quick test_id_zero;
        Alcotest.test_case "large packed keys" `Quick test_packed_keys;
        Alcotest.test_case "remove during growth" `Quick test_remove_during_growth;
        Alcotest.test_case "fold totals" `Quick test_fold_totals;
      ] );
  ]
