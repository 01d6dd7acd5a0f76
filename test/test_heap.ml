(* Unit and property tests for Dsim.Heap. *)

let test_empty () =
  let h = Dsim.Heap.create () in
  Alcotest.(check int) "length" 0 (Dsim.Heap.length h);
  Alcotest.(check bool) "is_empty" true (Dsim.Heap.is_empty h);
  Alcotest.(check bool) "peek" true (Dsim.Heap.peek h = None);
  Alcotest.(check bool) "pop" true (Dsim.Heap.pop h = None)

let test_pop_exn_empty () =
  let h = Dsim.Heap.create () in
  Alcotest.check_raises "pop_exn" Not_found (fun () -> ignore (Dsim.Heap.pop_exn h))

let test_nan_rejected () =
  let h = Dsim.Heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Heap.push: NaN priority") (fun () ->
      Dsim.Heap.push h nan 0)

let test_ordering () =
  let h = Dsim.Heap.create () in
  List.iter (fun (p, v) -> Dsim.Heap.push h p v) [ (3., "c"); (1., "a"); (2., "b") ];
  let pop () = snd (Dsim.Heap.pop_exn h) in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ())

let test_fifo_ties () =
  let h = Dsim.Heap.create () in
  List.iteri (fun i v -> Dsim.Heap.push h (if i = 1 then 0. else 1.) v)
    [ "x1"; "y"; "x2" ];
  (* y has priority 0; x1 and x2 tie at 1 and must pop in insertion order *)
  Alcotest.(check string) "min" "y" (snd (Dsim.Heap.pop_exn h));
  Alcotest.(check string) "tie 1" "x1" (snd (Dsim.Heap.pop_exn h));
  Alcotest.(check string) "tie 2" "x2" (snd (Dsim.Heap.pop_exn h))

let test_fifo_many_ties () =
  let h = Dsim.Heap.create () in
  for i = 0 to 99 do
    Dsim.Heap.push h 5. i
  done;
  for i = 0 to 99 do
    Alcotest.(check int) (Printf.sprintf "tie %d" i) i (snd (Dsim.Heap.pop_exn h))
  done

let test_capacity_hint () =
  (* Pushing far past the hint must behave exactly like the default. *)
  let h = Dsim.Heap.create ~capacity:4 () in
  for i = 0 to 99 do
    Dsim.Heap.push h (float_of_int (99 - i)) i
  done;
  Alcotest.(check int) "length" 100 (Dsim.Heap.length h);
  for expected = 99 downto 0 do
    Alcotest.(check int)
      (Printf.sprintf "pop %d" expected)
      expected
      (snd (Dsim.Heap.pop_exn h))
  done;
  (* Clearing drops the backing array; the heap stays usable. *)
  Dsim.Heap.push h 1. 7;
  Alcotest.(check int) "usable after drain" 7 (snd (Dsim.Heap.pop_exn h));
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Heap.create: capacity must be positive") (fun () ->
      ignore (Dsim.Heap.create ~capacity:0 () : int Dsim.Heap.t))

let prop_pop_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order" ~count:200
    QCheck.(list (pair (float_range 0. 1000.) small_int))
    (fun items ->
      let h = Dsim.Heap.create () in
      List.iter (fun (p, v) -> Dsim.Heap.push h p v) items;
      let rec drain acc =
        match Dsim.Heap.pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let prios = drain [] in
      let rec sorted = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> a <= b && sorted rest
      in
      List.length prios = List.length items && sorted prios)

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap drain equals stable sort" ~count:200
    QCheck.(list (pair (int_range 0 20) small_int))
    (fun items ->
      let h = Dsim.Heap.create () in
      List.iter (fun (p, v) -> Dsim.Heap.push h (float_of_int p) v) items;
      let rec drain acc =
        match Dsim.Heap.pop h with
        | None -> List.rev acc
        | Some (p, v) -> drain ((p, v) :: acc)
      in
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> Float.compare a b)
          (List.map (fun (p, v) -> (float_of_int p, v)) items)
      in
      drain [] = expected)

(* The arena against a sorted reference: random pushes (small integer
   priorities, so ties are common), drops and [take_seq] reservations
   interleaved.  Every drop must remove the least (prio, seq) entry and
   surface its tag; reserved sequence numbers never enter the arena but
   still order later pushes after them. *)
type arena_op = A_push of int * int | A_take | A_drop

let prop_arena_matches_reference =
  let gen =
    QCheck.Gen.(
      list
        (frequency
           [
             (5, map2 (fun p tag -> A_push (p, tag)) (int_range 0 15) small_nat);
             (1, return A_take);
             (3, return A_drop);
           ]))
  in
  let print ops =
    String.concat " "
      (List.map
         (function
           | A_push (p, tag) -> Printf.sprintf "push(%d,%d)" p tag
           | A_take -> "take"
           | A_drop -> "drop")
         ops)
  in
  QCheck.Test.make ~name:"arena pops in (prio, seq) order with tags" ~count:300
    (QCheck.make ~print gen)
    (fun ops ->
      let h = Dsim.Heap.Arena.create ~capacity:1 () in
      let next = ref 0 and model = ref [] in
      let before (p1, s1, _) (p2, s2, _) = p1 < p2 || (p1 = p2 && s1 < s2) in
      let rec insert x = function
        | [] -> [ x ]
        | y :: tl as l -> if before x y then x :: l else y :: insert x tl
      in
      List.for_all
        (fun op ->
          (match op with
          | A_push (p, tag) ->
              let seq = Dsim.Heap.Arena.push h ~prio:(float_of_int p) ~tag in
              model := insert (float_of_int p, seq, tag) !model;
              incr next;
              seq = !next - 1
          | A_take ->
              let seq = Dsim.Heap.Arena.take_seq h in
              incr next;
              seq = !next - 1
          | A_drop -> (
              match !model with
              | [] -> Dsim.Heap.Arena.is_empty h
              | (p, seq, tag) :: rest ->
                  let ok =
                    Dsim.Heap.Arena.top_prio h = p
                    && Dsim.Heap.Arena.top_seq h = seq
                    && Dsim.Heap.Arena.top_tag h = tag
                  in
                  Dsim.Heap.Arena.drop h;
                  model := rest;
                  ok))
          && Dsim.Heap.Arena.length h = List.length !model)
        ops)

let suite =
  [
    ( "heap",
      [
        Alcotest.test_case "empty heap" `Quick test_empty;
        Alcotest.test_case "pop_exn on empty" `Quick test_pop_exn_empty;
        Alcotest.test_case "NaN priority rejected" `Quick test_nan_rejected;
        Alcotest.test_case "pops in priority order" `Quick test_ordering;
        Alcotest.test_case "FIFO among ties" `Quick test_fifo_ties;
        Alcotest.test_case "FIFO among many ties" `Quick test_fifo_many_ties;
        Alcotest.test_case "capacity hint" `Quick test_capacity_hint;
        QCheck_alcotest.to_alcotest prop_pop_sorted;
        QCheck_alcotest.to_alcotest prop_heap_matches_sort;
        QCheck_alcotest.to_alcotest prop_arena_matches_reference;
      ] );
  ]
