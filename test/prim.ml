let run ?(root = 0) g =
  let n = Netsim.Graph.node_count g in
  if n = 0 then { Mst.Kruskal.edges = []; total_weight = 0.; components = 0 }
  else begin
    if not (Netsim.Graph.mem_node g root) then invalid_arg "Prim.run: unknown root";
    let in_tree = Array.make n false in
    let queue = Dsim.Heap.create () in
    let edges = ref [] in
    (* The heap priority is the edge weight; Edge_id tie-breaks are
       applied when popping equal-priority entries by re-comparing. *)
    let push_edges u =
      List.iter
        (fun (v, w) ->
          if not in_tree.(v) then
            Dsim.Heap.push queue w (Mst.Edge_id.make u v w))
        (Netsim.Graph.neighbors g u)
    in
    in_tree.(root) <- true;
    push_edges root;
    let pop_best () =
      (* Collect every minimum-weight candidate and keep the Edge_id
         minimum so ties resolve exactly as Kruskal's sort does. *)
      match Dsim.Heap.pop queue with
      | None -> None
      | Some (w, e) ->
          let collected = ref [ e ] in
          let rec gather () =
            match Dsim.Heap.peek queue with
            | Some (w', _) when w' = w ->
                let _, e' = Dsim.Heap.pop_exn queue in
                collected := e' :: !collected;
                gather ()
            | _ -> ()
          in
          gather ();
          let best =
            List.fold_left
              (fun acc e -> if Mst.Edge_id.compare e acc < 0 then e else acc)
              e !collected
          in
          List.iter
            (fun e' ->
              if not (Mst.Edge_id.equal e' best) then Dsim.Heap.push queue e'.Mst.Edge_id.w e')
            !collected;
          Some best
    in
    let rec grow () =
      match pop_best () with
      | None -> ()
      | Some e ->
          let { Mst.Edge_id.lo; hi; w } = e in
          let fresh =
            if in_tree.(lo) && not in_tree.(hi) then Some hi
            else if in_tree.(hi) && not in_tree.(lo) then Some lo
            else None
          in
          (match fresh with
          | Some v ->
              in_tree.(v) <- true;
              edges := (lo, hi, w) :: !edges;
              push_edges v
          | None -> ());
          grow ()
    in
    grow ();
    let edges =
      List.sort
        (fun (u1, v1, w1) (u2, v2, w2) ->
          Mst.Edge_id.compare (Mst.Edge_id.make u1 v1 w1) (Mst.Edge_id.make u2 v2 w2))
        !edges
    in
    let unreached = Array.to_list in_tree |> List.filter not |> List.length in
    {
      Mst.Kruskal.edges;
      total_weight = List.fold_left (fun acc (_, _, w) -> acc +. w) 0. edges;
      components = 1 + unreached;
    }
  end
