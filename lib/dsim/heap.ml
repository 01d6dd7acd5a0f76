type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  capacity : int;  (* backing-array size applied at the first push *)
}

(* The backing array cannot be allocated before a first value of ['a]
   exists, so the capacity hint is held until then. *)
let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Heap.create: capacity must be positive";
  { data = [||]; size = 0; next_seq = 0; capacity }

let length h = h.size
let is_empty h = h.size = 0

(* [before a b] decides heap order: smaller priority first, then
   smaller sequence number (insertion order) among equal priorities. *)
let before a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow h =
  let cap = max 8 (2 * Array.length h.data) in
  let data = Array.make cap h.data.(0) in
  Array.blit h.data 0 data 0 h.size;
  h.data <- data

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && before h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.size && before h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h prio value =
  if Float.is_nan prio then invalid_arg "Heap.push: NaN priority";
  let entry = { prio; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  if Array.length h.data = 0 then h.data <- Array.make h.capacity entry;
  if h.size = Array.length h.data then grow h;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h =
  if h.size = 0 then None
  else
    let e = h.data.(0) in
    Some (e.prio, e.value)

let pop h =
  if h.size = 0 then None
  else begin
    let e = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some (e.prio, e.value)
  end

let pop_exn h = match pop h with Some x -> x | None -> raise Not_found

(* Flat structure-of-arrays arena heap: priorities live in an unboxed
   [float array], sequence numbers and integer tags in [int array]s.
   Pushing and popping move plain words between preallocated arrays —
   no entry record, no boxed float, no write barrier, no allocation at
   all once the arena has grown to its working size.  A caller with a
   payload stores it in its own slot array and pushes the slot index
   as the tag, so a sift moves three scalars per level instead of a
   pointer.  This is the engine's event queue and Dijkstra's frontier. *)
module Arena = struct
  type t = {
    mutable prios : float array;
    mutable seqs : int array;
    mutable tags : int array;
    mutable size : int;
    mutable next_seq : int;
  }

  let create ?(capacity = 64) () =
    if capacity < 1 then invalid_arg "Heap.Arena.create: capacity must be positive";
    {
      prios = Array.make capacity 0.;
      seqs = Array.make capacity 0;
      tags = Array.make capacity 0;
      size = 0;
      next_seq = 0;
    }

  let length h = h.size
  let is_empty h = h.size = 0

  let take_seq h =
    let seq = h.next_seq in
    h.next_seq <- seq + 1;
    seq

  let grow h =
    let cap = 2 * Array.length h.prios in
    let prios = Array.make cap 0. in
    Array.blit h.prios 0 prios 0 h.size;
    h.prios <- prios;
    let seqs = Array.make cap 0 in
    Array.blit h.seqs 0 seqs 0 h.size;
    h.seqs <- seqs;
    let tags = Array.make cap 0 in
    Array.blit h.tags 0 tags 0 h.size;
    h.tags <- tags

  (* Hole insertion: walk the parent chain down into the hole until the
     new entry fits, then write it once.  A freshly pushed entry always
     has the largest sequence number ever issued (sequence numbers
     handed out by [take_seq] never enter the arena), so on equal
     priorities it stays below its parent — FIFO among ties, exactly
     like the boxed heap. *)
  let push h ~prio ~tag =
    if Float.is_nan prio then invalid_arg "Heap.Arena.push: NaN priority";
    if h.size = Array.length h.prios then grow h;
    let seq = take_seq h in
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if prio < h.prios.(parent) then begin
        h.prios.(!i) <- h.prios.(parent);
        h.seqs.(!i) <- h.seqs.(parent);
        h.tags.(!i) <- h.tags.(parent);
        i := parent
      end
      else continue := false
    done;
    h.prios.(!i) <- prio;
    h.seqs.(!i) <- seq;
    h.tags.(!i) <- tag;
    seq

  let top_prio h =
    if h.size = 0 then invalid_arg "Heap.Arena.top_prio: empty";
    h.prios.(0)

  let prios h = h.prios

  let top_seq h =
    if h.size = 0 then invalid_arg "Heap.Arena.top_seq: empty";
    h.seqs.(0)

  let top_tag h =
    if h.size = 0 then invalid_arg "Heap.Arena.top_tag: empty";
    h.tags.(0)

  (* [before] on (prio, seq) pairs: smaller priority first, FIFO among
     equal priorities. *)
  let drop h =
    if h.size = 0 then invalid_arg "Heap.Arena.drop: empty";
    let last = h.size - 1 in
    h.size <- last;
    if last > 0 then begin
      (* Sift the former last entry down from the root into the hole. *)
      let prio = h.prios.(last) and seq = h.seqs.(last) and tag = h.tags.(last) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        if l >= h.size then continue := false
        else begin
          let c =
            if
              r < h.size
              && (h.prios.(r) < h.prios.(l)
                 || (h.prios.(r) = h.prios.(l) && h.seqs.(r) < h.seqs.(l)))
            then r
            else l
          in
          if
            h.prios.(c) < prio || (h.prios.(c) = prio && h.seqs.(c) < seq)
          then begin
            h.prios.(!i) <- h.prios.(c);
            h.seqs.(!i) <- h.seqs.(c);
            h.tags.(!i) <- h.tags.(c);
            i := c
          end
          else continue := false
        end
      done;
      h.prios.(!i) <- prio;
      h.seqs.(!i) <- seq;
      h.tags.(!i) <- tag
    end
end
