(* Compressed sparse rows over dense node indices.  [ids] holds the distinct
   transaction ids in ascending order, node [i] standing for [ids.(i)]; its
   successors are [succ.(off.(i)) .. succ.(off.(i + 1) - 1)], dense indices,
   ascending and deduplicated.  Dense order is id order, so scanning indices
   upwards visits roots and successors smallest-id-first.  Everything is
   plain [int] arithmetic: no polymorphic comparison anywhere. *)
type t = { ids : int array; off : int array; succ : int array }

(* In-place ascending sort of [a.(lo) .. a.(hi - 1)]: quicksort around a
   median-of-three pivot, insertion sort on short ranges.  Recursing into
   the smaller side bounds the stack depth by log n. *)
let rec sort_ints (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let x = a.(lo) and y = a.(lo + ((hi - lo) / 2)) and z = a.(hi - 1) in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let s = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- s;
        incr i;
        decr j
      end
    done;
    if !j + 1 - lo < hi - !i then begin
      sort_ints a lo (!j + 1);
      sort_ints a !i hi
    end
    else begin
      sort_ints a !i hi;
      sort_ints a lo (!j + 1)
    end
  end

(* Sorts [a.(0) .. a.(len - 1)] and squeezes out repeats; returns how many
   distinct values now lead the array. *)
let sort_uniq (a : int array) len =
  sort_ints a 0 len;
  if len = 0 then 0
  else begin
    let w = ref 1 in
    for r = 1 to len - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    !w
  end

(* Dense numbering of arbitrary int ids: a growable linear-probing table
   from id to number, kept at most half full.  Once every id is in,
   [freeze] renumbers them in ascending id order and returns the sorted
   ids, so that dense order is id order. *)
module Numbering = struct
  type t = {
    mutable keys : int array;
    mutable nums : int array;  (* -1 marks an empty slot *)
    mutable count : int;
  }

  let create () = { keys = Array.make 64 0; nums = Array.make 64 (-1); count = 0 }

  let slot t (x : int) =
    let mask = Array.length t.keys - 1 in
    let h = x * 0x2545F4914F6CDD1D in
    let s = ref ((h lxor (h lsr 29)) land mask) in
    while t.nums.(!s) >= 0 && t.keys.(!s) <> x do
      s := (!s + 1) land mask
    done;
    !s

  let rec add t x =
    let s = slot t x in
    if t.nums.(s) < 0 then
      if 2 * (t.count + 1) > Array.length t.keys then begin
        grow t;
        add t x
      end
      else begin
        t.keys.(s) <- x;
        t.nums.(s) <- t.count;
        t.count <- t.count + 1
      end

  and grow t =
    let keys = t.keys and nums = t.nums in
    t.keys <- Array.make (2 * Array.length keys) 0;
    t.nums <- Array.make (2 * Array.length keys) (-1);
    Array.iteri
      (fun s n ->
        if n >= 0 then begin
          let s' = slot t keys.(s) in
          t.keys.(s') <- keys.(s);
          t.nums.(s') <- n
        end)
      nums

  let find t x = t.nums.(slot t x)

  let freeze t =
    let ids = Array.make t.count 0 in
    Array.iteri (fun s n -> if n >= 0 then ids.(n) <- t.keys.(s)) t.nums;
    sort_ints ids 0 t.count;
    Array.iteri (fun r x -> t.nums.(slot t x) <- r) ids;
    ids
end

(* [keys.(0 .. m - 1)] are edges packed as [src * n + dst] over dense
   indices, in any order and possibly repeated.  Sorting them orders the
   edges by source, then destination. *)
let build ids keys m =
  let n = Array.length ids in
  let m = sort_uniq keys m in
  let off = Array.make (n + 1) 0 in
  let succ = Array.make m 0 in
  for k = 0 to m - 1 do
    let src = keys.(k) / n in
    off.(src + 1) <- off.(src + 1) + 1;
    succ.(k) <- keys.(k) mod n
  done;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  { ids; off; succ }

let of_edges ~nodes ~edges =
  let num = Numbering.create () in
  List.iter (Numbering.add num) nodes;
  List.iter
    (fun (a, b) ->
      Numbering.add num a;
      Numbering.add num b)
    edges;
  let ids = Numbering.freeze num in
  let n = Array.length ids in
  let keys = Array.make (List.length edges) 0 and m = ref 0 in
  List.iter
    (fun (a, b) ->
      if a <> b then begin
        keys.(!m) <- (Numbering.find num a * n) + Numbering.find num b;
        incr m
      end)
    edges;
  build ids keys !m

let of_logs logs =
  let num = Numbering.create () in
  List.iter
    (fun (_copy, entries) ->
      List.iter
        (fun (e : Ccdb_storage.Store.log_entry) -> Numbering.add num e.txn)
        entries)
    logs;
  let ids = Numbering.freeze num in
  let n = Array.length ids in
  (* A long log repeats the same conflict many times over, so the key
     buffer is deduplicated before it grows: its size follows the number
     of distinct edges, not of conflicting pairs. *)
  let keys = ref (Array.make 64 0) and m = ref 0 in
  let push key =
    if !m = Array.length !keys then begin
      m := sort_uniq !keys !m;
      if 2 * !m > Array.length !keys then begin
        let bigger = Array.make (2 * Array.length !keys) 0 in
        Array.blit !keys 0 bigger 0 !m;
        keys := bigger
      end
    end;
    !keys.(!m) <- key;
    incr m
  in
  (* an edge from every earlier conflicting entry of a different
     transaction to each later one *)
  List.iter
    (fun (_copy, entries) ->
      let entries = Array.of_list entries in
      let txn =
        Array.map
          (fun (e : Ccdb_storage.Store.log_entry) -> Numbering.find num e.txn)
          entries
      in
      for j = 1 to Array.length entries - 1 do
        for i = 0 to j - 1 do
          if
            txn.(i) <> txn.(j)
            && Ccdb_model.Op.conflicts entries.(i).kind entries.(j).kind
          then push ((txn.(i) * n) + txn.(j))
        done
      done)
    logs;
  build ids !keys !m

let nodes t = Array.to_list t.ids

let edges t =
  let acc = ref [] in
  for i = Array.length t.ids - 1 downto 0 do
    for k = t.off.(i + 1) - 1 downto t.off.(i) do
      acc := (t.ids.(i), t.ids.(t.succ.(k))) :: !acc
    done
  done;
  !acc

(* Iterative DFS.  [state.(v)] is [unvisited], [finished], or v's depth on
   the current path; a successor found on the path closes a cycle, whose
   witness is the path from that successor down to the current node. *)
let unvisited = -1
let finished = -2

let find_cycle t =
  let n = Array.length t.ids in
  let state = Array.make n unvisited in
  let path = Array.make n 0 and cursor = Array.make n 0 in
  let depth = ref 0 in
  let push v =
    state.(v) <- !depth;
    path.(!depth) <- v;
    cursor.(!depth) <- t.off.(v);
    incr depth
  in
  let witness = ref None in
  let root = ref 0 in
  while Option.is_none !witness && !root < n do
    if state.(!root) = unvisited then begin
      push !root;
      while Option.is_none !witness && !depth > 0 do
        let d = !depth - 1 in
        let v = path.(d) in
        let k = cursor.(d) in
        if k = t.off.(v + 1) then begin
          state.(v) <- finished;
          decr depth
        end
        else begin
          cursor.(d) <- k + 1;
          let w = t.succ.(k) in
          let s = state.(w) in
          if s = unvisited then push w
          else if s >= 0 then
            witness :=
              Some (List.init (d - s + 1) (fun i -> t.ids.(path.(s + i))))
        end
      done
    end;
    incr root
  done;
  !witness

let has_cycle t = Option.is_some (find_cycle t)

module Frontier = Set.Make (Int)

let topological_order t =
  let n = Array.length t.ids in
  let indeg = Array.make n 0 in
  Array.iter (fun w -> indeg.(w) <- indeg.(w) + 1) t.succ;
  (* smallest-id-first frontier for a deterministic order *)
  let frontier = ref Frontier.empty in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then frontier := Frontier.add v !frontier
  done;
  let order = ref [] and count = ref 0 in
  let rec drain () =
    match Frontier.min_elt_opt !frontier with
    | None -> ()
    | Some v ->
      frontier := Frontier.remove v !frontier;
      order := t.ids.(v) :: !order;
      incr count;
      for k = t.off.(v) to t.off.(v + 1) - 1 do
        let w = t.succ.(k) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then frontier := Frontier.add w !frontier
      done;
      drain ()
  in
  drain ();
  if !count = n then Some (List.rev !order) else None
