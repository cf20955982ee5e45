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
   from id to number, kept at most half full, numbering ids in the order
   they are first seen.  [clear] empties it without reallocating.  Once
   every id is in, [freeze] renumbers them in ascending id order and
   returns the sorted ids, so that dense order is id order. *)
module Numbering = struct
  type t = {
    mutable keys : int array;
    mutable nums : int array;  (* -1 marks an empty slot *)
    mutable ids : int array;   (* [ids.(k)] is the id first numbered [k] *)
    mutable count : int;
  }

  let create () = { keys = [||]; nums = [||]; ids = [||]; count = 0 }

  (* the slot holding [x], or the empty slot where it belongs *)
  let probe keys nums (x : int) =
    let mask = Array.length keys - 1 in
    let h = x * 0x2545F4914F6CDD1D in
    let s = ref ((h lxor (h lsr 29)) land mask) in
    while nums.(!s) >= 0 && keys.(!s) <> x do
      s := (!s + 1) land mask
    done;
    !s

  let slot t x = probe t.keys t.nums x

  let grow t =
    let cap = Int.max 64 (2 * Array.length t.keys) in
    t.keys <- Array.make cap 0;
    t.nums <- Array.make cap (-1);
    let ids = Array.make (cap / 2) 0 in
    Array.blit t.ids 0 ids 0 t.count;
    t.ids <- ids;
    for k = 0 to t.count - 1 do
      let s = slot t ids.(k) in
      t.keys.(s) <- ids.(k);
      t.nums.(s) <- k
    done

  (* [x]'s number, giving it the next one if it is new: one probe *)
  let add t x =
    if 2 * (t.count + 1) > Array.length t.keys then grow t;
    let keys = t.keys and nums = t.nums in
    let s = probe keys nums x in
    if nums.(s) >= 0 then nums.(s)
    else begin
      let k = t.count in
      keys.(s) <- x;
      nums.(s) <- k;
      t.ids.(k) <- x;
      t.count <- k + 1;
      k
    end

  let find t x = t.nums.(slot t x)

  let clear t =
    Array.fill t.nums 0 (Array.length t.nums) (-1);
    t.count <- 0

  let freeze t =
    let ids = Array.sub t.ids 0 t.count in
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

(* [a] with its first [len] elements kept, at [cap] elements *)
let extend a len cap =
  let a' = Array.make cap 0 in
  Array.blit a 0 a' 0 len;
  a'

module Builder = struct
  type graph = t

  type t = {
    num : Numbering.t;
    mutable src : int array;  (* edge [k] runs [src.(k) -> dst.(k)], *)
    mutable dst : int array;  (* in first-seen numbers *)
    mutable m : int;
    mutable rank : int array; (* [graph]'s scratch: number -> dense index *)
    mutable row : int array;  (* [graph]'s scratch: successors by source *)
  }

  let create () =
    { num = Numbering.create (); src = [||]; dst = [||]; m = 0; rank = [||];
      row = [||] }

  let clear b =
    Numbering.clear b.num;
    b.m <- 0

  let add_node b x = ignore (Numbering.add b.num x)

  let add b x y =
    let i = Numbering.add b.num x in
    let j = Numbering.add b.num y in
    if i <> j then begin
      if b.m = Array.length b.src then begin
        let cap = Int.max 64 (2 * b.m) in
        b.src <- extend b.src b.m cap;
        b.dst <- extend b.dst b.m cap
      end;
      b.src.(b.m) <- i;
      b.dst.(b.m) <- j;
      b.m <- b.m + 1
    end

  (* Ranks the ids, then counting-sorts the edges by source rank: [off.(s)]
     counts row [s], becomes the row's end by a prefix sum, and falls back
     to its start as the row's edges are placed.  Rows are short, so each
     is sorted in place and deduplicated while the rows are packed
     leftwards. *)
  let graph b : graph =
    let num = b.num and m = b.m in
    let n = num.count in
    let ids = Array.sub num.ids 0 n in
    sort_ints ids 0 n;
    if Array.length b.rank < n then
      b.rank <- Array.make (Array.length num.ids) 0;
    for r = 0 to n - 1 do
      b.rank.(Numbering.find num ids.(r)) <- r
    done;
    let off = Array.make (n + 1) 0 in
    for k = 0 to m - 1 do
      let s = b.rank.(b.src.(k)) in
      off.(s) <- off.(s) + 1
    done;
    for i = 1 to n - 1 do
      off.(i) <- off.(i) + off.(i - 1)
    done;
    off.(n) <- m;
    if Array.length b.row < m then
      b.row <- Array.make (Array.length b.src) 0;
    let row = b.row in
    for k = 0 to m - 1 do
      let s = b.rank.(b.src.(k)) in
      off.(s) <- off.(s) - 1;
      row.(off.(s)) <- b.rank.(b.dst.(k))
    done;
    let w = ref 0 in
    for i = 0 to n - 1 do
      let lo = off.(i) and hi = off.(i + 1) in
      off.(i) <- !w;
      sort_ints row lo hi;
      for k = lo to hi - 1 do
        if k = lo || row.(k) <> row.(!w - 1) then begin
          row.(!w) <- row.(k);
          incr w
        end
      done
    done;
    off.(n) <- !w;
    { ids; off; succ = Array.sub row 0 !w }
end

let of_edges ~nodes ~edges =
  let b = Builder.create () in
  List.iter (Builder.add_node b) nodes;
  List.iter (fun (x, y) -> Builder.add b x y) edges;
  Builder.graph b

let of_logs logs =
  let num = Numbering.create () in
  List.iter
    (fun (_copy, entries) ->
      List.iter
        (fun (e : Ccdb_storage.Store.log_entry) ->
          ignore (Numbering.add num e.txn))
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
