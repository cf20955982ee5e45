(* Binary min-heap backed by a pair of flat parallel arrays: [values.(i)]
   holds the element at heap position [i] and [slots.(i)] its handle record,
   which tracks the position so [remove] can delete an arbitrary element in
   O(log n).

   The flat layout replaces the previous ['a cell option array]: sifting an
   element no longer allocates a [Some] box per move, which is what made
   [heap.push100+drain] a 22.8 µs/op hot spot.  Sifts use the classic
   hole-scheme (carry the moving element in registers, shift ancestors /
   descendants into the hole, write the carried element once at the end), so
   a push is allocation-free apart from its handle record.

   Vacated tail positions keep a stale reference to the last element that
   occupied them (there is no way to conjure a dummy ['a]); retention is
   bounded by the heap's high-water capacity and released by [clear] or when
   the heap empties completely. *)

type slot = { mutable index : int }

type handle = slot

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable values : 'a array;
  mutable slots : slot array;
  mutable size : int;
}

let create ~cmp = { cmp; values = [||]; slots = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Ensure capacity for one more element; [seed] fills the fresh cells of a
   previously empty heap (any live value works — unused positions are
   overwritten before being read). *)
let reserve t seed =
  let cap = Array.length t.values in
  if t.size = cap then begin
    let cap' = max 16 (2 * cap) in
    let values = Array.make cap' seed in
    let slots = Array.make cap' { index = -1 } in
    Array.blit t.values 0 values 0 t.size;
    Array.blit t.slots 0 slots 0 t.size;
    t.values <- values;
    t.slots <- slots
  end

(* Hole-based sift of the element (v, s) from position [i] toward the root;
   ancestors larger than [v] shift down into the hole. *)
let sift_up t i v s =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if t.cmp v t.values.(p) < 0 then begin
      t.values.(!i) <- t.values.(p);
      let ps = t.slots.(p) in
      t.slots.(!i) <- ps;
      ps.index <- !i;
      i := p
    end
    else continue := false
  done;
  t.values.(!i) <- v;
  t.slots.(!i) <- s;
  s.index <- !i

(* Hole-based sift of (v, s) from position [i] toward the leaves. *)
let sift_down t i v s =
  let n = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && t.cmp t.values.(r) t.values.(l) < 0 then r else l
      in
      if t.cmp t.values.(c) v < 0 then begin
        t.values.(!i) <- t.values.(c);
        let cs = t.slots.(c) in
        t.slots.(!i) <- cs;
        cs.index <- !i;
        i := c
      end
      else continue := false
    end
  done;
  t.values.(!i) <- v;
  t.slots.(!i) <- s;
  s.index <- !i

let push t value =
  reserve t value;
  let s = { index = t.size } in
  t.size <- t.size + 1;
  sift_up t (t.size - 1) value s;
  s

let peek t = if t.size = 0 then None else Some t.values.(0)

(* Remove the element at position [i], restoring the heap property. *)
let delete_at t i =
  let removed = t.values.(i) in
  t.slots.(i).index <- -1;
  let last = t.size - 1 in
  t.size <- last;
  if i <> last then begin
    let v = t.values.(last) and s = t.slots.(last) in
    sift_down t i v s;
    if t.slots.(i) == s then sift_up t i v s
  end;
  if last = 0 then begin
    (* Heap went empty: drop the arrays so popped elements can be GC'd. *)
    t.values <- [||];
    t.slots <- [||]
  end;
  removed

let pop t = if t.size = 0 then None else Some (delete_at t 0)

let mem t h = h.index >= 0 && h.index < t.size && t.slots.(h.index) == h

let remove t h =
  if mem t h then begin
    ignore (delete_at t h.index);
    true
  end
  else false

let clear t =
  for i = 0 to t.size - 1 do
    t.slots.(i).index <- -1
  done;
  t.values <- [||];
  t.slots <- [||];
  t.size <- 0

let to_sorted_list t =
  let values = ref [] in
  for i = 0 to t.size - 1 do
    values := t.values.(i) :: !values
  done;
  List.sort t.cmp !values
