(* Discrete-event engine: one binary min-heap of events ordered by (time, seq).

   [seq] is allocated from one counter at schedule time, so events due at
   the same instant fire in schedule order and a run is a function of its
   schedule calls alone.  [reserve] allocates keys without queueing
   anything, and [schedule_reserved] queues an event under a key reserved
   earlier; [feed] and the network's retransmission timers use the
   pair.

   The heap is three parallel arrays indexed by heap position: the due
   times (an unboxed [float array]), the sequence numbers and the slots.
   A slot names an event's action in [actions], its heap position in [pos]
   and its generation in [gens].  Heap positions at or past [size] hold
   the free slots, so a push takes the slot just past the heap's end and a
   removal leaves its slot there.  Sifts move only times, ints and
   positions, so no sift level runs the write barrier; only a push (which
   stores the action) and a removal (which drops it) write a pointer.
   Entries compare inline on (at, seq), so neither a push nor a removal
   allocates.  A handle is an int packing the slot with its generation at
   the push; a removal bumps the generation, so a handle whose event fired
   or was cancelled is refused even after its slot is reused.  See
   DESIGN.md §14. *)

type time = float

type handle = int

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array; (* by position; free slots from [size] on *)
  mutable actions : (unit -> unit) array; (* by slot *)
  mutable pos : int array; (* by slot: heap position, -1 if free *)
  mutable gens : int array; (* by slot: bumped by each removal *)
  mutable size : int;
  mutable clock : time;
  mutable seq : int;
  mutable fired : int;
  mutable deferred : int;
      (* members of feeds not pushed yet (see [feed]) *)
}

let nop () = ()

(* a handle's low bits are its slot *)
let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let[@inline] handle t s = (t.gens.(s) lsl slot_bits) lor s

let create () =
  { times = [||]; seqs = [||]; slots = [||]; actions = [||]; pos = [||];
    gens = [||]; size = 0; clock = 0.; seq = 0; fired = 0; deferred = 0 }

let now t = t.clock

(* Doubles every array; the new slots join the free ones past the heap. *)
let grow t =
  let old = Array.length t.times in
  let cap = max 16 (2 * old) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 old;
    a'
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- Array.init cap (fun i -> if i < old then t.slots.(i) else i);
  t.actions <- extend t.actions nop;
  t.pos <- extend t.pos (-1);
  t.gens <- extend t.gens 0

let[@inline] set t i at seq s =
  t.times.(i) <- at;
  t.seqs.(i) <- seq;
  t.slots.(i) <- s;
  t.pos.(s) <- i

(* is the entry at [i] due strictly before (at, seq)? *)
let[@inline] before t i at seq =
  let a = t.times.(i) in
  a < at || (a = at && t.seqs.(i) < seq)

(* Fill the hole at [i] with the entry (at, seq, s), moving it toward the
   root past every parent due after it. *)
let sift_up t i at seq s =
  let i = ref i in
  while !i > 0 && not (before t ((!i - 1) / 2) at seq) do
    let p = (!i - 1) / 2 in
    set t !i t.times.(p) t.seqs.(p) t.slots.(p);
    i := p
  done;
  set t !i at seq s

(* The same toward the leaves, past every smaller child due before it.
   Inlined into [delete_at], so the carried time stays unboxed. *)
let[@inline] sift_down t i at seq s =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= t.size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < t.size && before t r t.times.(l) t.seqs.(l) then r else l
      in
      if before t c at seq then begin
        set t !i t.times.(c) t.seqs.(c) t.slots.(c);
        i := c
      end
      else continue := false
    end
  done;
  set t !i at seq s

let push t at seq action =
  if t.size = Array.length t.times then grow t;
  let s = t.slots.(t.size) in
  t.actions.(s) <- action;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) at seq s;
  handle t s

(* Remove the entry at position [i] and return its action: the last entry
   fills the hole and sifts whichever way restores the order, and the
   freed slot goes to the position the heap no longer covers. *)
let delete_at t i =
  let gone = t.slots.(i) in
  let action = t.actions.(gone) in
  t.actions.(gone) <- nop;
  t.gens.(gone) <- t.gens.(gone) + 1;
  t.pos.(gone) <- -1;
  let last = t.size - 1 in
  let at = t.times.(last) and seq = t.seqs.(last) and s = t.slots.(last) in
  t.size <- last;
  (if i < last then
     if i > 0 && not (before t ((i - 1) / 2) at seq) then sift_up t i at seq s
     else sift_down t i at seq s);
  t.slots.(last) <- gone;
  action

let schedule_at t ~at action =
  (* negated so that a NaN time is refused rather than queued *)
  if not (at >= t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  let seq = t.seq in
  t.seq <- seq + 1;
  push t at seq action

let schedule t ~after action =
  if not (after >= 0.) then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock +. after) action

let reserve t n =
  if n < 0 then invalid_arg "Engine.reserve: negative count";
  let seq = t.seq in
  t.seq <- seq + n;
  seq

let schedule_reserved t ~at ~seq action =
  if not (at >= t.clock) then
    invalid_arg "Engine.schedule_reserved: time in the past";
  if seq < 0 || seq >= t.seq then
    invalid_arg "Engine.schedule_reserved: key not reserved";
  push t at seq action

(* Push the member [next] draws under [seq]; as it fires it draws and
   pushes its successor under [seq + 1], before its own action runs, until
   [last].  Reserved keys rise along the feed and each member is checked
   to be due no earlier than the one that pushes it, so the feed fires
   exactly as if every member had been pushed up front. *)
let rec feed_from t ~seq ~last next =
  let at, action = next () in
  (* negated so that a NaN time is refused too *)
  if not (at >= t.clock) then invalid_arg "Engine.feed: member out of order";
  if seq = last then ignore (push t at seq action)
  else
    ignore
      (push t at seq (fun () ->
           t.deferred <- t.deferred - 1;
           feed_from t ~seq:(seq + 1) ~last next;
           action ()))

let feed t ~n next =
  if n < 0 then invalid_arg "Engine.feed: negative count";
  let seq = reserve t n in
  if n > 0 then begin
    feed_from t ~seq ~last:(seq + n - 1) next;
    t.deferred <- t.deferred + (n - 1)
  end

(* A live slot's generation is the one its handle was given; a removal
   bumps it, so a spent handle no longer matches even once its slot is
   live again.  A free slot has no position, so no int names it. *)
let cancel t h =
  let s = h land slot_mask in
  s < Array.length t.gens && handle t s = h && t.pos.(s) >= 0
  &&
  let (_ : unit -> unit) = delete_at t t.pos.(s) in
  true

let fire_next t =
  let at = t.times.(0) in
  let action = delete_at t 0 in
  t.clock <- at;
  t.fired <- t.fired + 1;
  action ()

let step t =
  t.size > 0
  && begin
    fire_next t;
    true
  end

let run ?until ?max_events t =
  let horizon = Option.value until ~default:infinity in
  let rec loop budget =
    if budget > 0 && t.size > 0 then
      if t.times.(0) > horizon then t.clock <- max t.clock horizon
      else begin
        fire_next t;
        loop (budget - 1)
      end
  in
  loop (Option.value max_events ~default:max_int)

let pending t = t.size + t.deferred

let processed t = t.fired
