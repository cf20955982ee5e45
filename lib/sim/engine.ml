(* Discrete-event engine: one binary min-heap of events ordered by (time, seq).

   [seq] is allocated from one counter at schedule time, so events due at
   the same instant fire in schedule order and a run is a function of its
   schedule calls alone.  [reserve] allocates keys without queueing
   anything, and [schedule_reserved] queues an event under a key reserved
   earlier; [schedule_all] and the network's retransmission timers use the
   pair.

   The heap is three parallel arrays indexed by heap position: the due
   times (an unboxed [float array]), the sequence numbers and the handles.
   A handle holds its event's action and position, so moving an entry
   stores one pointer.  Entries compare inline on (at, seq), so a push
   allocates only its handle and a removal nothing.  Sifts carry the moving
   entry in locals and shift the others into the hole.  An entry that
   leaves has its handle's position reset to -1 and its action dropped, so
   a handle the caller keeps holds no fired or cancelled closure, and the
   slot it vacates is reset, so the heap holds no stale handle.  See
   DESIGN.md §14. *)

type time = float

type handle = { mutable index : int; mutable action : unit -> unit }

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable handles : handle array;
  mutable size : int;
  mutable clock : time;
  mutable seq : int;
  mutable fired : int;
  mutable deferred : int;
      (* members of time-sorted batches not pushed yet (see [feed]) *)
}

let nop () = ()

(* fills vacant slots; never handed out, so never written *)
let vacant = { index = -1; action = nop }

let create () =
  { times = [||]; seqs = [||]; handles = [||]; size = 0; clock = 0.; seq = 0;
    fired = 0; deferred = 0 }

let now t = t.clock

let grow t =
  let cap = max 16 (2 * Array.length t.times) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 t.size;
    a'
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.handles <- extend t.handles vacant

let[@inline] set t i at seq h =
  t.times.(i) <- at;
  t.seqs.(i) <- seq;
  t.handles.(i) <- h;
  h.index <- i

(* is the entry at [i] due strictly before (at, seq)? *)
let[@inline] before t i at seq =
  let a = t.times.(i) in
  a < at || (a = at && t.seqs.(i) < seq)

(* Fill the hole at [i] with the entry (at, seq, h), moving it toward the
   root past every parent due after it. *)
let sift_up t i at seq h =
  let i = ref i in
  while !i > 0 && not (before t ((!i - 1) / 2) at seq) do
    let p = (!i - 1) / 2 in
    set t !i t.times.(p) t.seqs.(p) t.handles.(p);
    i := p
  done;
  set t !i at seq h

(* The same toward the leaves, past every smaller child due before it.
   Inlined into [delete_at], so the carried time stays unboxed. *)
let[@inline] sift_down t i at seq h =
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
        set t !i t.times.(c) t.seqs.(c) t.handles.(c);
        i := c
      end
      else continue := false
    end
  done;
  set t !i at seq h

let push t at seq action =
  if t.size = Array.length t.times then grow t;
  let h = { index = t.size; action } in
  t.size <- t.size + 1;
  sift_up t (t.size - 1) at seq h;
  h

(* Remove the entry at position [i] and return its action: the last entry
   fills the hole and sifts whichever way restores the order, and the
   vacated last slot is reset. *)
let delete_at t i =
  let gone = t.handles.(i) in
  let action = gone.action in
  gone.index <- -1;
  gone.action <- nop;
  let last = t.size - 1 in
  let at = t.times.(last) and seq = t.seqs.(last) and h = t.handles.(last) in
  t.handles.(last) <- vacant;
  t.size <- last;
  (if i < last then
     if i > 0 && not (before t ((i - 1) / 2) at seq) then sift_up t i at seq h
     else sift_down t i at seq h);
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

(* Push the head of a time-sorted batch under [seq]; as it fires it pushes
   its successor under [seq + 1], before its own action runs.  Reserved
   keys rise along the batch, so the successor is never due before the
   member that pushes it, and the batch fires exactly as if every member
   had been pushed up front. *)
let rec feed t seq = function
  | [] -> ()
  | [ (at, action) ] -> ignore (schedule_reserved t ~at ~seq action)
  | (at, action) :: rest ->
    ignore
      (schedule_reserved t ~at ~seq (fun () ->
           t.deferred <- t.deferred - 1;
           feed t (seq + 1) rest;
           action ()))

let schedule_all t batch =
  let rec scan prev sorted n = function
    | [] -> (sorted, n)
    | (at, _) :: rest ->
      if not (at >= t.clock) then
        invalid_arg "Engine.schedule_all: time in the past";
      scan at (sorted && at >= prev) (n + 1) rest
  in
  let sorted, n = scan t.clock true 0 batch in
  let seq = reserve t n in
  if sorted then begin
    t.deferred <- t.deferred + Int.max 0 (n - 1);
    feed t seq batch
  end
  else
    List.iteri
      (fun i (at, action) ->
        ignore (schedule_reserved t ~at ~seq:(seq + i) action))
      batch

let cancel t h =
  let i = h.index in
  i >= 0 && i < t.size && t.handles.(i) == h
  &&
  let (_ : unit -> unit) = delete_at t i in
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
