(* A bounded single-producer/single-consumer ring drained by one worker
   domain.

   Publication under OCaml 5's memory model.  Slots are plain array
   fields; the two sides hand them over through two atomic counters,
   each written by one side only.  The producer stores an item in its
   slot and later advances [published] (an atomic store); the worker
   reads [published] (an atomic load) before it reads the slot.  An
   atomic load that sees a store happens after it, and so does every
   plain write made before that store, so the worker sees the item, never
   an older value of the slot.  In the other direction the worker clears
   the slot and then advances [released]; the producer writes the slot
   again only after its load of [released] has seen that advance.  No
   slot is ever accessed by both sides without such an edge between
   them, so the program has no data race and each side sees the other's
   writes in order.

   Sleeping.  A side that finds nothing to do spins for a while, then
   raises its [parked] flag and waits on the condition variable.  The
   other side changes the counter the sleeper waits on first and reads
   the flag second; the sleeper raises the flag first and reads the
   counter second.  Atomics are sequentially consistent, so at least one
   of the two sees the other's write: either the sleeper does not sleep,
   or the waker signals under the lock, which the sleeper holds until
   [Condition.wait] has released it. *)

type 'a t = {
  slots : 'a array;
  dummy : 'a;
  batch : int;
  consume : 'a -> unit;
  (* the producer's own *)
  mutable written : int;  (* items pushed since the worker started *)
  mutable next : int;  (* slot of the next push: [written mod capacity] *)
  mutable unpublished : int;  (* pushes since the last publication *)
  mutable free : int;  (* the last [released] the producer read *)
  mutable worker : (exn * Printexc.raw_backtrace) option Domain.t option;
  (* shared *)
  published : int Atomic.t;  (* items the worker may read *)
  released : int Atomic.t;  (* items consumed, their slots cleared *)
  closed : bool Atomic.t;  (* no item will be published after the last *)
  worker_parked : bool Atomic.t;
  producer_parked : bool Atomic.t;
  lock : Mutex.t;
  wake : Condition.t;
}

let create ~capacity ~batch ~dummy consume =
  if capacity < 1 then invalid_arg "Pipeline.create: capacity < 1";
  if batch < 1 || batch > capacity then
    invalid_arg "Pipeline.create: batch outside [1, capacity]";
  { slots = Array.make capacity dummy; dummy; batch; consume; written = 0;
    next = 0; unpublished = 0; free = 0; worker = None;
    published = Atomic.make 0; released = Atomic.make 0;
    closed = Atomic.make false; worker_parked = Atomic.make false;
    producer_parked = Atomic.make false; lock = Mutex.create ();
    wake = Condition.create () }

(* The worker waits while the simulation produces its next batch, and
   the producer while the worker frees room; both waits are usually
   shorter than a sleep and a wake-up.  The producer's spin is the longer
   one: its waits are the ones the run's wall clock pays. *)
let worker_spins = 2_000
let producer_spins = 50_000

let await t ~spins parked ready =
  let rec spin n = ready () || (n > 0 && (Domain.cpu_relax (); spin (n - 1))) in
  if not (spin spins) then begin
    Mutex.lock t.lock;
    Atomic.set parked true;
    while not (ready ()) do
      Condition.wait t.wake t.lock
    done;
    Atomic.set parked false;
    Mutex.unlock t.lock
  end

let signal t parked =
  if Atomic.get parked then begin
    Mutex.lock t.lock;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock
  end

(* The worker: consume in order, clear each slot as soon as it is read so
   a consumed item is garbage at once, and hand slots back every [batch]
   items.  After a consumer raises, the rest is read and dropped, so the
   producer never waits on a dead worker; the first failure is the
   worker's result.  The loop reads the record's fields once, up front:
   the producer writes its own fields of the record on every push, and
   a worker reading the same cache line per item would pull it across
   cores each time. *)
let work t () =
  let { slots; dummy; batch; consume; published; released; closed;
        worker_parked; producer_parked; _ } =
    t
  in
  let capacity = Array.length slots in
  let read = ref 0 and slot = ref 0 and freed = ref 0 and failure = ref None in
  let arrived () = Atomic.get published > !read || Atomic.get closed in
  let release () =
    freed := !read;
    Atomic.set released !read;
    signal t producer_parked
  in
  while not (Atomic.get closed && Atomic.get published = !read) do
    let available = Atomic.get published in
    if available = !read then
      await t ~spins:worker_spins worker_parked arrived
    else begin
      while !read < available do
        let x = slots.(!slot) in
        slots.(!slot) <- dummy;
        slot := if !slot + 1 = capacity then 0 else !slot + 1;
        incr read;
        (match !failure with
         | None -> (
           try consume x
           with e -> failure := Some (e, Printexc.get_raw_backtrace ()))
         | Some _ -> ());
        if !read - !freed = batch then release ()
      done;
      release ()
    end
  done;
  !failure

let publish t =
  t.unpublished <- 0;
  Atomic.set t.published t.written;
  signal t t.worker_parked

let push t x =
  (match t.worker with
   | None -> t.worker <- Some (Domain.spawn (work t))
   | Some _ -> ());
  let capacity = Array.length t.slots in
  if t.written - t.free = capacity then begin
    publish t;
    let room () =
      t.free <- Atomic.get t.released;
      t.written - t.free < capacity
    in
    await t ~spins:producer_spins t.producer_parked room
  end;
  t.slots.(t.next) <- x;
  t.next <- (if t.next + 1 = capacity then 0 else t.next + 1);
  t.written <- t.written + 1;
  t.unpublished <- t.unpublished + 1;
  if t.unpublished = t.batch then publish t

let finish t =
  match t.worker with
  | None -> ()
  | Some worker ->
    t.worker <- None;
    publish t;
    Atomic.set t.closed true;
    signal t t.worker_parked;
    let reset () =
      t.written <- 0;
      t.next <- 0;
      t.free <- 0;
      Atomic.set t.published 0;
      Atomic.set t.released 0;
      Atomic.set t.closed false
    in
    let failure = Fun.protect ~finally:reset (fun () -> Domain.join worker) in
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure
