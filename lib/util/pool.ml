type t = {
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* Domain accounting shared by every pool and every [reserve_domain]
   caller: the domains spawned and not yet joined, not counting the one
   that runs the program. *)
let cores = Domain.recommended_domain_count ()
let others = Atomic.make 0

let in_task_key = Domain.DLS.new_key (fun () -> false)
let in_task () = Domain.DLS.get in_task_key

let reserve_domain () =
  let rec claim () =
    let n = Atomic.get others in
    n + 2 <= cores && (Atomic.compare_and_set others n (n + 1) || claim ())
  in
  (not (in_task ())) && claim ()

let release_domain () = Atomic.decr others

(* Pop the next task, blocking until one arrives or the pool closes. *)
let rec next_task t =
  Mutex.lock t.lock;
  match Queue.take_opt t.queue with
  | Some task ->
    Mutex.unlock t.lock;
    Some task
  | None ->
    if t.closed then begin
      Mutex.unlock t.lock;
      None
    end
    else begin
      Condition.wait t.nonempty t.lock;
      Mutex.unlock t.lock;
      next_task t
    end

let worker_loop t =
  let rec loop () =
    match next_task t with
    | None -> ()
    | Some task ->
      task ();
      loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.with_pool: jobs must be >= 1";
  let t =
    { queue = Queue.create (); lock = Mutex.create ();
      nonempty = Condition.create (); closed = false; workers = [] }
  in
  ignore (Atomic.fetch_and_add others (jobs - 1));
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* One batch per [map] call: tasks decrement [remaining] as they settle and
   the caller waits for zero.  The caller itself drains the queue first, so
   a [jobs:1] pool (no workers) executes everything inline, in order. *)
type batch = {
  mutable remaining : int;
  b_lock : Mutex.t;
  done_ : Condition.t;
}

let settle batch =
  Mutex.lock batch.b_lock;
  batch.remaining <- batch.remaining - 1;
  if batch.remaining = 0 then Condition.broadcast batch.done_;
  Mutex.unlock batch.b_lock

let map t f xs =
  match xs with
  | [] -> []
  | _ ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let failures = Array.make n None in
    let batch =
      { remaining = n; b_lock = Mutex.create (); done_ = Condition.create () }
    in
    let task i () =
      let outer = in_task () in
      Domain.DLS.set in_task_key true;
      (match f items.(i) with
       | v -> results.(i) <- Some v
       | exception e -> failures.(i) <- Some e);
      Domain.DLS.set in_task_key outer;
      settle batch
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    (* participate: run whatever is still queued on this domain *)
    let rec drain () =
      Mutex.lock t.lock;
      let task = Queue.take_opt t.queue in
      Mutex.unlock t.lock;
      match task with
      | Some task ->
        task ();
        drain ()
      | None -> ()
    in
    drain ();
    Mutex.lock batch.b_lock;
    while batch.remaining > 0 do
      Condition.wait batch.done_ batch.b_lock
    done;
    Mutex.unlock batch.b_lock;
    (match Array.find_opt Option.is_some failures with
     | Some (Some e) -> raise e
     | Some None | None -> ());
    Array.to_list (Array.map Option.get results)

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  ignore (Atomic.fetch_and_add others (- List.length t.workers));
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  match f t with
  | v ->
    shutdown t;
    v
  | exception e ->
    shutdown t;
    raise e
