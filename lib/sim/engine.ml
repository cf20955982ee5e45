(* Sharded discrete-event engine.

   Sites are partitioned into [shards] shards by [shard_of]; each shard owns
   a private event heap.  Events scheduled from inside an executing event
   stay on the executing shard unless tagged with [?site]; a tagged schedule
   whose owning shard differs from the executing one is routed through a
   per-(src, dst) timestamped channel instead of a heap.

   Synchronization is conservative (a lookahead / null-message scheme):
   each window opens at [t_min] (the global minimum heap head) and runs to a
   barrier [t_min +. lookahead].  Cross-shard messages carry at least
   [lookahead] of network latency, so no channelled event can fire inside
   the window that produced it; every event that must fire before the
   barrier is already heap-resident.  At the barrier, channels are settled
   (drained into the destination heaps) and the next window opens.

   Events fire in exact global (time, seq) order — [seq] is allocated from
   one counter in execution order and is globally unique, so the k-way
   merge across shard heaps reproduces the single-heap firing order
   byte-for-byte for any shard count, including S = 1.  (The merge itself
   runs on the calling domain: every protocol layer above shares a global
   timestamp source, RNG, and store observers, so parallel window execution
   would be unsound until those are partitioned per shard — see DESIGN.md
   §14.  The sharded structure, channel discipline, and barrier accounting
   are exactly what a domain-per-shard execution will reuse.)

   Tagged schedules that undercut the barrier (a foreign shard touching
   another shard's site with less than [lookahead] of delay, e.g. a
   watchdog re-driving a remote transaction "locally") fall back to the
   executing shard's heap: under the exact merge this is deterministic and
   order-preserving, and the [local_fallbacks] counter keeps the seam
   visible. *)

type time = float

type status =
  | Heaped of Ccdb_util.Heap.handle  (* resident in its shard's heap *)
  | Channelled  (* in a cross-shard channel, awaiting barrier settlement *)
  | Gone  (* fired, cancelled, or settled away *)

type event = {
  at : time;
  seq : int;
  action : unit -> unit;
  shard : int;
  mutable status : status;
}

type handle = event

type sync_stats = {
  shards : int;
  barriers : int;  (** synchronization windows opened *)
  cross_shard : int;  (** events routed through cross-shard channels *)
  local_fallbacks : int;
      (** tagged schedules that undercut the barrier and stayed on the
          executing shard (see DESIGN.md §14) *)
  fired_by_shard : int array;  (** events executed per shard *)
}

type t = {
  shards : int;
  shard_of : int -> int;
  lookahead : float;
  heaps : event Ccdb_util.Heap.t array;
  channels : event list array array;
      (* [channels.(src).(dst)]: events sent by shard [src] to shard [dst]
         during the current window, newest first *)
  mutable clock : time;
  mutable seq : int;
  mutable fired : int;
  fired_by_shard : int array;
  mutable barriers : int;
  mutable cross : int;
  mutable fallbacks : int;
  mutable current_shard : int;  (* executing event's shard; -1 at the root *)
  mutable barrier_at : float;  (* infinity outside a synchronization window *)
}

let compare_event a b =
  let c = compare a.at b.at in
  if c <> 0 then c else compare a.seq b.seq

let create ?(shards = 1) ?shard_of ?(lookahead = 0.) () =
  if shards < 1 then invalid_arg "Engine.create: shards must be >= 1";
  if shards > 1 && not (lookahead > 0.) then
    invalid_arg
      "Engine.create: a sharded engine needs a positive lookahead (the \
       minimum cross-site network latency)";
  let shard_of =
    match shard_of with
    | Some f -> fun site -> ((f site mod shards) + shards) mod shards
    | None -> fun site -> ((site mod shards) + shards) mod shards
  in
  { shards;
    shard_of;
    lookahead;
    heaps = Array.init shards (fun _ -> Ccdb_util.Heap.create ~cmp:compare_event);
    channels = Array.make_matrix shards shards [];
    clock = 0.;
    seq = 0;
    fired = 0;
    fired_by_shard = Array.make shards 0;
    barriers = 0;
    cross = 0;
    fallbacks = 0;
    current_shard = -1;
    barrier_at = infinity }

let now t = t.clock
let shards t = t.shards

let push_heap t shard ev =
  ev.status <- Heaped (Ccdb_util.Heap.push t.heaps.(shard) ev)

let schedule_at ?site t ~at action =
  (* negated so that a NaN time is refused rather than queued *)
  if not (at >= t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  let target =
    match site with
    | Some s -> t.shard_of s
    | None -> if t.current_shard >= 0 then t.current_shard else 0
  in
  let ev = { at; seq = t.seq; action; shard = target; status = Gone } in
  t.seq <- t.seq + 1;
  if t.shards = 1 then push_heap t 0 ev
  else begin
    let src = t.current_shard in
    if src >= 0 && target <> src then begin
      if at >= t.barrier_at then begin
        (* True cross-shard traffic: park in the (src, dst) channel until
           the barrier; the lookahead guarantees it cannot be due inside
           the current window. *)
        ev.status <- Channelled;
        t.channels.(src).(target) <- ev :: t.channels.(src).(target);
        t.cross <- t.cross + 1
      end
      else begin
        (* Undercuts the barrier: keep it on the executing shard, where it
           is immediately visible to the merge. *)
        t.fallbacks <- t.fallbacks + 1;
        push_heap t src ev
      end
    end
    else push_heap t target ev
  end;
  ev

let schedule ?site t ~after action =
  if not (after >= 0.) then invalid_arg "Engine.schedule: negative delay";
  schedule_at ?site t ~at:(t.clock +. after) action

let cancel t ev =
  match ev.status with
  | Heaped h ->
    ev.status <- Gone;
    ignore (Ccdb_util.Heap.remove t.heaps.(ev.shard) h);
    true
  | Channelled ->
    (* Lazily dropped at settlement. *)
    ev.status <- Gone;
    true
  | Gone -> false

(* Drain every channel into its destination heap.  Channels are settled in
   (src, dst) order and each entry list in send order; arrival order into a
   heap is irrelevant to the pop order (the heap sorts by (at, seq)), so
   settlement is deterministic by construction. *)
let settle_channels t =
  for src = 0 to t.shards - 1 do
    let row = t.channels.(src) in
    for dst = 0 to t.shards - 1 do
      match row.(dst) with
      | [] -> ()
      | entries ->
        row.(dst) <- [];
        List.iter
          (fun ev ->
            match ev.status with
            | Channelled -> push_heap t dst ev
            | Gone -> ()  (* cancelled in flight *)
            | Heaped _ -> assert false)
          (List.rev entries)
    done
  done

(* Index of the shard whose heap head is the global (at, seq) minimum. *)
let min_shard t =
  let best = ref (-1) in
  let best_ev = ref None in
  for s = 0 to t.shards - 1 do
    match Ccdb_util.Heap.peek t.heaps.(s) with
    | None -> ()
    | Some ev ->
      (match !best_ev with
       | None ->
         best := s;
         best_ev := Some ev
       | Some b -> if compare_event ev b < 0 then begin
           best := s;
           best_ev := Some ev
         end)
  done;
  if !best < 0 then None else Some (!best, Option.get !best_ev)

let fire t ev =
  ev.status <- Gone;
  t.clock <- ev.at;
  t.fired <- t.fired + 1;
  t.fired_by_shard.(ev.shard) <- t.fired_by_shard.(ev.shard) + 1;
  let prev = t.current_shard in
  t.current_shard <- ev.shard;
  ev.action ();
  t.current_shard <- prev

let step t =
  match min_shard t with
  | None -> false
  | Some (s, _) ->
    (match Ccdb_util.Heap.pop t.heaps.(s) with
     | None -> assert false
     | Some ev ->
       fire t ev;
       true)

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  if t.shards = 1 then begin
    (* Single-shard fast path: the plain heap loop, no windows. *)
    let queue = t.heaps.(0) in
    let continue = ref true in
    while !continue && !budget > 0 do
      match Ccdb_util.Heap.peek queue with
      | None -> continue := false
      | Some ev ->
        (match until with
         | Some horizon when ev.at > horizon ->
           t.clock <- max t.clock horizon;
           continue := false
         | _ ->
           (match Ccdb_util.Heap.pop queue with
            | Some ev -> fire t ev
            | None -> assert false);
           decr budget)
    done
  end
  else begin
    let continue = ref true in
    while !continue && !budget > 0 do
      (* Channels are empty here: each window settles before it closes. *)
      match min_shard t with
      | None -> continue := false
      | Some (_, head) ->
        (match until with
         | Some horizon when head.at > horizon ->
           t.clock <- max t.clock horizon;
           continue := false
         | _ ->
           (* Open a window [head.at, head.at +. lookahead): every event
              due before the barrier is heap-resident (cross-shard traffic
              carries >= lookahead of latency), so the k-way merge below
              fires them in exact global (at, seq) order. *)
           let barrier = head.at +. t.lookahead in
           t.barriers <- t.barriers + 1;
           t.barrier_at <- barrier;
           let in_window = ref true in
           while !in_window && !budget > 0 do
             match min_shard t with
             | Some (s, ev) when ev.at < barrier ->
               (match until with
                | Some horizon when ev.at > horizon ->
                  t.clock <- max t.clock horizon;
                  in_window := false;
                  continue := false
                | _ ->
                  (match Ccdb_util.Heap.pop t.heaps.(s) with
                   | Some ev -> fire t ev
                   | None -> assert false);
                  decr budget)
             | _ -> in_window := false
           done;
           t.barrier_at <- infinity;
           (* Settle on every exit path so no event is stranded in a
              channel across [run] calls. *)
           settle_channels t)
    done
  end

let pending t =
  let n = ref 0 in
  for s = 0 to t.shards - 1 do
    n := !n + Ccdb_util.Heap.length t.heaps.(s);
    Array.iter
      (List.iter (fun ev -> if ev.status = Channelled then incr n))
      t.channels.(s)
  done;
  !n

let processed t = t.fired

let sync_stats t =
  { shards = t.shards;
    barriers = t.barriers;
    cross_shard = t.cross;
    local_fallbacks = t.fallbacks;
    fired_by_shard = Array.copy t.fired_by_shard }
