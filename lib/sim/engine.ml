(* Discrete-event engine: one binary heap of events ordered by (time, seq).

   [seq] is allocated from one counter at schedule time, so events due at
   the same instant fire in schedule order and a run is a function of its
   schedule calls alone.  A handle is the heap's own handle: cancelling an
   event removes it from the heap. *)

type time = float

type event = { at : time; seq : int; action : unit -> unit }

type handle = Ccdb_util.Heap.handle

type t = {
  queue : event Ccdb_util.Heap.t;
  mutable clock : time;
  mutable seq : int;
  mutable fired : int;
}

let compare_event a b =
  let c = Float.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  { queue = Ccdb_util.Heap.create ~cmp:compare_event;
    clock = 0.;
    seq = 0;
    fired = 0 }

let now t = t.clock

let schedule_at t ~at action =
  (* negated so that a NaN time is refused rather than queued *)
  if not (at >= t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  let ev = { at; seq = t.seq; action } in
  t.seq <- t.seq + 1;
  Ccdb_util.Heap.push t.queue ev

let schedule t ~after action =
  if not (after >= 0.) then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock +. after) action

let cancel t h = Ccdb_util.Heap.remove t.queue h

let fire t ev =
  t.clock <- ev.at;
  t.fired <- t.fired + 1;
  ev.action ()

let step t =
  match Ccdb_util.Heap.pop t.queue with
  | None -> false
  | Some ev ->
    fire t ev;
    true

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue = ref true in
  while !continue && !budget > 0 do
    match Ccdb_util.Heap.peek t.queue with
    | None -> continue := false
    | Some ev ->
      (match until with
       | Some horizon when ev.at > horizon ->
         t.clock <- max t.clock horizon;
         continue := false
       | _ ->
         ignore (Ccdb_util.Heap.pop t.queue);
         fire t ev;
         decr budget)
  done

let pending t = Ccdb_util.Heap.length t.queue

let processed t = t.fired
