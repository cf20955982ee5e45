(* Tests for Ccdb_sim: Engine and Net. *)

let check = Alcotest.check

(* --- Engine ------------------------------------------------------------- *)

let test_engine_order () =
  let e = Ccdb_sim.Engine.create () in
  let trace = ref [] in
  let record tag () = trace := tag :: !trace in
  ignore (Ccdb_sim.Engine.schedule e ~after:3. (record "c"));
  ignore (Ccdb_sim.Engine.schedule e ~after:1. (record "a"));
  ignore (Ccdb_sim.Engine.schedule e ~after:2. (record "b"));
  Ccdb_sim.Engine.run e;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ]
    (List.rev !trace);
  check (Alcotest.float 1e-9) "clock" 3. (Ccdb_sim.Engine.now e)

let test_engine_fifo_ties () =
  let e = Ccdb_sim.Engine.create () in
  let trace = ref [] in
  for i = 1 to 5 do
    ignore
      (Ccdb_sim.Engine.schedule e ~after:1. (fun () -> trace := i :: !trace))
  done;
  Ccdb_sim.Engine.run e;
  check (Alcotest.list Alcotest.int) "schedule order" [ 1; 2; 3; 4; 5 ]
    (List.rev !trace)

let test_engine_nested_schedule () =
  let e = Ccdb_sim.Engine.create () in
  let trace = ref [] in
  ignore
    (Ccdb_sim.Engine.schedule e ~after:1. (fun () ->
         trace := "outer" :: !trace;
         ignore
           (Ccdb_sim.Engine.schedule e ~after:1. (fun () ->
                trace := "inner" :: !trace))));
  Ccdb_sim.Engine.run e;
  check (Alcotest.list Alcotest.string) "nested" [ "outer"; "inner" ]
    (List.rev !trace);
  check (Alcotest.float 1e-9) "clock" 2. (Ccdb_sim.Engine.now e)

let test_engine_cancel () =
  let e = Ccdb_sim.Engine.create () in
  let fired = ref false in
  let h = Ccdb_sim.Engine.schedule e ~after:1. (fun () -> fired := true) in
  check Alcotest.bool "cancelled" true (Ccdb_sim.Engine.cancel e h);
  check Alcotest.bool "idempotent" false (Ccdb_sim.Engine.cancel e h);
  (* the next event takes the cancelled event's slot; the old handle
     still names the cancelled event, not this one *)
  let reused = ref false in
  ignore (Ccdb_sim.Engine.schedule e ~after:2. (fun () -> reused := true));
  check Alcotest.bool "spent handle refused" false (Ccdb_sim.Engine.cancel e h);
  check Alcotest.bool "never a handle" false (Ccdb_sim.Engine.cancel e (-1));
  check Alcotest.bool "a free slot's int" false (Ccdb_sim.Engine.cancel e 5);
  check Alcotest.int "slot's new event queued" 1 (Ccdb_sim.Engine.pending e);
  Ccdb_sim.Engine.run e;
  check Alcotest.bool "not fired" false !fired;
  check Alcotest.bool "new event fired" true !reused

(* A handle is an int and the heap moves only ints and unboxed times, so
   scheduling a closure the caller already holds and firing it allocate
   nothing but the clock's new box, 2 words. *)
let test_engine_allocation () =
  let e = Ccdb_sim.Engine.create () in
  let hits = ref 0 in
  let action () = incr hits in
  (* grow the heap first *)
  for _ = 1 to 64 do
    ignore (Ccdb_sim.Engine.schedule e ~after:1. action)
  done;
  Ccdb_sim.Engine.run e;
  let n = 10_000 in
  (* boxed up front, as the times callers pass usually are *)
  let times = Array.init n (fun i -> Some (float_of_int (i + 2))) in
  let before = Gc.minor_words () in
  Array.iter
    (function
      | Some at ->
        ignore (Ccdb_sim.Engine.schedule_at e ~at action);
        ignore (Ccdb_sim.Engine.step e)
      | None -> ())
    times;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check Alcotest.int "fired" (n + 64) !hits;
  if words > 2.01 then
    Alcotest.failf "schedule_at and firing allocated %.2f words" words

let test_engine_until () =
  let e = Ccdb_sim.Engine.create () in
  let fired = ref [] in
  ignore (Ccdb_sim.Engine.schedule e ~after:1. (fun () -> fired := 1 :: !fired));
  ignore (Ccdb_sim.Engine.schedule e ~after:5. (fun () -> fired := 5 :: !fired));
  Ccdb_sim.Engine.run ~until:2. e;
  check (Alcotest.list Alcotest.int) "only early" [ 1 ] (List.rev !fired);
  check (Alcotest.float 1e-9) "clamped clock" 2. (Ccdb_sim.Engine.now e);
  check Alcotest.int "pending" 1 (Ccdb_sim.Engine.pending e);
  Ccdb_sim.Engine.run e;
  check (Alcotest.list Alcotest.int) "rest" [ 1; 5 ] (List.rev !fired)

let test_engine_max_events () =
  let e = Ccdb_sim.Engine.create () in
  for i = 1 to 10 do
    ignore (Ccdb_sim.Engine.schedule e ~after:(float_of_int i) ignore)
  done;
  Ccdb_sim.Engine.run ~max_events:4 e;
  check Alcotest.int "processed" 4 (Ccdb_sim.Engine.processed e);
  check Alcotest.int "pending" 6 (Ccdb_sim.Engine.pending e)

let test_engine_negative_delay () =
  let e = Ccdb_sim.Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Ccdb_sim.Engine.schedule e ~after:(-1.) ignore))

let test_engine_past_schedule_at () =
  let e = Ccdb_sim.Engine.create () in
  ignore (Ccdb_sim.Engine.schedule e ~after:5. ignore);
  Ccdb_sim.Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Ccdb_sim.Engine.schedule_at e ~at:1. ignore))

(* NaN compares false with everything, so the guards are written to fail
   it: a NaN time must be refused, not queued where it would never fire in
   order. *)
let test_engine_nan_times () =
  let e = Ccdb_sim.Engine.create () in
  Alcotest.check_raises "nan delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Ccdb_sim.Engine.schedule e ~after:nan ignore));
  Alcotest.check_raises "nan time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Ccdb_sim.Engine.schedule_at e ~at:nan ignore));
  check Alcotest.int "nothing queued" 0 (Ccdb_sim.Engine.pending e)

let test_engine_step () =
  let e = Ccdb_sim.Engine.create () in
  check Alcotest.bool "empty step" false (Ccdb_sim.Engine.step e);
  ignore (Ccdb_sim.Engine.schedule e ~after:1. ignore);
  check Alcotest.bool "step" true (Ccdb_sim.Engine.step e);
  check Alcotest.bool "drained" false (Ccdb_sim.Engine.step e)

(* A sorted batch takes one block of sequence numbers at the call, so its
   members keep their place among ties scheduled before and after it, and
   the members not yet in the heap still count as pending. *)
let test_engine_schedule_all () =
  let e = Ccdb_sim.Engine.create () in
  let trace = ref [] in
  let record tag () = trace := tag :: !trace in
  ignore (Ccdb_sim.Engine.schedule_at e ~at:2. (record "x"));
  Ccdb_sim.Engine.schedule_all e
    [ (1., record "a"); (2., record "b"); (2., record "c") ];
  ignore (Ccdb_sim.Engine.schedule_at e ~at:2. (record "y"));
  check Alcotest.int "pending" 5 (Ccdb_sim.Engine.pending e);
  Ccdb_sim.Engine.run ~max_events:1 e;
  check Alcotest.int "pending after one" 4 (Ccdb_sim.Engine.pending e);
  Ccdb_sim.Engine.run e;
  check (Alcotest.list Alcotest.string) "order" [ "a"; "x"; "b"; "c"; "y" ]
    (List.rev !trace)

let test_engine_schedule_all_rejects () =
  let e = Ccdb_sim.Engine.create () in
  ignore (Ccdb_sim.Engine.schedule e ~after:5. ignore);
  Ccdb_sim.Engine.run e;
  let fired = ref false in
  let f () = fired := true in
  List.iter
    (fun (what, batch) ->
      Alcotest.check_raises what
        (Invalid_argument "Engine.schedule_all: time in the past") (fun () ->
          Ccdb_sim.Engine.schedule_all e batch))
    [ ("past", [ (6., f); (7., f); (1., f) ]);
      ("nan", [ (6., f); (nan, f); (7., f) ]);
      ("unsorted past", [ (7., f); (6., f); (4., f) ]) ];
  check Alcotest.int "nothing queued" 0 (Ccdb_sim.Engine.pending e);
  Ccdb_sim.Engine.run e;
  check Alcotest.bool "nothing fired" false !fired

(* A key reserved now and pushed later fires where an event scheduled at
   the reservation would have: before a tie scheduled in between.  A key
   never pushed costs nothing, and a push is refused for a past or NaN
   time and for a key never reserved. *)
let test_engine_schedule_reserved () =
  let e = Ccdb_sim.Engine.create () in
  let trace = ref [] in
  let record tag () = trace := tag :: !trace in
  let seq = Ccdb_sim.Engine.reserve e 1 in
  ignore (Ccdb_sim.Engine.schedule_at e ~at:5. (record "younger tie"));
  ignore
    (Ccdb_sim.Engine.schedule_at e ~at:2. (fun () ->
         ignore
           (Ccdb_sim.Engine.schedule_reserved e ~at:5. ~seq (record "reserved"))));
  let unused = Ccdb_sim.Engine.reserve e 1 in
  check Alcotest.int "reserving none draws nothing" (unused + 1)
    (Ccdb_sim.Engine.reserve e 0);
  check Alcotest.int "pending" 2 (Ccdb_sim.Engine.pending e);
  Ccdb_sim.Engine.run e;
  check (Alcotest.list Alcotest.string) "order" [ "reserved"; "younger tie" ]
    (List.rev !trace);
  check Alcotest.int "processed" 3 (Ccdb_sim.Engine.processed e);
  let refused what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let past = "Engine.schedule_reserved: time in the past" in
  let unreserved = "Engine.schedule_reserved: key not reserved" in
  refused "past" past (fun () ->
      Ccdb_sim.Engine.schedule_reserved e ~at:4. ~seq:unused ignore);
  refused "nan" past (fun () ->
      Ccdb_sim.Engine.schedule_reserved e ~at:nan ~seq:unused ignore);
  refused "never reserved" unreserved (fun () ->
      Ccdb_sim.Engine.schedule_reserved e ~at:9. ~seq:(unused + 1) ignore);
  refused "negative key" unreserved (fun () ->
      Ccdb_sim.Engine.schedule_reserved e ~at:9. ~seq:(-1) ignore);
  refused "negative count" "Engine.reserve: negative count" (fun () ->
      Ccdb_sim.Engine.reserve e (-1));
  check Alcotest.int "nothing queued" 0 (Ccdb_sim.Engine.pending e)

(* Neither the heap nor a handle the caller keeps may hold a fired or
   cancelled event's closure while other events are still queued.  Each
   [probe] closure is reachable only through the engine, its handle (kept
   here, as a caller keeps a retransmission timer) and a weak pointer.
   Half of 32 events fire and a quarter are cancelled, in a scrambled heap
   layout. *)
let[@inline never] probe e weak slot =
  let hits = ref 0 in
  let action () = incr hits in
  Weak.set weak slot (Some action);
  Ccdb_sim.Engine.schedule_at e ~at:(float_of_int (slot + 1)) action

let test_engine_releases_closures () =
  let e = Ccdb_sim.Engine.create () in
  let n = 32 in
  let weak = Weak.create n in
  let slot_of i = i * 7 mod n in
  let handles = Array.init n (fun i -> probe e weak (slot_of i)) in
  Ccdb_sim.Engine.run ~max_events:(n / 2) e;
  let cancelled slot = slot >= n / 2 && slot mod 2 = 0 in
  let queued slot = slot >= n / 2 && not (cancelled slot) in
  Array.iteri
    (fun i h ->
      if cancelled (slot_of i) then
        check Alcotest.bool "cancel" true (Ccdb_sim.Engine.cancel e h))
    handles;
  check Alcotest.int "others still queued" (n / 4) (Ccdb_sim.Engine.pending e);
  Gc.full_major ();
  for slot = 0 to n - 1 do
    check Alcotest.bool
      (Printf.sprintf "closure %d reachable iff queued" slot)
      (queued slot) (Weak.check weak slot)
  done;
  (* the engine and the handles outlive the collection *)
  Array.iteri
    (fun i h ->
      if not (queued (slot_of i)) then
        check Alcotest.bool "spent handle refused" false
          (Ccdb_sim.Engine.cancel e h))
    handles;
  Ccdb_sim.Engine.run e;
  check Alcotest.int "the rest fire" (n - (n / 4)) (Ccdb_sim.Engine.processed e)

(* --- Engine fuzzer ------------------------------------------------------- *)

(* The executable spec of the engine: a sorted list of pending events,
   fired head first.  Keys come from one counter, drawn at schedule time
   or reserved for a later push, and a new event goes after every queued
   event whose (time, key) is smaller. *)
module Reference = struct
  type event = {
    at : float;
    seq : int;
    action : unit -> unit;
    mutable queued : bool;
  }

  type t = {
    mutable clock : float;
    mutable queue : event list;
    mutable fired : int;
    mutable next : int;
  }

  type handle = event

  let create () = { clock = 0.; queue = []; fired = 0; next = 0 }
  let now t = t.clock

  let reserve t n =
    let seq = t.next in
    t.next <- seq + n;
    seq

  let schedule_reserved t ~at ~seq action =
    let ev = { at; seq; action; queued = true } in
    let rec insert = function
      | e :: rest when e.at < at || (e.at = at && e.seq < seq) ->
        e :: insert rest
      | rest -> ev :: rest
    in
    t.queue <- insert t.queue;
    ev

  let schedule_at t ~at action =
    schedule_reserved t ~at ~seq:(reserve t 1) action

  let schedule t ~after action = schedule_at t ~at:(t.clock +. after) action

  let schedule_all t batch =
    List.iter (fun (at, action) -> ignore (schedule_at t ~at action)) batch

  let cancel t ev =
    ev.queued
    && begin
      ev.queued <- false;
      t.queue <- List.filter (fun e -> e != ev) t.queue;
      true
    end

  let rec run ?until ?(max_events = max_int) t =
    match t.queue with
    | ev :: rest when max_events > 0 -> (
      match until with
      | Some horizon when ev.at > horizon -> t.clock <- max t.clock horizon
      | _ ->
        t.queue <- rest;
        ev.queued <- false;
        t.clock <- ev.at;
        t.fired <- t.fired + 1;
        ev.action ();
        run ?until ~max_events:(max_events - 1) t)
    | _ -> ()

  let pending t = List.length t.queue
  let processed t = t.fired
end

module type ENGINE = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> float
  val schedule : t -> after:float -> (unit -> unit) -> handle
  val schedule_at : t -> at:float -> (unit -> unit) -> handle
  val schedule_all : t -> (float * (unit -> unit)) list -> unit
  val reserve : t -> int -> int
  val schedule_reserved : t -> at:float -> seq:int -> (unit -> unit) -> handle
  val cancel : t -> handle -> bool
  val run : ?until:float -> ?max_events:int -> t -> unit
  val pending : t -> int
  val processed : t -> int
end

(* How a script's run is driven: in one call, split at [until] horizons,
   or in slices of [max_events]. *)
type drive = One_shot | Split of float list | Sliced of int

(* One random script: seed events that recursively schedule children with
   [schedule] (integer delays included, so same-instant ties are common),
   [schedule_at], keys reserved now and pushed later (by an event due
   before the child, at once, or never), and events cancelled before they
   fire.  The seeds are scheduled one by one around a random batch, and
   one event schedules a second batch as it fires.  A batch is empty,
   sorted by time with equal-time runs, or in random order.  Returns the
   firing log (time, id, pending), the fired count, the final clock and,
   under [Sliced], the pending count after each slice. *)
module Script (E : ENGINE) = struct
  let run ~seed drive =
    let eng = E.create () in
    let rng = Ccdb_util.Rng.create ~seed in
    let log = ref [] in
    let fired_handles = ref [] in
    let spent = ref [] in (* fired or cancelled, newest first *)
    let next_id = ref 0 in
    let budget = ref 120 in
    let inner_batch = ref true in
    let fresh () =
      let id = !next_id in
      incr next_id;
      id
    in
    let rec batch ~from =
      let times n =
        List.init n (fun _ -> from +. float_of_int (Ccdb_util.Rng.int rng 8))
      in
      let times =
        match Ccdb_util.Rng.int rng 3 with
        | 0 -> []
        | 1 -> List.sort Float.compare (times (1 + Ccdb_util.Rng.int rng 6))
        | _ -> times (1 + Ccdb_util.Rng.int rng 6)
      in
      List.map (fun at -> (at, node (fresh ()))) times
    and node id () =
      log := (E.now eng, id, E.pending eng) :: !log;
      (* a spent handle is refused, even once a queued event has taken
         its slot, and leaves that event queued *)
      (match !spent with
       | h :: rest when Ccdb_util.Rng.int rng 2 = 0 ->
         spent := rest;
         let pending = E.pending eng in
         check Alcotest.bool "spent handle refused" false (E.cancel eng h);
         check Alcotest.int "spent handle cancelled nothing" pending
           (E.pending eng)
       | _ -> ());
      if !inner_batch && !budget < 60 then begin
        inner_batch := false;
        E.schedule_all eng (batch ~from:(E.now eng))
      end;
      if !budget > 0 then
        for _ = 1 to Ccdb_util.Rng.int rng 3 do
          if !budget > 0 then begin
            decr budget;
            let child = node (fresh ()) in
            match Ccdb_util.Rng.int rng 5 with
            | 0 ->
              ignore
                (E.schedule eng ~after:(Ccdb_util.Rng.float rng 30.) child)
            | 1 ->
              let after = float_of_int (Ccdb_util.Rng.int rng 4) in
              let self = ref None in
              let h =
                E.schedule eng ~after (fun () ->
                    Option.iter (fun h -> spent := h :: !spent) !self;
                    child ())
              in
              self := Some h;
              fired_handles := h :: !fired_handles
            | 2 ->
              ignore
                (E.schedule_at eng
                   ~at:(E.now eng +. Ccdb_util.Rng.float rng 20.)
                   child)
            | 3 -> (
              let now = E.now eng in
              let at = now +. float_of_int (Ccdb_util.Rng.int rng 6) in
              let seq = E.reserve eng 1 in
              let push () = ignore (E.schedule_reserved eng ~at ~seq child) in
              match Ccdb_util.Rng.int rng 3 with
              | 0 -> push ()
              | 1 when at > now ->
                ignore
                  (E.schedule_at eng
                     ~at:(now +. Ccdb_util.Rng.float rng (at -. now))
                     push)
              | _ -> ())
            | _ ->
              let h =
                E.schedule eng ~after:(Ccdb_util.Rng.float rng 20.) (fun () ->
                    Alcotest.fail "cancelled event fired")
              in
              check Alcotest.bool "cancel accepted" true (E.cancel eng h);
              check Alcotest.bool "second cancel refused" false
                (E.cancel eng h);
              spent := h :: !spent;
              ignore
                (E.schedule eng ~after:(Ccdb_util.Rng.float rng 10.) child)
          end
        done
    in
    let seed_one () =
      ignore
        (E.schedule_at eng
           ~at:(float_of_int (Ccdb_util.Rng.int rng 50))
           (node (fresh ())))
    in
    seed_one ();
    seed_one ();
    E.schedule_all eng (batch ~from:(float_of_int (Ccdb_util.Rng.int rng 30)));
    seed_one ();
    seed_one ();
    let slices = ref [] in
    (match drive with
     | One_shot -> E.run eng
     | Split horizons ->
       List.iter (fun until -> E.run ~until eng) horizons;
       E.run eng
     | Sliced n ->
       (* stops when a slice fires nothing, so a miscounted [pending]
          fails the drain check below instead of spinning *)
       let progress = ref true in
       while !progress && E.pending eng > 0 do
         let before = E.processed eng in
         E.run ~max_events:n eng;
         slices := E.pending eng :: !slices;
         progress := E.processed eng > before
       done);
    check Alcotest.int "drained" 0 (E.pending eng);
    List.iter
      (fun h ->
        check Alcotest.bool "fired event not cancellable" false
          (E.cancel eng h))
      !fired_handles;
    (List.rev !log, E.processed eng, E.now eng, List.rev !slices)
end

module Real = Script (Ccdb_sim.Engine)
module Spec = Script (Reference)

let test_engine_fuzz () =
  for seed = 1 to 1000 do
    let log, fired, clock, _ = Spec.run ~seed One_shot in
    let horizons = [ float_of_int (seed mod 37); float_of_int (seed mod 91) ] in
    List.iter
      (fun (what, drive) ->
        let spec = Spec.run ~seed drive in
        if Real.run ~seed drive <> spec then
          Alcotest.failf "script %d diverged from the reference (%s)" seed
            what;
        let log', fired', clock', _ = spec in
        if log' <> log || fired' <> fired || clock' <> clock then
          Alcotest.failf "script %d: the reference %s run diverged" seed what)
      [ ("one shot", One_shot);
        ("split at ~until", Split horizons);
        ("sliced by ~max_events", Sliced (1 + (seed mod 7))) ]
  done

(* --- Net ---------------------------------------------------------------- *)

let make_net ?(sites = 3) ?(jitter = 0.) () =
  let e = Ccdb_sim.Engine.create () in
  let rng = Ccdb_util.Rng.create ~seed:1 in
  let net = Ccdb_sim.Net.create e rng ~sites { base_delay = 10.; jitter } in
  (e, net)

let test_net_delivery_delay () =
  let e, net = make_net () in
  let delivered_at = ref (-1.) in
  Ccdb_sim.Net.send net ~src:0 ~dst:1 ~kind:"m" (fun () ->
      delivered_at := Ccdb_sim.Engine.now e);
  Ccdb_sim.Engine.run e;
  check (Alcotest.float 1e-9) "base delay" 10. !delivered_at

let test_net_local_delay () =
  let e, net = make_net () in
  let delivered_at = ref (-1.) in
  Ccdb_sim.Net.send net ~src:2 ~dst:2 ~kind:"m" (fun () ->
      delivered_at := Ccdb_sim.Engine.now e);
  Ccdb_sim.Engine.run e;
  check (Alcotest.float 1e-9) "local delay" 0.1 !delivered_at

let test_net_counts () =
  let e, net = make_net () in
  Ccdb_sim.Net.send net ~src:0 ~dst:1 ~kind:"a" ignore;
  Ccdb_sim.Net.send net ~src:0 ~dst:1 ~kind:"a" ignore;
  Ccdb_sim.Net.send net ~src:1 ~dst:0 ~kind:"b" ignore;
  (* a kind is counted by its contents, not by which string carries them *)
  Ccdb_sim.Net.send net ~src:1 ~dst:0 ~kind:(String.make 1 'a') ignore;
  Ccdb_sim.Net.send net ~src:0 ~dst:1 ~kind:(String.make 1 'b') ignore;
  Ccdb_sim.Net.send net ~src:0 ~dst:1 ~kind:"a" ignore;
  Ccdb_sim.Engine.run e;
  check Alcotest.int "total" 6 (Ccdb_sim.Net.messages_sent net);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "by kind"
    [ ("a", 4); ("b", 2) ]
    (Ccdb_sim.Net.messages_by_kind net)

let test_net_fifo_per_channel () =
  (* with jitter, later sends could overtake earlier ones; the channel must
     stay FIFO *)
  let e, net = make_net ~jitter:8. () in
  let trace = ref [] in
  for i = 1 to 20 do
    Ccdb_sim.Net.send net ~src:0 ~dst:1 ~kind:"m" (fun () ->
        trace := i :: !trace)
  done;
  Ccdb_sim.Engine.run e;
  check (Alcotest.list Alcotest.int) "fifo" (List.init 20 (fun i -> i + 1))
    (List.rev !trace)

let test_net_bad_site () =
  let _, net = make_net () in
  Alcotest.check_raises "range" (Invalid_argument "Net.send: site out of range")
    (fun () -> Ccdb_sim.Net.send net ~src:0 ~dst:9 ~kind:"m" ignore)

let suites =
  [ ( "sim.engine",
      [ Alcotest.test_case "time order" `Quick test_engine_order;
        Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "schedule and fire allocate only the clock" `Quick
          test_engine_allocation;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "max events" `Quick test_engine_max_events;
        Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
        Alcotest.test_case "schedule in past" `Quick test_engine_past_schedule_at;
        Alcotest.test_case "nan times" `Quick test_engine_nan_times;
        Alcotest.test_case "step" `Quick test_engine_step;
        Alcotest.test_case "schedule_all order" `Quick test_engine_schedule_all;
        Alcotest.test_case "reserved keys" `Quick
          test_engine_schedule_reserved;
        Alcotest.test_case "schedule_all rejects" `Quick
          test_engine_schedule_all_rejects;
        Alcotest.test_case "fired and cancelled closures released" `Quick
          test_engine_releases_closures;
        Alcotest.test_case "1000-script fuzz vs sorted-list reference" `Quick
          test_engine_fuzz ] );
    ( "sim.net",
      [ Alcotest.test_case "remote delay" `Quick test_net_delivery_delay;
        Alcotest.test_case "local delay" `Quick test_net_local_delay;
        Alcotest.test_case "message counts" `Quick test_net_counts;
        Alcotest.test_case "fifo per channel" `Quick test_net_fifo_per_channel;
        Alcotest.test_case "bad site" `Quick test_net_bad_site ] ) ]
