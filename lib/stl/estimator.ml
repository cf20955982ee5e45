module Rt = Ccdb_protocols.Runtime

(* prior lock hold time U of every protocol before any observation: the
   scale of one round trip plus compute in the default network *)
let prior_hold_time = 30.

type source = Cumulative | Windowed of float

(* Trailing-window sums for the [Windowed] source: the window is split into
   [w_slots] fixed buckets keyed by absolute slot number; advancing past a
   boundary zeroes the slots skipped, so a sum sees only what was added in
   (at most) the last [window * (1 + 1/w_slots)] time units.  O(1) per
   update, fully deterministic in simulated time.  Counts are added as
   floats too: sums of integers below 2^53 are exact. *)
let w_slots = 8

type ring = {
  slot_width : float;
  slots : float array;
  mutable head_epoch : int; (* absolute slot number the head covers *)
}

let ring_make ~window =
  { slot_width = window /. float_of_int w_slots;
    slots = Array.make w_slots 0.;
    head_epoch = 0 }

let ring_advance r ~now =
  let epoch = int_of_float (now /. r.slot_width) in
  if epoch > r.head_epoch then begin
    let skip = min w_slots (epoch - r.head_epoch) in
    for i = 1 to skip do
      r.slots.((r.head_epoch + i) mod w_slots) <- 0.
    done;
    r.head_epoch <- epoch
  end

let ring_add r ~now x =
  ring_advance r ~now;
  let i = r.head_epoch mod w_slots in
  r.slots.(i) <- r.slots.(i) +. x

let ring_sum r ~now =
  ring_advance r ~now;
  Array.fold_left ( +. ) 0. r.slots

(* The five failure probabilities, one slot each: the 2PL abort, then the
   T/O rejection and the PA back-off of a read and of a write. *)
let n_probs = 5
let two_pl_abort = 0
let to_reject = function Ccdb_model.Op.Read -> 1 | Ccdb_model.Op.Write -> 2
let pa_backoff = function Ccdb_model.Op.Read -> 3 | Ccdb_model.Op.Write -> 4

(* everything the sliding-window source tracks on top of the cumulative
   counters; rates, Qr, k and the failure probabilities are then computed
   from these sums instead of the whole-run totals *)
type windowed = {
  window : float;
  wg : (int * int, ring * ring) Hashtbl.t; (* per-copy (reads, writes) *)
  wg_read : ring;
  wg_write : ring;
  wc_commits : ring;
  wc_requests : ring;
  wp : (ring * ring) array; (* per probability slot: (failures, trials) *)
  (* successful hold times by [Protocol.rank]: (time sum, count); the
     [_all] pair aggregates across protocols *)
  wh : (ring * ring) array;
  wh_all_sum : ring;
  wh_all_count : ring;
}

(* Exponential moving averages track the current regime instead of the whole
   history, so the selector reacts when the load changes. *)
let alpha = 0.05

type ema = { mutable value : float; mutable initialised : bool }

let ema_make () = { value = 0.; initialised = false }

let ema_add e x =
  if e.initialised then e.value <- e.value +. (alpha *. (x -. e.value))
  else begin
    e.value <- x;
    e.initialised <- true
  end

let ema_get ~prior e = if e.initialised then e.value else prior

type snapshot = {
  params : Stl_model.params;
  rates : Txn_cost.rates;
  two_pl : Txn_cost.two_pl_stats;
  t_o : Txn_cost.to_stats;
  pa : Txn_cost.pa_stats;
  response_time : Ccdb_model.Protocol.t -> float;
      (** mean observed system time per protocol (EMA), for the
          response-time selection criterion the paper's section 5.1
          rejects; equals [2 * prior_hold_time] before any observation *)
}

type t = {
  rt : Rt.t;
  win : windowed option; (* Some iff the source is [Windowed] *)
  created_at : float;
  mutable seen : int; (* events observed, to date a snapshot *)
  (* per-copy grant counts: (reads, writes) *)
  copy_grants : (int * int, int ref * int ref) Hashtbl.t;
  mutable grants_read : int;
  mutable grants_write : int;
  (* lock hold times by [Protocol.rank], of successful and of aborted
     attempts *)
  hold : ema array;
  hold_aborted : ema array;
  (* failure probabilities as EMAs of per-request (or per-attempt for 2PL)
     failure indicators, by slot *)
  probs : ema array;
  (* mean system time by [Protocol.rank] *)
  response : ema array;
  mutable commits : int;
  mutable committed_requests : int;
}

let rank = Ccdb_model.Protocol.rank

let by_protocol make =
  Array.init (List.length Ccdb_model.Protocol.all) (fun _ -> make ())

let prob_observe t slot outcome =
  ema_add t.probs.(slot) (if outcome then 1. else 0.);
  match t.win with
  | None -> ()
  | Some w ->
    let failures, trials = w.wp.(slot) in
    let now = Rt.now t.rt in
    ring_add trials ~now 1.;
    if outcome then ring_add failures ~now 1.

(* Pseudo-count weight of the cumulative estimate inside a windowed
   probability.  Failure events (deadlocks, rejections) are rare relative
   to a window, so a raw windowed ratio reads 0/valid-trials most of the
   time and the selector forgets that a protocol just burned it — then
   routes traffic back, observes fresh failures, forgets again: a flapping
   loop.  Shrinking the windowed counts towards the cumulative EMA with
   [shrinkage] prior trials keeps the estimate adaptive (window counts
   dominate once the window holds more than [shrinkage] trials) without
   rare-event amnesia. *)
let shrinkage = 8.

(* windowed failure ratio shrunk towards the cumulative EMA; the EMA alone
   for a drained window (it says nothing, not "no conflicts") *)
let prob_get t slot =
  let cumulative = ema_get ~prior:0. t.probs.(slot) in
  match t.win with
  | None -> cumulative
  | Some w ->
    let failures, trials = w.wp.(slot) in
    let now = Rt.now t.rt in
    let n = ring_sum trials ~now in
    if n = 0. then cumulative
    else
      (ring_sum failures ~now +. (shrinkage *. cumulative)) /. (n +. shrinkage)

let on_event t event =
  t.seen <- t.seen + 1;
  match event with
  | Rt.Lock_granted { protocol; op; item; site; _ } ->
    let reads, writes =
      match Hashtbl.find_opt t.copy_grants (item, site) with
      | Some cell -> cell
      | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.add t.copy_grants (item, site) cell;
        cell
    in
    (match op with
     | Ccdb_model.Op.Read ->
       incr reads;
       t.grants_read <- t.grants_read + 1
     | Ccdb_model.Op.Write ->
       incr writes;
       t.grants_write <- t.grants_write + 1);
    (match t.win with
     | None -> ()
     | Some w ->
       let wreads, wwrites =
         match Hashtbl.find_opt w.wg (item, site) with
         | Some cell -> cell
         | None ->
           let cell =
             (ring_make ~window:w.window, ring_make ~window:w.window)
           in
           Hashtbl.add w.wg (item, site) cell;
           cell
       in
       let now = Rt.now t.rt in
       (match op with
        | Ccdb_model.Op.Read ->
          ring_add wreads ~now 1.;
          ring_add w.wg_read ~now 1.
        | Ccdb_model.Op.Write ->
          ring_add wwrites ~now 1.;
          ring_add w.wg_write ~now 1.));
    (* a grant is a request that was not rejected / backed off *)
    (match protocol with
     | Ccdb_model.Protocol.T_o -> prob_observe t (to_reject op) false
     | Ccdb_model.Protocol.Pa -> prob_observe t (pa_backoff op) false
     | Ccdb_model.Protocol.Two_pl -> ())
  | Rt.Lock_released { protocol; granted_at; at; aborted; _ } ->
    ema_add
      (if aborted then t.hold_aborted else t.hold).(rank protocol)
      (at -. granted_at);
    (match t.win with
     | None -> ()
     | Some _ when aborted -> ()
     | Some w ->
       let sum, count = w.wh.(rank protocol) in
       let now = Rt.now t.rt in
       ring_add sum ~now (at -. granted_at);
       ring_add count ~now 1.;
       ring_add w.wh_all_sum ~now (at -. granted_at);
       ring_add w.wh_all_count ~now 1.)
  | Rt.Txn_committed { txn; submitted_at; executed_at; restarts = _ } ->
    let size = Ccdb_model.Txn.size txn in
    t.commits <- t.commits + 1;
    t.committed_requests <- t.committed_requests + size;
    (match t.win with
     | None -> ()
     | Some w ->
       let now = Rt.now t.rt in
       ring_add w.wc_commits ~now 1.;
       ring_add w.wc_requests ~now (float_of_int size));
    ema_add t.response.(rank txn.protocol) (executed_at -. submitted_at);
    (match txn.protocol with
     | Ccdb_model.Protocol.Two_pl -> prob_observe t two_pl_abort false
     | Ccdb_model.Protocol.T_o | Ccdb_model.Protocol.Pa -> ())
  | Rt.Txn_restarted { reason; _ } ->
    (match reason with
     | Rt.Deadlock_victim | Rt.Prevention_kill ->
       prob_observe t two_pl_abort true
     | Rt.To_rejected op -> prob_observe t (to_reject op) true
     (* crash-triggered restarts say nothing about data contention *)
     | Rt.Site_failure -> ())
  | Rt.Pa_backoff { op; _ } -> prob_observe t (pa_backoff op) true
  | Rt.Lock_requested _ | Rt.Lock_promoted _ | Rt.Lock_transformed _
  | Rt.Request_withdrawn _ | Rt.Ts_updated _ | Rt.Deadlock_detected _
  | Rt.Site_crashed _ | Rt.Site_recovered _ | Rt.Request_dropped _
  | Rt.Site_wiped _ | Rt.Wal_replayed _ | Rt.Prepared _
  | Rt.Decision_logged _ | Rt.Acceptor_promised _ | Rt.Acceptor_accepted _
  | Rt.Op_implemented _ | Rt.Reads_discarded _ -> ()

let create ?(source = Cumulative) rt =
  let win =
    match source with
    | Cumulative -> None
    | Windowed window ->
      if window <= 0. then invalid_arg "Estimator.create: window <= 0";
      Some
        { window; wg = Hashtbl.create 128;
          wg_read = ring_make ~window; wg_write = ring_make ~window;
          wc_commits = ring_make ~window; wc_requests = ring_make ~window;
          wp =
            Array.init n_probs (fun _ ->
                (ring_make ~window, ring_make ~window));
          wh =
            by_protocol (fun () -> (ring_make ~window, ring_make ~window));
          wh_all_sum = ring_make ~window; wh_all_count = ring_make ~window }
  in
  let t =
    { rt; win; created_at = Rt.now rt; seen = 0;
      copy_grants = Hashtbl.create 128; grants_read = 0; grants_write = 0;
      hold = by_protocol ema_make; hold_aborted = by_protocol ema_make;
      probs = Array.init n_probs (fun _ -> ema_make ());
      response = by_protocol ema_make; commits = 0; committed_requests = 0 }
  in
  Rt.subscribe rt (on_event t);
  t

(* cumulative rate inputs: counts since creation over elapsed time (the
   counts as floats, as the windowed sums are) *)
let cumulative_inputs t =
  let elapsed = Float.max 1e-6 (Rt.now t.rt -. t.created_at) in
  let rates (copy : int * int) =
    match Hashtbl.find_opt t.copy_grants copy with
    | None -> (0., 0.)
    | Some (reads, writes) ->
      (float_of_int !reads /. elapsed, float_of_int !writes /. elapsed)
  in
  ( elapsed, rates, float_of_int t.grants_read, float_of_int t.grants_write,
    Hashtbl.length t.copy_grants, float_of_int t.commits,
    float_of_int t.committed_requests )

(* windowed rate inputs: counts from the trailing window over the covered
   span (the window, or the whole run while shorter than one window).  An
   entirely drained window falls back to the cumulative inputs — stale
   estimates beat dividing nothing by something. *)
let windowed_inputs t w =
  let now = Rt.now t.rt in
  let g_read = ring_sum w.wg_read ~now in
  let g_write = ring_sum w.wg_write ~now in
  if g_read +. g_write = 0. then cumulative_inputs t
  else begin
    let covered =
      Float.max 1e-6 (Float.min w.window (now -. t.created_at))
    in
    let rates (copy : int * int) =
      match Hashtbl.find_opt w.wg copy with
      | None -> (0., 0.)
      | Some (reads, writes) ->
        (ring_sum reads ~now /. covered, ring_sum writes ~now /. covered)
    in
    let live_copies =
      Hashtbl.fold
        (fun _ (reads, writes) acc ->
          if ring_sum reads ~now +. ring_sum writes ~now > 0. then acc + 1
          else acc)
        w.wg 0
    in
    ( covered, rates, g_read, g_write, live_copies,
      ring_sum w.wc_commits ~now, ring_sum w.wc_requests ~now )
  end

let snapshot t =
  let elapsed, live_rates, grants_read, grants_write, copies, commits,
      committed_requests =
    match t.win with
    | None -> cumulative_inputs t
    | Some w -> windowed_inputs t w
  in
  (* [live_rates] reads the live counters: right at this instant only *)
  let taken_at = Rt.now t.rt and seen = t.seen in
  let rates copy =
    if t.seen <> seen || not (Float.equal (Rt.now t.rt) taken_at) then
      invalid_arg "Estimator.snapshot: rates read after the estimator moved on";
    live_rates copy
  in
  let grants = grants_read +. grants_write in
  let lambda_a = Float.max 1e-9 (grants /. elapsed) in
  let n_copies = Float.max 1. (float_of_int copies) in
  let lambda_r = grants_read /. elapsed /. n_copies in
  let lambda_w = grants_write /. elapsed /. n_copies in
  let q_r = if grants = 0. then 0.5 else grants_read /. grants in
  let k =
    if commits = 0. then 2.
    else Float.max 1. (committed_requests /. commits)
  in
  let u_cumulative p = ema_get ~prior:prior_hold_time t.hold.(rank p) in
  let u p =
    match t.win with
    | None -> u_cumulative p
    | Some w -> (
      let now = Rt.now t.rt in
      let sum, count = w.wh.(rank p) in
      if ring_sum count ~now > 0. then ring_sum sum ~now /. ring_sum count ~now
      else
        (* no recent grants under [p]: inherit the current system-wide
           hold time.  A protocol nobody routes through cannot be assumed
           faster than the shared lock queues everyone else is currently
           measuring — using its own (stale) history here makes an idle
           protocol look cheap exactly when the system is overloaded,
           and the selector flaps into it. *)
        let n_all = ring_sum w.wh_all_count ~now in
        if n_all > 0. then ring_sum w.wh_all_sum ~now /. n_all
        else u_cumulative p)
  in
  let u' p =
    (* with no aborted observations, fall back to the successful hold time
       (an aborted attempt holds its locks for roughly as long) *)
    ema_get ~prior:(u p) t.hold_aborted.(rank p)
  in
  let response =
    Array.map (ema_get ~prior:(2. *. prior_hold_time)) t.response
  in
  let response_time p = response.(rank p) in
  { params = { lambda_a; lambda_r; lambda_w; q_r; k };
    rates;
    response_time;
    two_pl =
      { u_hold = u Ccdb_model.Protocol.Two_pl;
        u_aborted = u' Ccdb_model.Protocol.Two_pl;
        p_abort = prob_get t two_pl_abort };
    t_o =
      { u_hold = u Ccdb_model.Protocol.T_o;
        u_aborted = u' Ccdb_model.Protocol.T_o;
        p_reject_read = prob_get t (to_reject Ccdb_model.Op.Read);
        p_reject_write = prob_get t (to_reject Ccdb_model.Op.Write) };
    pa =
      { u_hold = u Ccdb_model.Protocol.Pa;
        u_aborted = u' Ccdb_model.Protocol.Pa;
        p_backoff_read = prob_get t (pa_backoff Ccdb_model.Op.Read);
        p_backoff_write = prob_get t (pa_backoff Ccdb_model.Op.Write) } }
