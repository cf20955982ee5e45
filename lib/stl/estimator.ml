module Rt = Ccdb_protocols.Runtime

(* prior lock hold time U of every protocol before any observation: the
   scale of one round trip plus compute in the default network *)
let prior_hold_time = 30.

type source = Cumulative | Windowed of float

(* Trailing-window counters for the [Windowed] source: the window is split
   into [w_slots] fixed buckets keyed by absolute slot number; advancing
   past a boundary zeroes the slots skipped, so a sum sees only events from
   (at most) the last [window * (1 + 1/w_slots)] time units.  O(1) per
   update, fully deterministic in simulated time. *)
let w_slots = 8

type wring = {
  slot_width : float;
  slots : int array;
  mutable head_epoch : int; (* absolute slot number the head covers *)
}

let wring_make ~window =
  { slot_width = window /. float_of_int w_slots;
    slots = Array.make w_slots 0;
    head_epoch = 0 }

let wring_advance r ~now =
  let epoch = int_of_float (now /. r.slot_width) in
  if epoch > r.head_epoch then begin
    let skip = min w_slots (epoch - r.head_epoch) in
    for i = 1 to skip do
      r.slots.((r.head_epoch + i) mod w_slots) <- 0
    done;
    r.head_epoch <- epoch
  end

let wring_add r ~now =
  wring_advance r ~now;
  let i = r.head_epoch mod w_slots in
  r.slots.(i) <- r.slots.(i) + 1

let wring_sum r ~now =
  wring_advance r ~now;
  Array.fold_left ( + ) 0 r.slots

(* same ring, accumulating a float total per slot (hold-time sums) *)
type fwring = {
  f_slot_width : float;
  f_slots : float array;
  mutable f_head_epoch : int;
}

let fwring_make ~window =
  { f_slot_width = window /. float_of_int w_slots;
    f_slots = Array.make w_slots 0.;
    f_head_epoch = 0 }

let fwring_advance r ~now =
  let epoch = int_of_float (now /. r.f_slot_width) in
  if epoch > r.f_head_epoch then begin
    let skip = min w_slots (epoch - r.f_head_epoch) in
    for i = 1 to skip do
      r.f_slots.((r.f_head_epoch + i) mod w_slots) <- 0.
    done;
    r.f_head_epoch <- epoch
  end

let fwring_add r ~now x =
  fwring_advance r ~now;
  let i = r.f_head_epoch mod w_slots in
  r.f_slots.(i) <- r.f_slots.(i) +. x

let fwring_sum r ~now =
  fwring_advance r ~now;
  Array.fold_left ( +. ) 0. r.f_slots

(* everything the sliding-window source tracks on top of the cumulative
   counters; rates, Qr, k and the failure probabilities are then computed
   from these sums instead of the whole-run totals *)
type windowed = {
  window : float;
  wg : (int * int, wring * wring) Hashtbl.t; (* per-copy (reads, writes) *)
  wg_read : wring;
  wg_write : wring;
  wc_commits : wring;
  wc_requests : wring;
  (* per probability key: (failures, trials) *)
  wp : (string, wring * wring) Hashtbl.t;
  (* per-protocol successful hold times: (time sum, count); the [_all]
     pair aggregates across protocols *)
  wh : (Ccdb_model.Protocol.t, fwring * wring) Hashtbl.t;
  wh_all_sum : fwring;
  wh_all_count : wring;
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
  (* per-copy grant counts: (reads, writes) *)
  copy_grants : (int * int, int ref * int ref) Hashtbl.t;
  mutable grants_read : int;
  mutable grants_write : int;
  (* lock hold times per protocol, split by aborted *)
  hold : (Ccdb_model.Protocol.t * bool, ema) Hashtbl.t;
  (* failure probabilities as EMAs of per-request (or per-attempt for 2PL)
     failure indicators *)
  probs : (string, ema) Hashtbl.t;
  (* mean system time per protocol *)
  response : (Ccdb_model.Protocol.t, ema) Hashtbl.t;
  mutable commits : int;
  mutable committed_requests : int;
}

let hold_acc t key =
  match Hashtbl.find_opt t.hold key with
  | Some acc -> acc
  | None ->
    let acc = ema_make () in
    Hashtbl.add t.hold key acc;
    acc

let prob t key =
  match Hashtbl.find_opt t.probs key with
  | Some e -> e
  | None ->
    let e = ema_make () in
    Hashtbl.add t.probs key e;
    e

let prob_observe t key outcome =
  ema_add (prob t key) (if outcome then 1. else 0.);
  match t.win with
  | None -> ()
  | Some w ->
    let failures, trials =
      match Hashtbl.find_opt w.wp key with
      | Some cell -> cell
      | None ->
        let cell = (wring_make ~window:w.window, wring_make ~window:w.window) in
        Hashtbl.add w.wp key cell;
        cell
    in
    let now = Rt.now t.rt in
    wring_add trials ~now;
    if outcome then wring_add failures ~now

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
let prob_get t key =
  let cumulative () = ema_get ~prior:0. (prob t key) in
  match t.win with
  | None -> cumulative ()
  | Some w -> (
    match Hashtbl.find_opt w.wp key with
    | None -> cumulative ()
    | Some (failures, trials) ->
      let now = Rt.now t.rt in
      let n = wring_sum trials ~now in
      if n = 0 then cumulative ()
      else
        (float_of_int (wring_sum failures ~now) +. (shrinkage *. cumulative ()))
        /. (float_of_int n +. shrinkage))

let op_key prefix = function
  | Ccdb_model.Op.Read -> prefix ^ "-read"
  | Ccdb_model.Op.Write -> prefix ^ "-write"

let on_event t = function
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
             (wring_make ~window:w.window, wring_make ~window:w.window)
           in
           Hashtbl.add w.wg (item, site) cell;
           cell
       in
       let now = Rt.now t.rt in
       (match op with
        | Ccdb_model.Op.Read ->
          wring_add wreads ~now;
          wring_add w.wg_read ~now
        | Ccdb_model.Op.Write ->
          wring_add wwrites ~now;
          wring_add w.wg_write ~now));
    (* a grant is a request that was not rejected / backed off *)
    (match protocol with
     | Ccdb_model.Protocol.T_o -> prob_observe t (op_key "to" op) false
     | Ccdb_model.Protocol.Pa -> prob_observe t (op_key "pa" op) false
     | Ccdb_model.Protocol.Two_pl -> ())
  | Rt.Lock_released { protocol; granted_at; at; aborted; _ } ->
    ema_add (hold_acc t (protocol, aborted)) (at -. granted_at);
    (match t.win with
     | None -> ()
     | Some _ when aborted -> ()
     | Some w ->
       let sum, count =
         match Hashtbl.find_opt w.wh protocol with
         | Some cell -> cell
         | None ->
           let cell = (fwring_make ~window:w.window, wring_make ~window:w.window) in
           Hashtbl.add w.wh protocol cell;
           cell
       in
       let now = Rt.now t.rt in
       fwring_add sum ~now (at -. granted_at);
       wring_add count ~now;
       fwring_add w.wh_all_sum ~now (at -. granted_at);
       wring_add w.wh_all_count ~now)
  | Rt.Txn_committed { txn; submitted_at; executed_at; restarts = _ } ->
    t.commits <- t.commits + 1;
    t.committed_requests <- t.committed_requests + Ccdb_model.Txn.size txn;
    (match t.win with
     | None -> ()
     | Some w ->
       let now = Rt.now t.rt in
       wring_add w.wc_commits ~now;
       for _ = 1 to Ccdb_model.Txn.size txn do
         wring_add w.wc_requests ~now
       done);
    let resp =
      match Hashtbl.find_opt t.response txn.protocol with
      | Some e -> e
      | None ->
        let e = ema_make () in
        Hashtbl.add t.response txn.protocol e;
        e
    in
    ema_add resp (executed_at -. submitted_at);
    (match txn.protocol with
     | Ccdb_model.Protocol.Two_pl -> prob_observe t "2pl-abort" false
     | Ccdb_model.Protocol.T_o | Ccdb_model.Protocol.Pa -> ())
  | Rt.Txn_restarted { reason; _ } ->
    (match reason with
     | Rt.Deadlock_victim | Rt.Prevention_kill ->
       prob_observe t "2pl-abort" true
     | Rt.To_rejected op -> prob_observe t (op_key "to" op) true
     (* crash-triggered restarts say nothing about data contention *)
     | Rt.Site_failure -> ())
  | Rt.Pa_backoff { op; _ } -> prob_observe t (op_key "pa" op) true
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
          wg_read = wring_make ~window; wg_write = wring_make ~window;
          wc_commits = wring_make ~window; wc_requests = wring_make ~window;
          wp = Hashtbl.create 8; wh = Hashtbl.create 4;
          wh_all_sum = fwring_make ~window; wh_all_count = wring_make ~window }
  in
  let t =
    { rt; win; created_at = Rt.now rt;
      copy_grants = Hashtbl.create 128; grants_read = 0; grants_write = 0;
      hold = Hashtbl.create 8; probs = Hashtbl.create 8;
      response = Hashtbl.create 4; commits = 0; committed_requests = 0 }
  in
  Rt.subscribe rt (on_event t);
  t

(* cumulative rate inputs: counts since creation over elapsed time *)
let cumulative_inputs t =
  let elapsed = Float.max 1e-6 (Rt.now t.rt -. t.created_at) in
  let rates (copy : int * int) =
    match Hashtbl.find_opt t.copy_grants copy with
    | None -> (0., 0.)
    | Some (reads, writes) ->
      (float_of_int !reads /. elapsed, float_of_int !writes /. elapsed)
  in
  ( elapsed, rates, t.grants_read, t.grants_write,
    Hashtbl.length t.copy_grants, t.commits, t.committed_requests )

(* windowed rate inputs: counts from the trailing window over the covered
   span (the window, or the whole run while shorter than one window).  An
   entirely drained window falls back to the cumulative inputs — stale
   estimates beat dividing nothing by something. *)
let windowed_inputs t w =
  let now = Rt.now t.rt in
  let g_read = wring_sum w.wg_read ~now in
  let g_write = wring_sum w.wg_write ~now in
  if g_read + g_write = 0 then cumulative_inputs t
  else begin
    let covered =
      Float.max 1e-6 (Float.min w.window (now -. t.created_at))
    in
    let rates (copy : int * int) =
      match Hashtbl.find_opt w.wg copy with
      | None -> (0., 0.)
      | Some (reads, writes) ->
        ( float_of_int (wring_sum reads ~now) /. covered,
          float_of_int (wring_sum writes ~now) /. covered )
    in
    let live_copies =
      Hashtbl.fold
        (fun _ (reads, writes) acc ->
          if wring_sum reads ~now + wring_sum writes ~now > 0 then acc + 1
          else acc)
        w.wg 0
    in
    ( covered, rates, g_read, g_write, live_copies,
      wring_sum w.wc_commits ~now, wring_sum w.wc_requests ~now )
  end

let snapshot t =
  let elapsed, rates, grants_read, grants_write, copies, commits,
      committed_requests =
    match t.win with
    | None -> cumulative_inputs t
    | Some w -> windowed_inputs t w
  in
  let lambda_a =
    Float.max 1e-9 (float_of_int (grants_read + grants_write) /. elapsed)
  in
  let n_copies = Float.max 1. (float_of_int copies) in
  let lambda_r = float_of_int grants_read /. elapsed /. n_copies in
  let lambda_w = float_of_int grants_write /. elapsed /. n_copies in
  let q_r =
    if grants_read + grants_write = 0 then 0.5
    else
      float_of_int grants_read /. float_of_int (grants_read + grants_write)
  in
  let k =
    if commits = 0 then 2.
    else Float.max 1. (float_of_int committed_requests /. float_of_int commits)
  in
  let u_cumulative p =
    ema_get ~prior:prior_hold_time (hold_acc t (p, false))
  in
  let u p =
    match t.win with
    | None -> u_cumulative p
    | Some w -> (
      let now = Rt.now t.rt in
      match Hashtbl.find_opt w.wh p with
      | Some (sum, count) when wring_sum count ~now > 0 ->
        fwring_sum sum ~now /. float_of_int (wring_sum count ~now)
      | _ ->
        (* no recent grants under [p]: inherit the current system-wide
           hold time.  A protocol nobody routes through cannot be assumed
           faster than the shared lock queues everyone else is currently
           measuring — using its own (stale) history here makes an idle
           protocol look cheap exactly when the system is overloaded,
           and the selector flaps into it. *)
        let n_all = wring_sum w.wh_all_count ~now in
        if n_all > 0 then fwring_sum w.wh_all_sum ~now /. float_of_int n_all
        else u_cumulative p)
  in
  let u' p =
    (* with no aborted observations, fall back to the successful hold time
       (an aborted attempt holds its locks for roughly as long) *)
    let acc = hold_acc t (p, true) in
    if acc.initialised then acc.value else u p
  in
  let response_time p =
    match Hashtbl.find_opt t.response p with
    | Some e -> ema_get ~prior:(2. *. prior_hold_time) e
    | None -> 2. *. prior_hold_time
  in
  { params = { lambda_a; lambda_r; lambda_w; q_r; k };
    rates;
    response_time;
    two_pl =
      { u_hold = u Ccdb_model.Protocol.Two_pl;
        u_aborted = u' Ccdb_model.Protocol.Two_pl;
        p_abort = prob_get t "2pl-abort" };
    t_o =
      { u_hold = u Ccdb_model.Protocol.T_o;
        u_aborted = u' Ccdb_model.Protocol.T_o;
        p_reject_read = prob_get t "to-read";
        p_reject_write = prob_get t "to-write" };
    pa =
      { u_hold = u Ccdb_model.Protocol.Pa;
        u_aborted = u' Ccdb_model.Protocol.Pa;
        p_backoff_read = prob_get t "pa-read";
        p_backoff_write = prob_get t "pa-write" } }
