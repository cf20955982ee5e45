(* Tests for the STL cost model (lib/stl): the STL' recursion, the
   per-protocol estimators, online parameter estimation and selection. *)

module Sm = Ccdb_stl.Stl_model
module Tc = Ccdb_stl.Txn_cost
module Est = Ccdb_stl.Estimator
module Sel = Ccdb_stl.Selector
module Rt = Ccdb_protocols.Runtime

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let params ?(lambda_a = 1.0) ?(lambda_r = 0.05) ?(lambda_w = 0.05) ?(q_r = 0.5)
    ?(k = 3.) () =
  { Sm.lambda_a; lambda_r; lambda_w; q_r; k }

(* --- Stl_model ------------------------------------------------------------ *)

let test_stl_zero_horizon () =
  check (Alcotest.float 1e-12) "u=0" 0.
    (Sm.stl' (params ()) ~lambda_loss:0.5 ~u:0.)

let test_stl_saturated () =
  let p = params ~lambda_a:2. () in
  check (Alcotest.float 1e-9) "l >= lambda_a" 20.
    (Sm.stl' p ~lambda_loss:2.5 ~u:10.)

let test_stl_no_cascade_when_k1 () =
  (* single-request transactions: no blocking cascade, loss stays linear *)
  let p = params ~k:1. () in
  check (Alcotest.float 1e-9) "linear" 5.0
    (Sm.stl' p ~lambda_loss:0.5 ~u:10.)

let test_stl_zero_loss () =
  let p = params () in
  check (Alcotest.float 1e-9) "no initial loss" 0.
    (Sm.stl' p ~lambda_loss:0. ~u:10.)

let test_stl_bounds () =
  let p = params () in
  List.iter
    (fun (l, u) ->
      let v = Sm.stl' p ~lambda_loss:l ~u in
      if v < l *. u *. 0.999 -. 1e-9 then
        Alcotest.failf "stl' %f %f = %f below linear floor" l u v;
      if v > p.lambda_a *. u +. 1e-9 then
        Alcotest.failf "stl' %f %f = %f above saturation" l u v)
    [ (0.1, 5.); (0.3, 20.); (0.7, 50.); (0.9, 100.) ]

(* The DP discretizes loss levels relative to lambda_loss and time relative
   to u, so two calls with different arguments integrate on different grids:
   exact monotonicity can wobble by quadrature error.  Allow 2% slack. *)
let approx_le a b = a <= (b *. 1.02) +. 1e-6

let prop_stl_monotone_u =
  qtest "STL' monotone in U (up to quadrature error)"
    QCheck.(pair (float_range 0. 0.9) (float_range 1. 50.))
    (fun (l, u) ->
      let p = params () in
      approx_le (Sm.stl' p ~lambda_loss:l ~u) (Sm.stl' p ~lambda_loss:l ~u:(u +. 10.)))

let prop_stl_monotone_loss =
  qtest "STL' monotone in lambda_loss (up to quadrature error)"
    QCheck.(pair (float_range 0. 0.8) (float_range 1. 50.))
    (fun (l, u) ->
      let p = params () in
      approx_le (Sm.stl' p ~lambda_loss:l ~u) (Sm.stl' p ~lambda_loss:(l +. 0.1) ~u))

let prop_stl_envelope =
  qtest "STL' within [l*u*e^-bu, lambda_a*u]"
    QCheck.(pair (float_range 0. 1.2) (float_range 0. 80.))
    (fun (l, u) ->
      let p = params () in
      let v = Sm.stl' p ~lambda_loss:l ~u in
      v >= -.1e-9 && v <= (p.Sm.lambda_a *. u) +. 1e-9)

let test_stl_lambda_block () =
  let p = params ~lambda_a:1. ~k:3. () in
  check (Alcotest.float 1e-12) "zero loss" 0. (Sm.lambda_block p ~lambda_loss:0.);
  check (Alcotest.float 1e-12) "saturated" 0. (Sm.lambda_block p ~lambda_loss:1.);
  let b = Sm.lambda_block p ~lambda_loss:0.5 in
  (* (1 - 0.5) * (1 - 0.5^2) = 0.375 *)
  check (Alcotest.float 1e-9) "interior" 0.375 b

let test_stl_invalid () =
  Alcotest.check_raises "bad k" (Invalid_argument "Stl_model: k must be >= 1")
    (fun () -> ignore (Sm.stl' (params ~k:0.5 ()) ~lambda_loss:0.1 ~u:1.));
  Alcotest.check_raises "negative u" (Invalid_argument "Stl_model.stl': negative u")
    (fun () -> ignore (Sm.stl' (params ()) ~lambda_loss:0.1 ~u:(-1.)))

(* --- Txn_cost -------------------------------------------------------------- *)

let flat_rates (_ : int * int) = (0.05, 0.05)

let fp ~reads ~writes =
  { Tc.read_copies = List.init reads (fun i -> (i, 0));
    write_copies = List.init writes (fun i -> (100 + i, 0)) }

let test_lambda_t () =
  (* reads block lambda_w each; writes block lambda_w + lambda_r each *)
  let v = Tc.lambda_t flat_rates (fp ~reads:2 ~writes:3) in
  check (Alcotest.float 1e-9) "lambda_t" ((2. *. 0.05) +. (3. *. 0.1)) v

let test_stl_2pl_no_aborts_is_base () =
  let p = params () in
  let stats = { Tc.u_hold = 20.; u_aborted = 20.; p_abort = 0. } in
  let foot = fp ~reads:1 ~writes:1 in
  let base = Sm.stl' p ~lambda_loss:(Tc.lambda_t flat_rates foot) ~u:20. in
  check (Alcotest.float 1e-9) "no abort term" base
    (Tc.stl_two_pl p flat_rates stats foot)

let test_stl_2pl_aborts_increase_cost () =
  let p = params () in
  let foot = fp ~reads:1 ~writes:1 in
  let cheap = { Tc.u_hold = 20.; u_aborted = 20.; p_abort = 0. } in
  let risky = { cheap with Tc.p_abort = 0.3 } in
  if Tc.stl_two_pl p flat_rates risky foot
     <= Tc.stl_two_pl p flat_rates cheap foot then
    Alcotest.fail "aborts must increase STL"

let test_stl_to_rejections_increase_cost () =
  let p = params () in
  let foot = fp ~reads:2 ~writes:2 in
  let clean =
    { Tc.u_hold = 20.; u_aborted = 20.; p_reject_read = 0.; p_reject_write = 0. }
  in
  let rejecting = { clean with Tc.p_reject_read = 0.2; p_reject_write = 0.2 } in
  if Tc.stl_to p flat_rates rejecting foot <= Tc.stl_to p flat_rates clean foot
  then Alcotest.fail "rejections must increase STL"

let test_stl_pa_single_backoff_bounded () =
  (* PA pays at most one extra U' episode; with certain backoff the total is
     at most base + STL'(conditional, u') *)
  let p = params () in
  let foot = fp ~reads:1 ~writes:1 in
  let certain =
    { Tc.u_hold = 20.; u_aborted = 20.; p_backoff_read = 0.99;
      p_backoff_write = 0.99 }
  in
  let v = Tc.stl_pa p flat_rates certain foot in
  let base = Sm.stl' p ~lambda_loss:(Tc.lambda_t flat_rates foot) ~u:20. in
  let cap = base +. (p.Sm.lambda_a *. 20.) in
  if v > cap +. 1e-9 then Alcotest.failf "PA cost unbounded: %f > %f" v cap

let test_stl_protocol_ranking_under_failures () =
  (* same lock times; 2PL with high abort probability must cost more than a
     failure-free PA *)
  let p = params () in
  let foot = fp ~reads:2 ~writes:2 in
  let pl = { Tc.u_hold = 20.; u_aborted = 40.; p_abort = 0.5 } in
  let pa =
    { Tc.u_hold = 20.; u_aborted = 20.; p_backoff_read = 0.; p_backoff_write = 0. }
  in
  if Tc.stl_two_pl p flat_rates pl foot <= Tc.stl_pa p flat_rates pa foot then
    Alcotest.fail "deadlocky 2PL should cost more than clean PA"

(* --- Estimator -------------------------------------------------------------- *)

let make_runtime () =
  let catalog = Ccdb_storage.Catalog.create ~items:4 ~sites:2 ~replication:1 in
  Rt.create ~net_config:Ccdb_sim.Net.default_config ~catalog ()

let test_estimator_priors_before_data () =
  let rt = make_runtime () in
  let est = Est.create rt in
  let snap = Est.snapshot est in
  check (Alcotest.float 1e-9) "prior hold" 30. snap.two_pl.u_hold;
  check (Alcotest.float 1e-9) "prior p" 0. snap.two_pl.p_abort;
  check (Alcotest.float 1e-9) "prior q_r" 0.5 snap.params.q_r

let test_estimator_tracks_events () =
  let rt = make_runtime () in
  let est = Est.create rt in
  (* drive some simulated time so rates are finite *)
  ignore (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:100. (fun () -> ()));
  Rt.quiesce rt;
  let emit_grant op =
    Rt.emit rt
      (Rt.Lock_granted
         { txn = 1; protocol = Ccdb_model.Protocol.T_o; op; item = 0; site = 0;
           mode = None; schedule = Ccdb_model.Lock.Normal; ts = None;
           at = 50. })
  in
  emit_grant Ccdb_model.Op.Read;
  emit_grant Ccdb_model.Op.Write;
  Rt.emit rt
    (Rt.Lock_released
       { txn = 1; protocol = Ccdb_model.Protocol.T_o; op = Ccdb_model.Op.Read;
         item = 0; site = 0; granted_at = 10.; at = 34.; aborted = false;
         ts = None });
  let snap = Est.snapshot est in
  check (Alcotest.float 1e-9) "hold ema initialised" 24. snap.t_o.u_hold;
  check (Alcotest.float 1e-9) "no rejects yet" 0. snap.t_o.p_reject_read;
  let lr, lw = snap.rates (0, 0) in
  check Alcotest.bool "rates positive" true (lr > 0. && lw > 0.)

(* Each failure event moves its own probability and no other, under both
   sources. *)
let test_estimator_reject_probability () =
  let txn =
    Ccdb_model.Txn.make ~id:1 ~site:0 ~read_set:[ 0 ] ~write_set:[ 1 ]
      ~compute_time:1. ~protocol:Ccdb_model.Protocol.Two_pl
  in
  let restarted reason = Rt.Txn_restarted { txn; reason; at = 1. } in
  let backoff op = Rt.Pa_backoff { txn = 1; op; at = 1. } in
  let probs (s : Est.snapshot) =
    [ s.two_pl.p_abort; s.t_o.p_reject_read; s.t_o.p_reject_write;
      s.pa.p_backoff_read; s.pa.p_backoff_write ]
  in
  List.iter
    (fun source ->
      List.iteri
        (fun i event ->
          let rt = make_runtime () in
          let est = Est.create ~source rt in
          Rt.emit rt event;
          check
            (Alcotest.list (Alcotest.float 0.))
            (Printf.sprintf "event %d" i)
            (List.init 5 (fun j -> if i = j then 1. else 0.))
            (probs (Est.snapshot est)))
        [ restarted Rt.Deadlock_victim;
          restarted (Rt.To_rejected Ccdb_model.Op.Read);
          restarted (Rt.To_rejected Ccdb_model.Op.Write);
          backoff Ccdb_model.Op.Read; backoff Ccdb_model.Op.Write ])
    [ Est.Cumulative; Est.Windowed 80. ]

(* An 80-unit window is eight 10-unit buckets.  What was added in a bucket
   leaves the sums once the clock is eight buckets past it, and not
   before; the sums are exact counts (a commit of three requests adds 3). *)
let test_estimator_window_expires_by_bucket () =
  let rt = make_runtime () in
  let est = Est.create ~source:(Est.Windowed 80.) rt in
  let grant ~item ~site op =
    Rt.emit rt
      (Rt.Lock_granted
         { txn = 1; protocol = Ccdb_model.Protocol.Two_pl; op; item; site;
           mode = None; schedule = Ccdb_model.Lock.Normal; ts = None;
           at = Rt.now rt })
  in
  let commit ~reads ~writes =
    Rt.emit rt
      (Rt.Txn_committed
         { txn =
             Ccdb_model.Txn.make ~id:1 ~site:0 ~read_set:reads
               ~write_set:writes ~compute_time:1.
               ~protocol:Ccdb_model.Protocol.Two_pl;
           submitted_at = 0.; executed_at = Rt.now rt; restarts = 0 })
  in
  let snaps = ref [] and kept = ref [] in
  let at time f =
    ignore (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:time f)
  in
  (* [rates] reads the window when called, so read it at the instant *)
  let snap () =
    let s = Est.snapshot est in
    kept := s :: !kept;
    snaps :=
      (Rt.now rt, (fst (s.rates (0, 0)), snd (s.rates (1, 1)), s.params.k))
      :: !snaps
  in
  at 5. (fun () ->
      for _ = 1 to 3 do grant ~item:0 ~site:0 Ccdb_model.Op.Read done;
      commit ~reads:[ 0; 1 ] ~writes:[ 2 ]);
  at 25. (fun () ->
      grant ~item:0 ~site:0 Ccdb_model.Op.Read;
      grant ~item:0 ~site:0 Ccdb_model.Op.Read;
      commit ~reads:[ 0 ] ~writes:[ 1 ]);
  at 75. (fun () -> grant ~item:1 ~site:1 Ccdb_model.Op.Write);
  List.iter (fun t -> at t snap) [ 79.; 85.; 105. ];
  Rt.quiesce rt;
  let expect t ~reads ~covered ~k =
    let read_rate, write_rate, k' = List.assoc t !snaps in
    let name what = Printf.sprintf "%s at %g" what t in
    check (Alcotest.float 0.) (name "reads of (0, 0)") (reads /. covered)
      read_rate;
    check (Alcotest.float 0.) (name "writes of (1, 1)") (1. /. covered)
      write_rate;
    check (Alcotest.float 0.) (name "k") k k'
  in
  (* 5 reads, 2 commits of 5 requests *)
  expect 79. ~reads:5. ~covered:79. ~k:2.5;
  (* bucket 0 (t = 5) gone: 2 reads, 1 commit of 2 requests *)
  expect 85. ~reads:2. ~covered:80. ~k:2.;
  (* bucket 2 (t = 25) gone: no read, no commit (k's prior) *)
  expect 105. ~reads:0. ~covered:80. ~k:2.;
  (* the snapshot taken at 79, read after the run, would mix 79's span
     with 105's window: it refuses *)
  match List.rev !kept with
  | at_79 :: _ ->
    check Alcotest.bool "a kept snapshot's rates raise" true
      (match at_79.rates (0, 0) with
       | _ -> false
       | exception Invalid_argument _ -> true)
  | [] -> Alcotest.fail "no snapshot taken"

(* A snapshot holds its own values until the estimator moves on: read at
   once, [rates] and [response_time] are its own under both sources;
   after another event [rates] raises and [response_time] still returns
   the snapshot's value. *)
let test_estimator_snapshot_is_an_instant () =
  let commit ~id ~executed_at =
    Rt.Txn_committed
      { txn =
          Ccdb_model.Txn.make ~id ~site:0 ~read_set:[ 0 ] ~write_set:[]
            ~compute_time:1. ~protocol:Ccdb_model.Protocol.T_o;
        submitted_at = 0.; executed_at; restarts = 0 }
  in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let advance rt dt =
    ignore (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:dt (fun () -> ()));
    Rt.quiesce rt
  in
  List.iter
    (fun (name, source) ->
      let rt = make_runtime () in
      let est = Est.create ~source rt in
      advance rt 40.;
      Rt.emit rt
        (Rt.Lock_granted
           { txn = 1; protocol = Ccdb_model.Protocol.T_o;
             op = Ccdb_model.Op.Read; item = 0; site = 0; mode = None;
             schedule = Ccdb_model.Lock.Normal; ts = None; at = 40. });
      Rt.emit rt (commit ~id:1 ~executed_at:40.);
      let s = Est.snapshot est in
      check (Alcotest.float 1e-12) (name ^ ": read rate of (0, 0)")
        (1. /. 40.) (fst (s.rates (0, 0)));
      check (Alcotest.float 1e-12) (name ^ ": read it again") (1. /. 40.)
        (fst (s.rates (0, 0)));
      check (Alcotest.float 0.) (name ^ ": T/O response time") 40.
        (s.response_time Ccdb_model.Protocol.T_o);
      Rt.emit rt (commit ~id:2 ~executed_at:80.);
      check Alcotest.bool (name ^ ": rates raise after an event") true
        (raises (fun () -> s.rates (0, 0)));
      check (Alcotest.float 0.) (name ^ ": response time as taken") 40.
        (s.response_time Ccdb_model.Protocol.T_o);
      let s' = Est.snapshot est in
      advance rt 5.;
      check Alcotest.bool (name ^ ": rates raise once the clock moves") true
        (raises (fun () -> s'.rates (0, 0))))
    [ ("cumulative", Est.Cumulative); ("windowed", Est.Windowed 80.) ]

(* --- Selector ---------------------------------------------------------------- *)

let test_selector_footprint () =
  let catalog = Ccdb_storage.Catalog.create ~items:8 ~sites:4 ~replication:2 in
  let fp = Sel.footprint catalog ~site:1 ~read_set:[ 1 ] ~write_set:[ 2 ] in
  check Alcotest.int "one read copy" 1 (List.length fp.Tc.read_copies);
  check Alcotest.int "write-all" 2 (List.length fp.Tc.write_copies);
  (* read prefers the local copy when the site holds one *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "local read" [ (1, 1) ] fp.Tc.read_copies

let test_selector_picks_min () =
  let rt = make_runtime () in
  let est = Est.create rt in
  (* make 2PL look terrible: high measured abort probability *)
  let txn p =
    Ccdb_model.Txn.make ~id:1 ~site:0 ~read_set:[ 0 ] ~write_set:[ 1 ]
      ~compute_time:1. ~protocol:p
  in
  for _ = 1 to 50 do
    Rt.emit rt
      (Rt.Txn_restarted
         { txn = txn Ccdb_model.Protocol.Two_pl; reason = Rt.Deadlock_victim;
           at = 1. });
    (* give every copy some traffic so lambda_t is positive *)
    Rt.emit rt
      (Rt.Lock_granted
         { txn = 1; protocol = Ccdb_model.Protocol.Pa; op = Ccdb_model.Op.Write;
           item = 1; site = 1; mode = Some Ccdb_model.Lock.Wl;
           schedule = Ccdb_model.Lock.Normal; ts = Some 1; at = 1. })
  done;
  ignore (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:100. (fun () -> ()));
  Rt.quiesce rt;
  let snap = Est.snapshot est in
  let fp =
    Sel.footprint (Rt.catalog rt) ~site:0 ~read_set:[ 0 ] ~write_set:[ 1 ]
  in
  let verdict = Sel.evaluate snap fp in
  check Alcotest.int "three costs" 3 (List.length verdict.costs);
  check Alcotest.bool "avoids deadlocky 2PL" true
    (not (Ccdb_model.Protocol.equal verdict.chosen Ccdb_model.Protocol.Two_pl));
  (* chosen really is the argmin *)
  let min_cost =
    List.fold_left (fun acc (_, c) -> Float.min acc c) infinity verdict.costs
  in
  check (Alcotest.float 1e-9) "argmin" min_cost
    (List.assoc verdict.chosen verdict.costs)

let test_selector_class_cache () =
  let rt = make_runtime () in
  let est = Est.create rt in
  let sel =
    Sel.create ~snapshot:(fun () -> Est.snapshot est) (Rt.catalog rt)
  in
  let txn id =
    Ccdb_model.Txn.make ~id ~site:0 ~read_set:[ 0 ] ~write_set:[ 1 ]
      ~compute_time:1. ~protocol:Ccdb_model.Protocol.Two_pl
  in
  let v1 = Sel.choose sel ~now:0. (txn 1) in
  let v2 = Sel.choose sel ~now:50. (txn 2) in
  check Alcotest.bool "cached decision" true
    (Ccdb_model.Protocol.equal v1.chosen v2.chosen);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "decision counts"
    [ (Ccdb_model.Protocol.to_string v1.chosen, 2) ]
    (List.map
       (fun (p, n) -> (Ccdb_model.Protocol.to_string p, n))
       (Sel.decisions sel))

let suites =
  [ ( "stl.model",
      [ Alcotest.test_case "zero horizon" `Quick test_stl_zero_horizon;
        Alcotest.test_case "saturated" `Quick test_stl_saturated;
        Alcotest.test_case "k=1 no cascade" `Quick test_stl_no_cascade_when_k1;
        Alcotest.test_case "zero loss" `Quick test_stl_zero_loss;
        Alcotest.test_case "bounds" `Quick test_stl_bounds;
        Alcotest.test_case "lambda_block" `Quick test_stl_lambda_block;
        Alcotest.test_case "invalid args" `Quick test_stl_invalid;
        prop_stl_monotone_u;
        prop_stl_monotone_loss;
        prop_stl_envelope ] );
    ( "stl.txn_cost",
      [ Alcotest.test_case "lambda_t" `Quick test_lambda_t;
        Alcotest.test_case "2PL base" `Quick test_stl_2pl_no_aborts_is_base;
        Alcotest.test_case "2PL aborts cost" `Quick test_stl_2pl_aborts_increase_cost;
        Alcotest.test_case "T/O rejects cost" `Quick test_stl_to_rejections_increase_cost;
        Alcotest.test_case "PA single backoff" `Quick test_stl_pa_single_backoff_bounded;
        Alcotest.test_case "ranking under failures" `Quick
          test_stl_protocol_ranking_under_failures ] );
    ( "stl.estimator",
      [ Alcotest.test_case "priors" `Quick test_estimator_priors_before_data;
        Alcotest.test_case "tracks events" `Quick test_estimator_tracks_events;
        Alcotest.test_case "reject probability" `Quick test_estimator_reject_probability;
        Alcotest.test_case "window expires bucket by bucket" `Quick
          test_estimator_window_expires_by_bucket;
        Alcotest.test_case "snapshot is an instant" `Quick
          test_estimator_snapshot_is_an_instant ] );
    ( "stl.selector",
      [ Alcotest.test_case "footprint" `Quick test_selector_footprint;
        Alcotest.test_case "picks min" `Quick test_selector_picks_min;
        Alcotest.test_case "class cache" `Quick test_selector_class_cache ] ) ]

(* --- Analytic model ---------------------------------------------------------- *)

module An = Ccdb_stl.Analytic

let base_workload =
  { An.arrival_rate = 0.1; mean_size = 2.; read_fraction = 0.5; items = 24;
    replication = 2; sites = 4; one_way_delay = 10.; compute_mean = 5. }

let test_analytic_snapshot_sane () =
  let snap = An.snapshot base_workload in
  check Alcotest.bool "lambda_a positive" true (snap.params.lambda_a > 0.);
  check Alcotest.bool "hold positive" true (snap.two_pl.u_hold > 0.);
  check Alcotest.bool "probs in range" true
    (snap.two_pl.p_abort >= 0. && snap.two_pl.p_abort <= 0.5
     && snap.t_o.p_reject_write >= 0. && snap.t_o.p_reject_write < 1.
     && snap.pa.p_backoff_read >= 0. && snap.pa.p_backoff_read < 1.);
  let lr, lw = snap.rates (0, 0) in
  check Alcotest.bool "rates positive" true (lr > 0. && lw > 0.)

let test_analytic_monotone_in_load () =
  let low = An.snapshot base_workload in
  let high = An.snapshot { base_workload with arrival_rate = 0.5 } in
  check Alcotest.bool "deadlocks grow" true
    (high.two_pl.p_abort >= low.two_pl.p_abort);
  check Alcotest.bool "rejections grow" true
    (high.t_o.p_reject_write >= low.t_o.p_reject_write);
  check Alcotest.bool "hold grows" true (high.two_pl.u_hold >= low.two_pl.u_hold)

let test_analytic_utilization_clamped () =
  let crazy = { base_workload with arrival_rate = 100. } in
  check Alcotest.bool "clamped" true (An.utilization crazy <= 0.95)

let test_analytic_of_spec () =
  let spec = { Ccdb_workload.Generator.default with arrival_rate = 0.2 } in
  let w =
    An.of_spec spec ~setup_items:24 ~setup_replication:2 ~setup_sites:4
      ~one_way_delay:10.
  in
  check (Alcotest.float 1e-9) "rate" 0.2 w.An.arrival_rate;
  check (Alcotest.float 1e-9) "size" 2. w.An.mean_size

let test_analytic_usable_by_selector () =
  let snap = An.snapshot base_workload in
  let catalog = Ccdb_storage.Catalog.create ~items:24 ~sites:4 ~replication:2 in
  let fp = Sel.footprint catalog ~site:0 ~read_set:[ 0; 1 ] ~write_set:[ 2 ] in
  let verdict = Sel.evaluate snap fp in
  check Alcotest.int "three candidates" 3 (List.length verdict.costs);
  List.iter
    (fun (_, c) ->
      check Alcotest.bool "finite cost" true (Float.is_finite c && c >= 0.))
    verdict.costs

let test_analytic_vs_measured_direction () =
  (* the analytic deadlock probability should point the same direction as a
     measured run: high contention -> more 2PL trouble *)
  let spec lam = { Ccdb_workload.Generator.default with arrival_rate = lam; size_min = 2; size_max = 3 } in
  let setup = { Ccdb_harness.Driver.default_setup with items = 12 } in
  let measured lam =
    (Ccdb_harness.Driver.run ~setup ~n_txns:150
       (Ccdb_harness.Driver.Pure Ccdb_model.Protocol.Two_pl) (spec lam)).summary
      .deadlock_aborts
  in
  let analytic lam =
    An.predicted_deadlock_probability
      { base_workload with arrival_rate = lam; items = 12; mean_size = 2.5 }
  in
  let m_low = measured 0.05 and m_high = measured 0.4 in
  let a_low = analytic 0.05 and a_high = analytic 0.4 in
  check Alcotest.bool "measured grows" true (m_high >= m_low);
  check Alcotest.bool "analytic grows" true (a_high > a_low)

let suites =
  suites
  @ [ ( "stl.analytic",
        [ Alcotest.test_case "snapshot sane" `Quick test_analytic_snapshot_sane;
          Alcotest.test_case "monotone in load" `Quick test_analytic_monotone_in_load;
          Alcotest.test_case "utilization clamped" `Quick test_analytic_utilization_clamped;
          Alcotest.test_case "of_spec" `Quick test_analytic_of_spec;
          Alcotest.test_case "selector-compatible" `Quick test_analytic_usable_by_selector;
          Alcotest.test_case "direction vs measured" `Slow test_analytic_vs_measured_direction ] ) ]

(* --- Monte-Carlo validation of the STL' dynamic program ----------------------- *)

(* STL' is the expected accumulated loss of a state-dependent pure-birth
   process: loss level l grows by delta at rate lambda_block(l), the reward
   is the integral of l over [0, U], capped at lambda_a.  Simulating that
   process directly is an independent oracle for the DP. *)

let monte_carlo_stl params ~lambda_loss ~u ~trials ~seed =
  let rng = Ccdb_util.Rng.create ~seed in
  let d = Sm.delta params in
  let one () =
    let rec go l remaining acc =
      if l >= params.Sm.lambda_a then acc +. (params.Sm.lambda_a *. remaining)
      else begin
        let b = Sm.lambda_block params ~lambda_loss:l in
        if b <= 0. then acc +. (l *. remaining)
        else begin
          let x = Ccdb_util.Rng.exponential rng ~mean:(1. /. b) in
          if x >= remaining then acc +. (l *. remaining)
          else go (l +. d) (remaining -. x) (acc +. (l *. x))
        end
      end
    in
    go lambda_loss u 0.
  in
  let sum = ref 0. in
  for _ = 1 to trials do
    sum := !sum +. one ()
  done;
  !sum /. float_of_int trials

let test_stl_matches_monte_carlo () =
  let cases =
    [ (params (), 0.2, 30.);
      (params (), 0.5, 60.);
      (params ~k:5. (), 0.3, 40.);
      (params ~lambda_a:2. ~lambda_r:0.1 ~lambda_w:0.1 (), 0.8, 25.) ]
  in
  List.iteri
    (fun i (p, l, u) ->
      let dp = Sm.stl' ~grid:64 ~max_levels:80 p ~lambda_loss:l ~u in
      let mc = monte_carlo_stl p ~lambda_loss:l ~u ~trials:60_000 ~seed:(i + 1) in
      let rel = abs_float (dp -. mc) /. Float.max 1e-9 mc in
      if rel > 0.05 then
        Alcotest.failf "case %d: DP %.4f vs MC %.4f (rel %.3f)" i dp mc rel)
    cases

let suites =
  suites
  @ [ ( "stl.monte_carlo",
        [ Alcotest.test_case "DP matches simulation" `Slow test_stl_matches_monte_carlo ] ) ]

(* --- selection criteria -------------------------------------------------------- *)

let test_response_time_criterion () =
  let rt = make_runtime () in
  let est = Est.create rt in
  (* make PA look fastest by observed response time *)
  let commit p s =
    let txn =
      Ccdb_model.Txn.make ~id:(Hashtbl.hash (p, s)) ~site:0 ~read_set:[ 0 ]
        ~write_set:[] ~compute_time:1. ~protocol:p
    in
    Rt.emit rt
      (Rt.Txn_committed { txn; submitted_at = 0.; executed_at = s; restarts = 0 })
  in
  commit Ccdb_model.Protocol.Two_pl 90.;
  commit Ccdb_model.Protocol.T_o 50.;
  commit Ccdb_model.Protocol.Pa 10.;
  let snap = Est.snapshot est in
  check (Alcotest.float 1e-9) "pa ema" 10.
    (snap.response_time Ccdb_model.Protocol.Pa);
  let fp = Sel.footprint (Rt.catalog rt) ~site:0 ~read_set:[ 0 ] ~write_set:[] in
  let v = Sel.evaluate ~criterion:Sel.Min_response_time snap fp in
  check Alcotest.bool "fastest protocol wins" true
    (Ccdb_model.Protocol.equal v.chosen Ccdb_model.Protocol.Pa);
  (* unobserved protocols fall back to the prior *)
  let fresh = Est.snapshot (Est.create (make_runtime ())) in
  check (Alcotest.float 1e-9) "prior" 60.
    (fresh.response_time Ccdb_model.Protocol.T_o)

let suites =
  suites
  @ [ ( "stl.criteria",
        [ Alcotest.test_case "response-time criterion" `Quick test_response_time_criterion ] ) ]
