(* Fault injection: the plan grammar, the reliable transport, and full
   faulted runs of every system under a seeded 10%-loss / 2-crash plan,
   audited by the static analyzer. *)

module FP = Ccdb_sim.Fault_plan
module Net = Ccdb_sim.Net
module Engine = Ccdb_sim.Engine
module D = Ccdb_harness.Driver
module G = Ccdb_workload.Generator

let check = Alcotest.check

(* --- fault-plan grammar ------------------------------------------------ *)

let plan_of_string s =
  match FP.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "of_string %S: %s" s e

let test_plan_roundtrip () =
  let p =
    plan_of_string
      "drop=0.1,dup=0.02,delay=0.05x20,crash=1@400+300,seed=7,link=0>2/drop=0.5"
  in
  check Alcotest.int "seed" 7 (FP.seed p);
  check (Alcotest.float 1e-9) "default drop" 0.1 (FP.default_link p).FP.drop;
  check (Alcotest.float 1e-9) "override drop" 0.5
    (FP.link_for p ~src:0 ~dst:2).FP.drop;
  check (Alcotest.float 1e-9) "override inherits nothing" 0.
    (FP.link_for p ~src:0 ~dst:2).FP.duplicate;
  check Alcotest.bool "crashed at 500" true (FP.is_crashed p ~site:1 ~at:500.);
  check Alcotest.bool "recovered at 700" false
    (FP.is_crashed p ~site:1 ~at:700.);
  check Alcotest.int "max site" 2 (FP.max_site p);
  let p' = plan_of_string (FP.to_string p) in
  check Alcotest.string "round-trip" (FP.to_string p) (FP.to_string p')

let test_plan_none () =
  check Alcotest.string "empty plan prints none" "none" (FP.to_string FP.none);
  let p = plan_of_string "none" in
  check Alcotest.int "none max site" (-1) (FP.max_site p)

let test_plan_rejects () =
  let bad s =
    match FP.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "drop=1.5";
  (* the transport retransmits until delivery, so a link must deliver *)
  bad "drop=1";
  bad "link=0>1/drop=1";
  bad "drop=nope";
  bad "crash=1@400";
  bad "crash=1@100+0";
  bad "crash=1@100+300,crash=1@200+50";
  bad "frobnicate=1";
  bad "link=0-2/drop=0.5"

let test_plan_whitespace () =
  let a = plan_of_string " drop=0.1 ,\tcrash=1@400+300 ,  seed=7 " in
  let b = plan_of_string "drop=0.1,crash=1@400+300,seed=7" in
  check Alcotest.string "whitespace around tokens is ignored" (FP.to_string b)
    (FP.to_string a)

let test_plan_error_positions () =
  (* parse errors name the offending token and its 0-based position *)
  let err s =
    match FP.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e -> e
  in
  check Alcotest.string "unknown key"
    "fault plan: unknown key \"frobnicate\" in token \"frobnicate=1\" at \
     position 9"
    (err "drop=0.1,frobnicate=1");
  check Alcotest.string "bad seed"
    "fault plan: bad seed \"x\" in token \"seed=x\" at position 9"
    (err "drop=0.1,seed=x");
  check Alcotest.string "bad wipe"
    "fault plan: bad wipe \"maybe\" (expected true/false) in token \
     \"wipe=maybe\" at position 0"
    (err "wipe=maybe");
  check Alcotest.string "bad drop value"
    "fault plan: bad drop value \"oops\" in token \"drop=oops\" at position 0"
    (err "drop=oops");
  (* the position points at the token's first non-blank character *)
  check Alcotest.string "position skips leading blanks"
    "fault plan: expected key=value in token \"what\" at position 11"
    (err "drop=0.1,  what");
  (* role-targeted crash tokens: a bad role names the token and position
     like every other grammar error *)
  check Alcotest.string "bad acceptor index"
    "fault plan: bad acceptor index \"x\" in token \
     \"crash=acceptor:x@400+300\" at position 9"
    (err "drop=0.1,crash=acceptor:x@400+300");
  check Alcotest.string "bad crash target"
    "fault plan: bad crash target \"king\" (expected a site number, \
     \"coordinator\", or \"acceptor:K\") in token \"crash=king@400+300\" \
     at position 0"
    (err "crash=king@400+300")

(* --- role-targeted crash windows --------------------------------------- *)

let test_plan_role_crashes () =
  let p =
    plan_of_string
      "crash=coordinator@400+300,crash=acceptor:2@900+100,wipe=true,seed=7"
  in
  check Alcotest.int "two role crashes" 2 (List.length (FP.role_crashes p));
  check Alcotest.bool "no concrete crashes yet" true (FP.crashes p = []);
  (* role windows print and parse back *)
  let p' = plan_of_string (FP.to_string p) in
  check Alcotest.string "role round-trip" (FP.to_string p) (FP.to_string p');
  (* resolution pins each role to a site and folds it into the ordinary
     schedule: the coordinator is whatever the harness says, acceptor k is
     looked up through the callback *)
  let r = FP.resolve p ~coordinator:3 ~acceptor:(fun k -> k) in
  check Alcotest.bool "resolved plan has no role crashes" true
    (FP.role_crashes r = []);
  check Alcotest.bool "coordinator window landed on site 3" true
    (FP.is_crashed r ~site:3 ~at:500.);
  check Alcotest.bool "acceptor:2 window landed on site 2" true
    (FP.is_crashed r ~site:2 ~at:950.);
  check Alcotest.bool "recovered after the window" false
    (FP.is_crashed r ~site:3 ~at:701.);
  (* overlapping windows for the same role are rejected like per-site ones *)
  match FP.of_string "crash=coordinator@100+300,crash=coordinator@200+50" with
  | Ok _ -> Alcotest.fail "accepted overlapping coordinator windows"
  | Error _ -> ()

(* Which site a role lands on is known only once the workload is drawn, so
   [resolve] merges a resolved window with any overlapping window of its
   site into their union instead of raising. *)
let test_plan_resolve_merges_overlaps () =
  let windows p =
    List.map (fun (c : FP.crash) -> (c.site, c.at, c.recover_at)) (FP.crashes p)
  in
  let expect msg expected p ~coordinator =
    check
      Alcotest.(list (triple int (float 0.) (float 0.)))
      msg expected
      (windows (FP.resolve p ~coordinator ~acceptor:(fun k -> k)))
  in
  (* explicit + coordinator: the coordinator lands on site 2, inside its
     explicit window; site 1's window is untouched *)
  let p =
    plan_of_string
      "crash=2@100+200,crash=coordinator@150+100,crash=1@50+20,wipe=true,\
       seed=3"
  in
  expect "contained coordinator window absorbed"
    [ (1, 50., 70.); (2, 100., 300.) ]
    p ~coordinator:2;
  expect "coordinator elsewhere stays separate"
    [ (1, 50., 70.); (2, 100., 300.); (3, 150., 250.) ]
    p ~coordinator:3;
  expect "window sticking out extends the union" [ (2, 100., 350.) ]
    (plan_of_string "crash=2@100+200,crash=coordinator@250+100")
    ~coordinator:2;
  (* coordinator and acceptor:1 both resolve onto site 1 *)
  let roles = plan_of_string "crash=coordinator@400+300,crash=acceptor:1@600+300" in
  expect "coordinator and acceptor on one site" [ (1, 400., 900.) ] roles
    ~coordinator:1;
  expect "coordinator and acceptor on two sites"
    [ (0, 400., 700.); (1, 600., 900.) ]
    roles ~coordinator:0;
  (* windows that only touch do not overlap, so they stay apart *)
  expect "touching windows kept" [ (2, 100., 200.); (2, 200., 250.) ]
    (plan_of_string "crash=2@100+100,crash=coordinator@200+50")
    ~coordinator:2;
  (* explicit windows given to [make] must still not overlap *)
  match FP.of_string "crash=2@100+200,crash=2@150+100" with
  | Ok _ -> Alcotest.fail "accepted overlapping explicit windows"
  | Error _ -> ()

(* Randomized round-trip pin: [of_string (to_string p)] reproduces [p]
   exactly, component by component.  Generated floats are multiples of
   0.01 (probabilities) or 0.5 (times), which [to_string]'s %.12g prints
   losslessly; one crash per site keeps windows overlap-free and the
   delay pair is canonical (mean 0 whenever the probability is 0, since
   an unprintable field must sit at its default to round-trip).  A drop
   stays below 1, which plans reject. *)
let plan_gen =
  let open QCheck.Gen in
  let prob_upto n = map (fun k -> float_of_int k /. 100.) (int_range 0 n) in
  let prob = prob_upto 100 in
  let link_gen =
    map
      (fun ((drop, duplicate), delay) ->
        let delay_prob, delay_mean =
          match delay with
          | Some (p, m) when p > 0. -> (p, float_of_int m /. 2.)
          | _ -> (0., 0.)
        in
        { FP.drop; duplicate; delay_prob; delay_mean })
      (pair (pair (prob_upto 99) prob) (opt (pair prob (int_range 1 80))))
  in
  let crash_gen site =
    map
      (fun (a, d) ->
        let at = float_of_int a /. 2. in
        { FP.site; at; recover_at = at +. (float_of_int (d + 1) /. 2.) })
      (pair (int_range 0 2000) (int_range 0 600))
  in
  let crashes_gen =
    map
      (fun (a, b, c) -> List.filter_map Fun.id [ a; b; c ])
      (triple (opt (crash_gen 1)) (opt (crash_gen 2)) (opt (crash_gen 3)))
  in
  let links_gen =
    map
      (fun (a, b) ->
        List.filter_map Fun.id
          [ Option.map (fun l -> ((0, 1), l)) a;
            Option.map (fun l -> ((2, 0), l)) b ])
      (pair (opt link_gen) (opt link_gen))
  in
  (* at most one window per role, so same-role windows can never overlap *)
  let role_crash_gen role =
    map
      (fun (a, d) ->
        let r_at = float_of_int a /. 2. in
        { FP.role; r_at; r_recover_at = r_at +. (float_of_int (d + 1) /. 2.) })
      (pair (int_range 0 2000) (int_range 0 600))
  in
  let role_crashes_gen =
    map
      (fun (c, a) -> List.filter_map Fun.id [ c; a ])
      (pair
         (opt (role_crash_gen FP.Coordinator))
         (opt (map (fun (k, rc) -> { rc with FP.role = FP.Acceptor k })
                 (pair (int_range 0 4) (role_crash_gen FP.Coordinator)))))
  in
  map
    (fun ((default_link, links), ((crashes, role_crashes), (seed, wipe))) ->
      FP.make ~seed ~default_link ~links ~crashes ~role_crashes ~wipe ())
    (pair (pair link_gen links_gen)
       (pair (pair crashes_gen role_crashes_gen)
          (pair (int_range 0 9999) bool)))

let plan_equal a b =
  FP.seed a = FP.seed b
  && FP.wipe a = FP.wipe b
  && FP.default_link a = FP.default_link b
  && FP.links a = FP.links b
  && FP.crashes a = FP.crashes b
  && FP.role_crashes a = FP.role_crashes b

let test_plan_roundtrip_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"of_string (to_string p) = p"
       (QCheck.make ~print:FP.to_string plan_gen) (fun p ->
         match FP.of_string (FP.to_string p) with
         | Error e -> QCheck.Test.fail_reportf "did not parse back: %s" e
         | Ok p' -> plan_equal p p'))

(* --- reliable transport ------------------------------------------------ *)

let transport ?(sites = 3) plan =
  let engine = Engine.create () in
  let rng = Ccdb_util.Rng.create ~seed:99 in
  let net = Net.create engine rng ~sites Net.default_config in
  Net.install_faults net plan;
  (engine, net)

let test_transport_in_order_exactly_once () =
  let plan =
    FP.make ~seed:3
      ~default_link:
        { FP.drop = 0.3; duplicate = 0.25; delay_prob = 0.2; delay_mean = 15. }
      ()
  in
  let engine, net = transport plan in
  let received = ref [] in
  for i = 0 to 39 do
    Net.send net ~src:0 ~dst:1 ~kind:"m" (fun () ->
        received := i :: !received)
  done;
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "in order, exactly once"
    (List.init 40 (fun i -> i))
    (List.rev !received);
  let stats = Option.get (Net.fault_stats net) in
  check Alcotest.bool "losses happened" true (stats.Net.dropped > 0);
  check Alcotest.bool "retransmissions happened" true
    (stats.Net.retransmitted > 0);
  check Alcotest.int "logical count unchanged" 40 (Net.messages_sent net)

let test_transport_rides_out_crash () =
  let plan = plan_of_string "crash=1@0+100,seed=5" in
  let engine, net = transport plan in
  let delivered_at = ref (-1.) in
  Net.send net ~src:0 ~dst:1 ~kind:"m" (fun () ->
      delivered_at := Engine.now engine);
  ignore
    (Engine.schedule_at engine ~at:50. (fun () ->
         check Alcotest.bool "crashed at 50" true (Net.is_crashed net 1)));
  ignore
    (Engine.schedule_at engine ~at:150. (fun () ->
         check Alcotest.bool "recovered at 150" false (Net.is_crashed net 1)));
  Engine.run engine;
  check Alcotest.bool "delivered after recovery" true (!delivered_at >= 100.);
  let stats = Option.get (Net.fault_stats net) in
  check Alcotest.int "one crash" 1 stats.Net.crashes;
  check Alcotest.int "one recovery" 1 stats.Net.recoveries;
  check Alcotest.bool "suppressed deliveries counted" true
    (stats.Net.suppressed > 0)

let test_install_guards () =
  let engine = Engine.create () in
  let rng = Ccdb_util.Rng.create ~seed:1 in
  let net = Net.create engine rng ~sites:2 Net.default_config in
  (* plans must fit the topology *)
  Alcotest.check_raises "out-of-range site"
    (Invalid_argument "Net.install_faults: plan names an out-of-range site")
    (fun () -> Net.install_faults net (plan_of_string "crash=4@10+10"));
  Net.send net ~src:0 ~dst:1 ~kind:"m" (fun () -> ());
  (* too late once traffic has flowed *)
  (try
     Net.install_faults net FP.none;
     Alcotest.fail "installed after traffic"
   with Invalid_argument _ -> ());
  check Alcotest.bool "no plan" true (Net.fault_plan net = None);
  check Alcotest.bool "no stats" true (Net.fault_stats net = None)

(* --- the ack rule and deferred timers, at their boundaries -------------- *)

(* With jitter 0 every time is exact: a copy or an ack takes the base
   delay, 10 units unless a case says otherwise, and the first timer is due
   60 after its transmission.  A copy that arrives before its timer is due
   leaves the timer out of the heap; its arrival settles the timer at once
   if the ack will land before the due time on a live sender, and
   otherwise pushes it.  Each case sends one message 0 -> 1 at time 0 and
   checks the heap right after the send, the delivery times, the transport
   counters, the engine's event count and that the heap drains.  The exact
   event and retransmission counts show that no timer fires after its
   message was acked.  A transport that schedules every ack and timer
   gives the same deliveries and counters in every case, in 5, 8, 8, 4, 4,
   3, 3, 8 and 12 events. *)
let exact_transport ?(base_delay = 10.) plan =
  let engine = Engine.create () in
  let rng = Ccdb_util.Rng.create ~seed:99 in
  let net = Net.create engine rng ~sites:3 { Net.base_delay; jitter = 0. } in
  Net.install_faults net plan;
  (engine, net)

let stats ?(transmissions = 1) ?(dropped = 0) ?(duplicated = 0)
    ?(retransmitted = 0) ?(suppressed = 0) ?(acks_lost = 0) ?(crashes = 0)
    ?(recoveries = 0) () =
  { Net.transmissions; dropped; duplicated; retransmitted; suppressed;
    acks_lost; crashes; recoveries }

let stats_t =
  Alcotest.testable
    (fun ppf (s : Net.fault_stats) ->
      Format.fprintf ppf
        "tx %d, dropped %d, dup %d, retx %d, suppressed %d, acks lost %d, \
         crashes %d, recoveries %d"
        s.transmissions s.dropped s.duplicated s.retransmitted s.suppressed
        s.acks_lost s.crashes s.recoveries)
    ( = )

let boundary ?base_delay ?(setup = fun _ _ -> ()) plan ~queued ~delivered
    ~expect ~events =
  let engine, net = exact_transport ?base_delay plan in
  setup engine net;
  let times = ref [] in
  Net.send net ~src:0 ~dst:1 ~kind:"m" (fun () ->
      times := Engine.now engine :: !times);
  check Alcotest.int "queued after the send" queued (Engine.pending engine);
  Engine.run engine;
  check (Alcotest.list (Alcotest.float 0.)) "delivery times" delivered
    (List.rev !times);
  check stats_t "transport counters" expect (Option.get (Net.fault_stats net));
  check Alcotest.int "engine events" events (Engine.processed engine);
  check Alcotest.int "heap drained" 0 (Engine.pending engine)

(* With a 30-unit delay the ack lands at 60, exactly when the timer is
   due.  The timer's key is older, so it fires first and retransmits; the
   ack then settles the new timer, and the second copy's ack finds nothing
   to do. *)
let test_ack_at_due_time () =
  boundary ~base_delay:30. FP.none ~queued:1 ~delivered:[ 30. ]
    ~expect:(stats ~transmissions:2 ~retransmitted:1 ())
    ~events:4

(* The ack lands at 20.  With the sender down over [20, 120) or
   [15, 115), it lands at the crash instant or inside the window and is
   lost there, so the timer retransmits, first while the sender is down
   and then after its recovery.  With the sender down over [5, 20), it
   lands exactly at the recovery instant, reaches a live sender and
   settles the timer. *)
let test_ack_at_sender_crash () =
  let lost_on_crashed_sender plan =
    boundary (plan_of_string plan) ~queued:3 ~delivered:[ 10. ]
      ~expect:
        (stats ~transmissions:3 ~retransmitted:2 ~suppressed:1 ~crashes:1
           ~recoveries:1 ())
      ~events:6
  in
  lost_on_crashed_sender "crash=0@20+100";
  lost_on_crashed_sender "crash=0@15+100";
  boundary (plan_of_string "crash=0@5+15") ~queued:3 ~delivered:[ 10. ]
    ~expect:(stats ~crashes:1 ~recoveries:1 ())
    ~events:3

(* The only copy's ack is lost, so its arrival pushes the timer; the
   retransmission at 60 arrives at 70 and its ack settles the next
   timer. *)
let test_lost_ack_pushes_timer () =
  boundary (plan_of_string "link=1>0/drop=0.5,seed=7") ~queued:1
    ~delivered:[ 10. ]
    ~expect:(stats ~transmissions:2 ~retransmitted:1 ~acks_lost:1 ())
    ~events:3

(* Both copies arrive at 10; the first one's ack is lost, which pushes the
   timer, and the second one's ack cancels it. *)
let test_duplicate_first_ack_lost () =
  boundary (plan_of_string "dup=1,link=1>0/drop=0.5,seed=6") ~queued:2
    ~delivered:[ 10. ]
    ~expect:(stats ~duplicated:1 ~acks_lost:1 ())
    ~events:2

(* The link loses the first copy, so its timer enters the heap at once;
   the retransmission at 60 arrives at 70 and its ack settles the next
   timer. *)
let test_dropped_copy_timer_pushed () =
  boundary (plan_of_string "link=0>1/drop=0.5,seed=3") ~queued:1
    ~delivered:[ 70. ]
    ~expect:(stats ~transmissions:2 ~dropped:1 ~retransmitted:1 ())
    ~events:2

(* The destination is down [5, 105): the copies arriving at 10 and 70 are
   suppressed, each pushing its timer, and the one sent at 180 gets
   through. *)
let test_copy_to_crashed_destination () =
  boundary (plan_of_string "crash=1@5+100") ~queued:3 ~delivered:[ 190. ]
    ~expect:
      (stats ~transmissions:3 ~retransmitted:2 ~suppressed:2 ~crashes:1
         ~recoveries:1 ())
    ~events:7

(* The destination is down [5, 30005), far longer than the ~18.6k units
   a transport that gave up after 40 retransmissions would have tried.
   The copies sent at 0, 60, 180 and then every 480 units from 420 arrive
   at a crashed site and are suppressed; the one sent at 30,180 is the
   first to find it up, and its ack settles the message. *)
let test_outlives_long_outage () =
  boundary (plan_of_string "crash=1@5+30000") ~queued:3
    ~delivered:[ 30190. ]
    ~expect:
      (stats ~transmissions:66 ~retransmitted:65 ~suppressed:65 ~crashes:1
         ~recoveries:1 ())
    ~events:133

(* --- full faulted runs, audited ---------------------------------------- *)

let spec =
  { G.default with
    arrival_rate = 0.08;
    size_min = 1;
    size_max = 3;
    protocol_mix =
      [ (Ccdb_model.Protocol.Two_pl, 1.);
        (Ccdb_model.Protocol.T_o, 1.);
        (Ccdb_model.Protocol.Pa, 1.) ] }

(* the workload of [ccdb_cli run --lambda 0.08], at which the faulted
   smoke runs of [bin/dune] arrive *)
let spec_cli =
  { G.default with
    arrival_rate = 0.08;
    protocol_mix =
      [ (Ccdb_model.Protocol.Two_pl, 1.);
        (Ccdb_model.Protocol.T_o, 1.);
        (Ccdb_model.Protocol.Pa, 1.) ] }

(* the acceptance plan: 10% loss everywhere, two mid-run site crashes *)
let acceptance_plan =
  plan_of_string "drop=0.1,crash=1@400+300,crash=2@1200+300,seed=11"

let all_modes = D.modes

let test_every_system_survives_the_acceptance_plan () =
  List.iter
    (fun mode ->
      let name = D.mode_name mode in
      let r = D.run ~n_txns:200 ~audit:true ~faults:acceptance_plan mode spec in
      check Alcotest.int (name ^ " all txns commit") 200 r.summary.committed;
      (* in the Mvto mode both flags report MVTO's own invariant
         ([Mvto_system.verify]) in place of the single-version checks *)
      check Alcotest.bool (name ^ " serializable") true r.summary.serializable;
      check Alcotest.bool (name ^ " replicas consistent") true
        r.summary.replica_consistent;
      let report = Option.get r.audit in
      check Alcotest.int
        (name ^ " zero analyzer errors")
        0
        (List.length (Ccdb_analysis.Report.errors report));
      (* crash mid-run leaks no locks: the leak check never fires, at any
         severity, so every lock table drained after recovery *)
      check Alcotest.int
        (name ^ " no leaked locks")
        0
        (List.length
           (List.filter
              (fun (f : Ccdb_analysis.Finding.t) -> f.check = "lock.leaked")
              (Ccdb_analysis.Report.findings report)));
      let stats = Option.get r.summary.transport in
      check Alcotest.bool (name ^ " dropped messages were retried") true
        (stats.Net.retransmitted > 0);
      check Alcotest.int (name ^ " both crashes happened") 2 stats.Net.crashes;
      check Alcotest.int (name ^ " both sites recovered") 2
        stats.Net.recoveries)
    all_modes

let test_faulted_run_is_deterministic () =
  let go () =
    let r =
      D.run ~n_txns:120 ~faults:acceptance_plan
        (D.Pure Ccdb_model.Protocol.Two_pl) spec
    in
    ( r.summary.committed,
      r.summary.duration,
      r.summary.site_aborts,
      (Option.get r.summary.transport).Net.transmissions )
  in
  let a = go () and b = go () in
  check Alcotest.bool "same seeds, same run" true (a = b)

let test_crashes_cause_site_aborts_for_2pl () =
  (* a long dense crash window across a busy run must hit some waiting txn *)
  let plan = plan_of_string "crash=1@300+400,crash=2@900+400,seed=4" in
  let r =
    D.run ~n_txns:150 ~faults:plan (D.Pure Ccdb_model.Protocol.Two_pl) spec
  in
  check Alcotest.int "all commit anyway" 150 r.summary.committed;
  check Alcotest.bool "crash-triggered aborts recorded" true
    (r.summary.site_aborts > 0)

(* An 80%-loss run at the smoke runs' sizes, audited with its store
   checks on, so the audit's Theorem 2 verdict is cross-checked against
   the log scan: every transaction commits, none is aborted for a site
   failure, since no site crashes, and restarts average at most
   [max_restarts] per transaction.  A message needs five transmissions
   on average, but it arrives, so nothing restarts a transaction for
   waiting. *)
let lossy_run ~n_txns ~max_restarts mode =
  let name = D.mode_name mode in
  let setup = { D.default_setup with items = 24 } in
  let r =
    D.run ~setup ~n_txns ~audit:true
      ~faults:(plan_of_string "drop=0.8,seed=1") mode spec_cli
  in
  check Alcotest.int (name ^ " all commit") n_txns r.summary.committed;
  check Alcotest.int (name ^ " zero analyzer errors") 0
    (List.length (Ccdb_analysis.Report.errors (Option.get r.audit)));
  check Alcotest.int (name ^ " no site aborts") 0 r.summary.site_aborts;
  if r.summary.restarts_per_txn > max_restarts then
    Alcotest.failf "%s: %.3f restarts per transaction, above %g" name
      r.summary.restarts_per_txn max_restarts

(* [ccdb_cli run --txns 5 --plan drop=0.8,seed=1 --lambda 0.08] once
   crashed in [unified] and [full-lock]: a restarted transaction's u-abort
   ran out of transport retries, and the next attempt's u-req found the
   old entry still queued ([Semi_lock_queue.request: duplicate request]).
   The transport now delivers every message in order, so the u-abort
   always arrives first. *)
let test_lost_abort_before_next_attempt () =
  List.iter
    (lossy_run ~n_txns:5 ~max_restarts:2.)
    [ D.Unified; D.Unified_full_lock; D.Dynamic ]

(* [ccdb_cli run --txns 20 --plan drop=0.8,seed=1 --lambda 0.08] used to
   exhaust its event budget in these four modes: a stall watchdog restarted every
   transaction silent for 1500 units, and at 80% loss a single delivery
   often takes longer than that, so some transactions restarted forever. *)
let test_lossy_repro_commits () =
  List.iter
    (lossy_run ~n_txns:20 ~max_restarts:2.)
    [ D.Unified; D.Pure Ccdb_model.Protocol.Two_pl; D.Dynamic; D.Mvto ]

let test_fault_free_numbers_do_not_drift () =
  (* the no-plan send path must be byte-identical to the pre-fault code:
     pin a fault-free run's headline numbers *)
  let r = D.run ~n_txns:80 (D.Pure Ccdb_model.Protocol.Two_pl) spec in
  check Alcotest.int "committed" 80 r.summary.committed;
  check Alcotest.bool "no transport stats without a plan" true
    (r.summary.transport = None);
  check Alcotest.int "no site aborts without a plan" 0 r.summary.site_aborts

(* The driver resolves [crash=coordinator@...] to the home site of the
   first arrival, which it peeks before the plan is installed.  The sites
   the window lands on were recorded from the build that drew every
   arrival up front; the eager [Generator.generate] over the workload RNG
   (seed + 7919) names the same first arrival. *)
let test_coordinator_role_resolution () =
  let plan =
    plan_of_string "drop=0.05,crash=coordinator@400+300,wipe=true,seed=11"
  in
  let spec =
    { G.default with
      arrival_rate = 0.12;
      size_max = 4;
      protocol_mix =
        [ (Ccdb_model.Protocol.Two_pl, 1.); (Ccdb_model.Protocol.T_o, 1.);
          (Ccdb_model.Protocol.Pa, 1.) ] }
  in
  let crashed seed =
    let sites = ref [] in
    let setup =
      { D.default_setup with
        items = 12; seed; commit = Ccdb_protocols.Runtime.Paxos { f = 1 } }
    in
    ignore
      (D.run ~setup ~n_txns:40 ~faults:plan
         ~observer:(fun rt ->
           Ccdb_protocols.Runtime.subscribe rt (function
             | Ccdb_protocols.Runtime.Site_crashed { site; _ } ->
               sites := site :: !sites
             | _ -> ()))
         D.Unified spec);
    let first_home =
      match
        G.generate
          (G.create spec ~sites:setup.sites ~items:setup.items
             (Ccdb_util.Rng.create ~seed:(seed + 7919)))
          ~n:1 ~start:0.
      with
      | [ (_, txn) ] -> txn.Ccdb_model.Txn.site
      | _ -> Alcotest.fail "one arrival expected"
    in
    check (Alcotest.list Alcotest.int)
      (Printf.sprintf "seed %d: the first arrival's home crashes" seed)
      [ first_home ] !sites;
    first_home
  in
  check (Alcotest.list Alcotest.int) "crashed sites, seeds 1-8"
    [ 0; 0; 0; 2; 0; 0; 2; 3 ]
    (List.map crashed [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let suites =
  [ ( "faults.plan",
      [ Alcotest.test_case "grammar round-trip" `Quick test_plan_roundtrip;
        Alcotest.test_case "none" `Quick test_plan_none;
        Alcotest.test_case "rejects" `Quick test_plan_rejects;
        Alcotest.test_case "whitespace tolerant" `Quick test_plan_whitespace;
        Alcotest.test_case "error positions" `Quick test_plan_error_positions;
        Alcotest.test_case "role-targeted crashes" `Quick
          test_plan_role_crashes;
        Alcotest.test_case "resolve merges overlapping windows" `Quick
          test_plan_resolve_merges_overlaps;
        test_plan_roundtrip_random ] );
    ( "faults.transport",
      [ Alcotest.test_case "in-order exactly-once" `Quick
          test_transport_in_order_exactly_once;
        Alcotest.test_case "rides out a crash" `Quick
          test_transport_rides_out_crash;
        Alcotest.test_case "install guards" `Quick test_install_guards;
        Alcotest.test_case "ack lands at the due time" `Quick
          test_ack_at_due_time;
        Alcotest.test_case "ack at the sender's crash and recovery" `Quick
          test_ack_at_sender_crash;
        Alcotest.test_case "lost ack pushes its timer" `Quick
          test_lost_ack_pushes_timer;
        Alcotest.test_case "duplicate whose first ack is lost" `Quick
          test_duplicate_first_ack_lost;
        Alcotest.test_case "dropped copy pushes its timer" `Quick
          test_dropped_copy_timer_pushed;
        Alcotest.test_case "copy to a crashed destination" `Quick
          test_copy_to_crashed_destination;
        Alcotest.test_case
          "a message outlives an outage longer than the old retry budget"
          `Quick test_outlives_long_outage ] );
    ( "faults.systems",
      [ Alcotest.test_case "acceptance plan, all systems" `Slow
          test_every_system_survives_the_acceptance_plan;
        Alcotest.test_case "deterministic" `Quick
          test_faulted_run_is_deterministic;
        Alcotest.test_case "2PL crash aborts" `Quick
          test_crashes_cause_site_aborts_for_2pl;
        Alcotest.test_case "lost abort before the next attempt" `Slow
          test_lost_abort_before_next_attempt;
        Alcotest.test_case "80% loss: 20 txns commit, no site aborts" `Slow
          test_lossy_repro_commits;
        Alcotest.test_case "fault-free path unchanged" `Quick
          test_fault_free_numbers_do_not_drift;
        Alcotest.test_case "coordinator role resolves as before" `Quick
          test_coordinator_role_resolution ] ) ]
