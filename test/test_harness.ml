(* Integration tests: the experiment driver end to end, all modes. *)

module D = Ccdb_harness.Driver
module G = Ccdb_workload.Generator

let check = Alcotest.check

let small_setup =
  { D.default_setup with sites = 3; items = 12; replication = 2 }

let spec =
  { G.default with
    arrival_rate = 0.08;
    size_min = 1;
    size_max = 3;
    protocol_mix =
      [ (Ccdb_model.Protocol.Two_pl, 1.);
        (Ccdb_model.Protocol.T_o, 1.);
        (Ccdb_model.Protocol.Pa, 1.) ] }

let run_mode mode =
  D.run ~setup:small_setup ~n_txns:80 mode spec

let test_all_modes_complete_and_serialize () =
  List.iter
    (fun mode ->
      let r = run_mode mode in
      let name = D.mode_name mode in
      check Alcotest.int (name ^ " committed") 80 r.summary.committed;
      check Alcotest.bool (name ^ " serializable") true r.summary.serializable;
      check Alcotest.bool (name ^ " replicas") true r.summary.replica_consistent;
      check Alcotest.bool (name ^ " finite S") true
        (Float.is_finite r.summary.mean_system_time))
    [ D.Pure Ccdb_model.Protocol.Two_pl;
      D.Pure Ccdb_model.Protocol.T_o;
      D.Pure Ccdb_model.Protocol.Pa;
      D.Unified;
      D.Unified_forced Ccdb_model.Protocol.Two_pl;
      D.Unified_forced Ccdb_model.Protocol.T_o;
      D.Unified_forced Ccdb_model.Protocol.Pa;
      D.Unified_full_lock;
      D.Dynamic ]

let test_unified_runs_the_assigned_mix () =
  let r = run_mode D.Unified in
  (* all three protocols appear in the routing tally *)
  check Alcotest.int "three protocols" 3 (List.length r.decisions);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.decisions in
  check Alcotest.int "all txns routed" 80 total

let test_forced_mode_routes_everything_one_way () =
  let r = run_mode (D.Unified_forced Ccdb_model.Protocol.Pa) in
  (match r.decisions with
   | [ (p, 80) ] ->
     check Alcotest.bool "all PA" true
       (Ccdb_model.Protocol.equal p Ccdb_model.Protocol.Pa)
   | _ -> Alcotest.fail "expected a single protocol bucket")

(* A mode that forces one protocol reports it as the whole mix: the
   protocol each transaction ran, not the one the workload assigned. *)
let test_pure_modes_report_the_forced_protocol () =
  List.iter
    (fun (mode, forced) ->
      let name = D.mode_name mode in
      match (run_mode mode).decisions with
      | [ (p, n) ] ->
        check Alcotest.string (name ^ " protocol")
          (Ccdb_model.Protocol.to_string forced)
          (Ccdb_model.Protocol.to_string p);
        check Alcotest.int (name ^ " transactions") 80 n
      | _ -> Alcotest.failf "%s: expected a single protocol bucket" name)
    [ (D.Pure Ccdb_model.Protocol.Two_pl, Ccdb_model.Protocol.Two_pl);
      (D.Pure Ccdb_model.Protocol.T_o, Ccdb_model.Protocol.T_o);
      (D.Pure Ccdb_model.Protocol.Pa, Ccdb_model.Protocol.Pa);
      (D.Mvto, Ccdb_model.Protocol.T_o);
      (D.Conservative, Ccdb_model.Protocol.T_o) ]

let test_dynamic_routes_everything () =
  let r = run_mode D.Dynamic in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.decisions in
  check Alcotest.int "all txns routed" 80 total

let test_metrics_sanity () =
  let r = run_mode (D.Pure Ccdb_model.Protocol.Two_pl) in
  let s = r.summary in
  check Alcotest.bool "duration positive" true (s.duration > 0.);
  check Alcotest.bool "throughput positive" true (s.throughput > 0.);
  check Alcotest.bool "p95 >= mean/2" true
    (s.p95_system_time >= s.mean_system_time /. 2.);
  check Alcotest.bool "messages counted" true (s.messages_per_txn > 0.);
  check Alcotest.bool "kinds non-empty" true (s.messages_by_kind <> [])

let test_per_protocol_split () =
  let r = run_mode D.Unified in
  let split = Ccdb_harness.Metrics.per_protocol_system_time r.runtime in
  check Alcotest.int "three buckets" 3 (List.length split);
  let total =
    List.fold_left (fun acc (_, s) -> acc + Ccdb_util.Stats.count s) 0 split
  in
  check Alcotest.int "covers all" 80 total

let test_determinism_same_seed () =
  let a = run_mode (D.Pure Ccdb_model.Protocol.Pa) in
  let b = run_mode (D.Pure Ccdb_model.Protocol.Pa) in
  check (Alcotest.float 1e-12) "same mean S" a.summary.mean_system_time
    b.summary.mean_system_time;
  check Alcotest.int "same messages"
    (List.length a.summary.messages_by_kind)
    (List.length b.summary.messages_by_kind)

let test_seed_changes_run () =
  let a = run_mode (D.Pure Ccdb_model.Protocol.Pa) in
  let setup = { small_setup with seed = 99 } in
  let b = D.run ~setup ~n_txns:80 (D.Pure Ccdb_model.Protocol.Pa) spec in
  check Alcotest.bool "different runs" true
    (a.summary.mean_system_time <> b.summary.mean_system_time)

let test_run_replicated () =
  let mean, hw =
    D.run_replicated ~setup:small_setup ~n_txns:40 ~replications:3
      (D.Pure Ccdb_model.Protocol.T_o) spec
      (fun s -> s.mean_system_time)
  in
  check Alcotest.bool "mean positive" true (mean > 0.);
  check Alcotest.bool "halfwidth finite" true (Float.is_finite hw)

let suites =
  [ ( "harness.driver",
      [ Alcotest.test_case "all modes run" `Slow test_all_modes_complete_and_serialize;
        Alcotest.test_case "unified mix" `Quick test_unified_runs_the_assigned_mix;
        Alcotest.test_case "forced mode" `Quick test_forced_mode_routes_everything_one_way;
        Alcotest.test_case "pure modes' mix" `Quick
          test_pure_modes_report_the_forced_protocol;
        Alcotest.test_case "dynamic routes" `Quick test_dynamic_routes_everything;
        Alcotest.test_case "metrics sanity" `Quick test_metrics_sanity;
        Alcotest.test_case "per-protocol split" `Quick test_per_protocol_split;
        Alcotest.test_case "deterministic" `Quick test_determinism_same_seed;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_run;
        Alcotest.test_case "replications" `Quick test_run_replicated ] ) ]

(* --- experiments (quick mode smoke) ------------------------------------------- *)

let test_experiment_smoke () =
  (* the cheap experiments run end to end in quick mode and report their
     tables; the expensive sweeps are exercised by the bench binary *)
  List.iter
    (fun outcome ->
      let o = outcome ?quick:(Some true) () in
      check Alcotest.bool (o.Ccdb_harness.Experiments.id ^ " has rows") true
        (String.length (Ccdb_util.Table.render o.table) > 0);
      check Alcotest.bool (o.id ^ " rendered") true
        (String.length (Ccdb_harness.Experiments.render o) > 0))
    [ Ccdb_harness.Experiments.e4_single_item_writes;
      Ccdb_harness.Experiments.e9_correctness_counters;
      Ccdb_harness.Experiments.e10_preservation;
      Ccdb_harness.Experiments.x2_thomas_write_rule;
      Ccdb_harness.Experiments.x4_multiversion ]

let test_trace_records () =
  let r = run_mode (D.Pure Ccdb_model.Protocol.Pa) in
  ignore r;
  (* attach to a fresh run to observe events *)
  let setup = small_setup in
  let trace = ref None in
  let r =
    D.run ~setup ~n_txns:10
      ~observer:(fun rt -> trace := Some (Ccdb_harness.Trace.attach rt))
      (D.Pure Ccdb_model.Protocol.Two_pl) spec
  in
  ignore r;
  let trace = Option.get !trace in
  check Alcotest.bool "events recorded" true (Ccdb_harness.Trace.count trace > 0);
  let rendered = Ccdb_harness.Trace.render ~limit:5 trace in
  check Alcotest.bool "rendered" true (String.length rendered > 0)

let suites =
  suites
  @ [ ( "harness.experiments",
        [ Alcotest.test_case "quick smoke" `Slow test_experiment_smoke;
          Alcotest.test_case "trace" `Quick test_trace_records ] ) ]

(* --- timeline ------------------------------------------------------------------ *)

let test_timeline_buckets () =
  let r = run_mode (D.Pure Ccdb_model.Protocol.Two_pl) in
  let windows = Ccdb_harness.Metrics.timeline ~bucket:200. r.runtime in
  check Alcotest.bool "has windows" true (windows <> []);
  let total =
    List.fold_left
      (fun acc (w : Ccdb_harness.Metrics.window) -> acc + w.w_committed)
      0 windows
  in
  check Alcotest.int "covers all commits" 80 total;
  List.iter
    (fun (w : Ccdb_harness.Metrics.window) ->
      check (Alcotest.float 1e-9) "bucket width" 200. (w.w_end -. w.w_start);
      if w.w_committed > 0 then
        check Alcotest.bool "mean finite" true
          (Float.is_finite w.w_mean_system_time))
    windows;
  Alcotest.check_raises "bad bucket"
    (Invalid_argument "Metrics.timeline: bucket <= 0") (fun () ->
      ignore (Ccdb_harness.Metrics.timeline ~bucket:0. r.runtime))

let test_trace_replay () =
  let txn id at_site =
    Ccdb_model.Txn.make ~id ~site:at_site ~read_set:[ 0 ] ~write_set:[ 1 ]
      ~compute_time:1. ~protocol:Ccdb_model.Protocol.Pa
  in
  let trace = [ (1., txn 1 0); (5., txn 2 1); (5., txn 3 0) ] in
  check Alcotest.int "valid trace passes" 3
    (List.length (Ccdb_workload.Generator.of_trace trace));
  Alcotest.check_raises "decreasing times"
    (Invalid_argument "Generator.of_trace: times decrease") (fun () ->
      ignore (Ccdb_workload.Generator.of_trace [ (5., txn 1 0); (1., txn 2 0) ]));
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Generator.of_trace: duplicate id") (fun () ->
      ignore (Ccdb_workload.Generator.of_trace [ (1., txn 1 0); (2., txn 1 0) ]))

let suites =
  suites
  @ [ ( "harness.timeline",
        [ Alcotest.test_case "buckets" `Quick test_timeline_buckets;
          Alcotest.test_case "trace replay" `Quick test_trace_replay ] ) ]
