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
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_run ] ) ]

(* --- experiments (quick mode smoke) ------------------------------------------- *)

let test_experiment_smoke () =
  (* the cheap experiments run end to end in quick mode and report their
     tables; the expensive sweeps are exercised by the bench binary *)
  let cheap = [ "E4"; "E9"; "E10"; "X2"; "X4" ] in
  let staged =
    List.filter
      (fun s -> List.mem (Ccdb_harness.Experiments.id s) cheap)
      (Ccdb_harness.Experiments.staged ~quick:true ())
  in
  check (Alcotest.list Alcotest.string) "picked by id" cheap
    (List.map Ccdb_harness.Experiments.id staged);
  List.iter
    (fun s ->
      let o = Ccdb_harness.Experiments.run_one s in
      check Alcotest.bool (o.Ccdb_harness.Experiments.id ^ " has rows") true
        (String.length (Ccdb_util.Table.render o.table) > 0);
      check Alcotest.bool (o.id ^ " rendered") true
        (String.length (Ccdb_harness.Experiments.render o) > 0))
    staged

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
  let rendered = Ccdb_harness.Trace.render trace in
  check Alcotest.int "one line per event" (Ccdb_harness.Trace.count trace)
    (List.length (String.split_on_char '\n' rendered))

let suites =
  suites
  @ [ ( "harness.experiments",
        [ Alcotest.test_case "quick smoke" `Slow test_experiment_smoke;
          Alcotest.test_case "trace" `Quick test_trace_records ] ) ]

(* --- the runtime's S summary against a reference -------------------------- *)

module Rt = Ccdb_protocols.Runtime

(* The mean by the update rule [Stats] applied when it kept every
   sample, over the samples in the order given. *)
let welford xs =
  let n = ref 0 and mean = ref 0. in
  List.iter
    (fun x ->
      incr n;
      mean := !mean +. ((x -. !mean) /. float_of_int !n))
    xs;
  !mean

(* A test-side subscriber keeps every commit's protocol, S and
   [executed_at] in emission order; the summary computed online must
   match what the kept list gives, the means and the duration bit for
   bit, and p95 within one bucket width (1/16) above the exact
   nearest-rank sample. *)
let check_summary_against_reference ?faults ?(setup = small_setup) mode =
  let name = D.mode_name mode in
  let kept = ref [] in
  let r =
    D.run ~setup ~n_txns:80 ?faults
      ~observer:(fun rt ->
        Rt.subscribe rt (function
          | Rt.Txn_committed { txn; submitted_at; executed_at; _ } ->
            kept :=
              (txn.Ccdb_model.Txn.protocol, executed_at -. submitted_at,
               executed_at)
              :: !kept
          | _ -> ()))
      mode spec
  in
  let kept = List.rev !kept in
  let s = r.summary in
  let bit_equal what expected got =
    check Alcotest.int64 (name ^ " " ^ what) (Int64.bits_of_float expected)
      (Int64.bits_of_float got)
  in
  let system_times = List.map (fun (_, x, _) -> x) kept in
  check Alcotest.int (name ^ " committed") 80 s.committed;
  check Alcotest.int (name ^ " kept") 80 (List.length kept);
  bit_equal "mean S" (welford system_times) s.mean_system_time;
  bit_equal "duration"
    (List.fold_left (fun acc (_, _, at) -> Float.max acc at) 0. kept)
    s.duration;
  let split = Ccdb_harness.Metrics.per_protocol_system_time r.runtime in
  List.iter
    (fun p ->
      let pname = name ^ " " ^ Ccdb_model.Protocol.to_string p in
      let xs =
        List.filter_map
          (fun (q, x, _) -> if Ccdb_model.Protocol.equal p q then Some x else None)
          kept
      in
      match xs, List.find_opt (fun (q, _) -> Ccdb_model.Protocol.equal p q) split with
      | [], None -> ()
      | [], Some _ -> Alcotest.failf "%s: no commits, yet a mean" pname
      | _, None -> Alcotest.failf "%s: commits, yet no mean" pname
      | xs, Some (_, stats) ->
        check Alcotest.int (pname ^ " count") (List.length xs)
          (Ccdb_util.Stats.count stats);
        bit_equal (Ccdb_model.Protocol.to_string p ^ " mean S") (welford xs)
          (Ccdb_util.Stats.mean stats))
    Ccdb_model.Protocol.all;
  let sorted = Array.of_list system_times in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let exact =
    sorted.(max 0 (int_of_float (ceil (0.95 *. float_of_int n)) - 1))
  in
  let p95 = s.p95_system_time in
  if not (exact <= p95 && p95 <= exact *. (1. +. (1. /. 16.))) then
    Alcotest.failf "%s: p95 %g outside [%g, %g]" name p95 exact
      (exact *. (1. +. (1. /. 16.)))

let test_summary_matches_reference_fault_free () =
  List.iter check_summary_against_reference
    [ D.Pure Ccdb_model.Protocol.Two_pl;
      D.Pure Ccdb_model.Protocol.T_o;
      D.Pure Ccdb_model.Protocol.Pa;
      D.Mvto;
      D.Conservative;
      D.Unified;
      D.Unified_forced Ccdb_model.Protocol.Two_pl;
      D.Unified_forced Ccdb_model.Protocol.T_o;
      D.Unified_forced Ccdb_model.Protocol.Pa;
      D.Unified_full_lock;
      D.Dynamic ]

let test_summary_matches_reference_paxos () =
  let faults =
    match
      Ccdb_sim.Fault_plan.of_string
        "drop=0.05,crash=coordinator@400+300,wipe=true,seed=11"
    with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  check_summary_against_reference ~faults
    ~setup:{ small_setup with commit = Rt.Paxos { f = 1 } }
    D.Unified

(* Emitting allocates nothing: folding a commit into the summary costs no
   words, and neither does fanning an event out to a listener (a closure
   per event made an ignored event cost 4 words). *)
let test_commit_allocates_nothing () =
  let catalog = Ccdb_storage.Catalog.create ~items:2 ~sites:2 ~replication:1 in
  let rt =
    Rt.create ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  let txn =
    Ccdb_model.Txn.make ~id:1 ~site:0 ~read_set:[ 0 ] ~write_set:[]
      ~compute_time:1. ~protocol:Ccdb_model.Protocol.Pa
  in
  let commit =
    Rt.Txn_committed { txn; submitted_at = 2.; executed_at = 39.5; restarts = 0 }
  and other = Rt.Request_withdrawn { txn = 1; item = 0; site = 0; at = 2. } in
  let words_per e =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      Rt.emit rt e
    done;
    (Gc.minor_words () -. before) /. 10_000.
  in
  let heard = ref 0 in
  Rt.subscribe rt (fun _ -> incr heard);
  (* the first commit sizes the histogram *)
  Rt.emit rt commit;
  let ignored = words_per other and committed = words_per commit in
  check Alcotest.int "listener called" 20_001 !heard;
  if committed > 0.01 || ignored > 0.01 then
    Alcotest.failf "a commit allocates %.2f words, an ignored event %.2f"
      committed ignored

(* Lock-point events are built only for a consumer: the WAL of a durable
   runtime, a listener or an observer. *)
let test_consumer_predicate () =
  let catalog = Ccdb_storage.Catalog.create ~items:2 ~sites:2 ~replication:1 in
  let runtime ?faults () =
    Rt.create ?faults ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  let plain = runtime () in
  check Alcotest.bool "plain run" false (Rt.has_consumer plain);
  Rt.subscribe plain ignore;
  check Alcotest.bool "under a listener" true (Rt.has_consumer plain);
  let observed = runtime () in
  Rt.observe observed ignore;
  check Alcotest.bool "under an observer" true (Rt.has_consumer observed);
  let plan wipe =
    match Ccdb_sim.Fault_plan.of_string ("drop=0.1,wipe=" ^ wipe) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "fail-pause faults" false
    (Rt.has_consumer (runtime ~faults:(plan "false") ()));
  check Alcotest.bool "wipe=true" true
    (Rt.has_consumer (runtime ~faults:(plan "true") ()))

(* A run without a consumer builds no lock-point event, and a no-op
   listener turns them all on: in every mode both runs commit the same
   work at the same instants, and a traced run's digest does not move
   under the listener either. *)
let test_noop_listener_changes_nothing () =
  let modes =
    [ D.Pure Ccdb_model.Protocol.Two_pl; D.Pure Ccdb_model.Protocol.T_o;
      D.Pure Ccdb_model.Protocol.Pa; D.Unified;
      D.Unified_forced Ccdb_model.Protocol.Two_pl;
      D.Unified_forced Ccdb_model.Protocol.T_o;
      D.Unified_forced Ccdb_model.Protocol.Pa; D.Unified_full_lock; D.Dynamic;
      D.Mvto; D.Conservative ]
  in
  let run ?(listen = false) ?(trace = false) mode =
    let traced = ref None in
    let r =
      D.run ~setup:small_setup ~n_txns:80
        ~observer:(fun rt ->
          if listen then Rt.subscribe rt ignore;
          if trace then traced := Some (Ccdb_harness.Trace.attach rt))
        mode spec
    in
    let logs =
      Ccdb_storage.Store.logs (Rt.store r.runtime)
      |> List.map (fun ((item, site), entries) ->
             Printf.sprintf "%d/%d:%s" item site
               (String.concat ","
                  (List.map
                     (fun (e : Ccdb_storage.Store.log_entry) ->
                       Printf.sprintf "%d%s%h" e.txn
                         (Ccdb_model.Op.to_string e.kind) e.at)
                     entries)))
      |> String.concat ";"
    in
    let digest =
      match !traced with
      | Some tr ->
        Digest.to_hex (Digest.string (Ccdb_harness.Trace.render tr))
      | None -> ""
    in
    ( Marshal.to_string r.summary [ Marshal.No_sharing ],
      r.decisions,
      Ccdb_sim.Engine.processed (Rt.engine r.runtime),
      Digest.to_hex (Digest.string logs),
      digest )
  in
  List.iter
    (fun mode ->
      let name = D.mode_name mode in
      let summary, decisions, events, logs, _ = run mode in
      let summary', decisions', events', logs', _ = run ~listen:true mode in
      check Alcotest.string (name ^ " summary") summary summary';
      check Alcotest.bool (name ^ " decisions") true (decisions = decisions');
      check Alcotest.int (name ^ " engine events") events events';
      check Alcotest.string (name ^ " store logs") logs logs';
      let _, _, _, _, traced = run ~trace:true mode in
      let _, _, _, _, traced' = run ~trace:true ~listen:true mode in
      check Alcotest.string (name ^ " trace digest") traced traced')
    modes

let suites =
  suites
  @ [ ( "harness.consumers",
        [ Alcotest.test_case "consumer predicate" `Quick
            test_consumer_predicate;
          Alcotest.test_case "a no-op listener changes nothing" `Quick
            test_noop_listener_changes_nothing ] ) ]

let suites =
  suites
  @ [ ( "harness.system_time",
        [ Alcotest.test_case "11 modes match the reference" `Quick
            test_summary_matches_reference_fault_free;
          Alcotest.test_case "Paxos f=1 fail-stop matches the reference" `Quick
            test_summary_matches_reference_paxos;
          Alcotest.test_case "a commit allocates nothing" `Quick
            test_commit_allocates_nothing ] ) ]
