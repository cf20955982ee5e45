(* Observers on a worker domain: the ring that feeds them, the guarantee
   that pipelined observation changes no output, exceptions at the join,
   and an exhausted event budget reported after it.

   These suites run before [Test_parallel], whose persistent pools would
   otherwise hold every spare core and keep observers inline. *)

module Rt = Ccdb_protocols.Runtime
module D = Ccdb_harness.Driver
module G = Ccdb_workload.Generator
module P = Ccdb_model.Protocol
module Pool = Ccdb_util.Pool
module Pipeline = Ccdb_util.Pipeline
module Collector = Ccdb_insights.Collector

let check = Alcotest.check

(* Whether a run started now would feed its observers on a worker. *)
let spare_core () =
  let ok = Pool.reserve_domain () in
  if ok then Pool.release_domain ();
  ok

let self () = (Domain.self () :> int)

(* --- the ring ------------------------------------------------------------- *)

let ring_gen =
  QCheck.(
    quad
      (make
         ~print:string_of_int
         Gen.(oneof [ return 1; return 2; int_range 3 64 ]))
      small_nat (int_bound 3000)
      (small_list (int_bound 300)))

(* Items come out in the order they went in, whatever the capacity, batch
   and consumer speed, and once consumed none is reachable from the ring:
   each is a fresh box watched by a weak pointer, and after the join and a
   full major collection every box is gone while the ring itself is still
   live. *)
let test_ring_order_and_release =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"ring: output = input, nothing retained"
       ring_gen
       (fun (capacity, batch, n, delays) ->
         let batch = 1 + (batch mod capacity) in
         let delays = Array.of_list (0 :: delays) in
         let out = ref [] in
         let consume (v : int ref) =
           out := !v :: !out;
           for _ = 1 to delays.(!v mod Array.length delays) do
             Domain.cpu_relax ()
           done
         in
         let ring = Pipeline.create ~capacity ~batch ~dummy:(ref (-1)) consume in
         let probes = Weak.create (max 1 n) in
         for i = 0 to n - 1 do
           let v = ref i in
           Weak.set probes i (Some v);
           Pipeline.push ring v
         done;
         Pipeline.finish ring;
         Gc.full_major ();
         let retained = ref 0 in
         for i = 0 to n - 1 do
           if Weak.check probes i then incr retained
         done;
         ignore (Sys.opaque_identity ring);
         List.rev !out = List.init n Fun.id && !retained = 0))

exception Consumer_failed of int

let test_ring_failure_at_join () =
  let seen = ref [] in
  let ring =
    Pipeline.create ~capacity:4 ~batch:2 ~dummy:(-1) (fun x ->
        if x = 5 then raise (Consumer_failed x);
        seen := x :: !seen)
  in
  for i = 0 to 99 do
    Pipeline.push ring i
  done;
  Alcotest.check_raises "the consumer's exception surfaces at finish"
    (Consumer_failed 5) (fun () -> Pipeline.finish ring);
  check Alcotest.(list int) "items before it were consumed" [ 0; 1; 2; 3; 4 ]
    (List.rev !seen);
  seen := [];
  List.iter (Pipeline.push ring) [ 7; 8 ];
  Pipeline.finish ring;
  check Alcotest.(list int) "the ring is reusable" [ 7; 8 ] (List.rev !seen)

let test_pool_tasks_run_inline () =
  check Alcotest.bool "outside a task" false (Pool.in_task ());
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          List.iter
            (fun (in_task, reserved) ->
              check Alcotest.bool "in a task" true in_task;
              check Alcotest.bool "no domain reserved in a task" false reserved)
            (Pool.map p
               (fun () ->
                 let reserved = Pool.reserve_domain () in
                 if reserved then Pool.release_domain ();
                 (Pool.in_task (), reserved))
               [ (); (); () ])))
    [ 1; 2 ];
  check Alcotest.bool "outside again" false (Pool.in_task ())

(* --- pipelined = inline ----------------------------------------------------- *)

let spec =
  { G.default with
    arrival_rate = 0.1;
    size_min = 1;
    size_max = 3;
    protocol_mix = [ (P.Two_pl, 1.); (P.T_o, 1.); (P.Pa, 1.) ] }

let setup = { D.default_setup with items = 12 }

let all_modes =
  [ D.Pure P.Two_pl; D.Pure P.T_o; D.Pure P.Pa; D.Mvto; D.Conservative;
    D.Unified; D.Unified_forced P.Two_pl; D.Unified_forced P.T_o;
    D.Unified_forced P.Pa; D.Unified_full_lock; D.Dynamic ]

let plan text =
  match Ccdb_sim.Fault_plan.of_string text with
  | Ok p -> Some p
  | Error e -> Alcotest.failf "bad plan %s: %s" text e

let fail_stop = "drop=0.05,crash=coordinator@400+300,wipe=true,seed=11"

let two_pc = Rt.Paxos { f = 0 }

let plans =
  [ ("fault-free", None, two_pc);
    ( "fail-pause",
      plan "drop=0.1,crash=1@400+300,crash=2@1200+300,seed=11",
      two_pc );
    ("fail-stop 2pc", plan fail_stop, two_pc);
    ("fail-stop paxos f=1", plan fail_stop, Rt.Paxos { f = 1 }) ]

(* One differential-audited run with the insights collector: the audit
   report (findings in order, events scanned), the insights document, and
   the domain the observers ran on. *)
let observed_run ?faults ~commit mode =
  let collector = ref None and observed_on = ref None in
  let r =
    D.run ~setup:{ setup with commit } ~n_txns:60 ~audit:true
      ~audit_path:D.Differential ?faults
      ~observer:(fun rt ->
        collector := Some (Collector.attach ~window:300. rt);
        Rt.observe rt (fun _ ->
            if !observed_on = None then observed_on := Some (self ())))
      mode spec
  in
  let report = Option.get r.audit in
  ( Ccdb_analysis.Report.events_scanned report,
    List.map
      (Format.asprintf "%a" Ccdb_analysis.Finding.pp)
      (Ccdb_analysis.Report.findings report),
    Ccdb_util.Json.to_string
      (Collector.to_json (Option.get !collector)),
    !observed_on )

let test_pipelined_matches_inline () =
  let pipelining = spare_core () in
  List.iter
    (fun (plan_name, faults, commit) ->
      List.iter
        (fun mode ->
          let name = D.mode_name mode ^ ", " ^ plan_name in
          let events, findings, doc, on = observed_run ?faults ~commit mode in
          let inline =
            Pool.with_pool ~jobs:1 (fun pool ->
                List.hd
                  (Pool.map pool
                     (fun () -> observed_run ?faults ~commit mode)
                     [ () ]))
          in
          let events', findings', doc', on' = inline in
          check Alcotest.int (name ^ ": events scanned") events' events;
          check Alcotest.(list string) (name ^ ": findings") findings'
            findings;
          check Alcotest.string (name ^ ": insights document") doc' doc;
          check Alcotest.bool (name ^ ": pipelined on a worker") pipelining
            (on <> Some (self ()));
          check Alcotest.(option int) (name ^ ": inline in a pool task")
            (Some (self ())) on')
        all_modes)
    plans

exception Observer_failed

let test_observer_exception_at_join () =
  let spare = spare_core () and committed = ref 0 in
  (match
     D.run ~setup ~n_txns:40
       ~observer:(fun rt ->
         Rt.observe rt (function
           | Rt.Txn_committed _ ->
             incr committed;
             if !committed = 3 then raise Observer_failed
           | _ -> ()))
       D.Unified spec
   with
   | _ -> Alcotest.fail "the observer's exception was lost"
   | exception Observer_failed -> ());
  check Alcotest.int "the observer stopped at its failure" 3 !committed;
  check Alcotest.bool "the worker was joined and its core given back" spare
    (spare_core ());
  let r = D.run ~setup ~n_txns:40 ~audit:true D.Unified spec in
  check Alcotest.bool "the next run audits clean" true
    (Ccdb_analysis.Report.is_clean (Option.get r.audit))

(* An observer registered while a run feeds a worker sees exactly the
   events emitted from then on, starting with the one being emitted. *)
let test_observe_mid_run () =
  let late_run () =
    let registered = ref false and after = ref 0 and seen = ref 0 in
    let r =
      D.run ~setup ~n_txns:40 ~audit:true
        ~observer:(fun rt ->
          Rt.subscribe rt (fun e ->
              if !registered then incr after
              else
                match e with
                | Rt.Txn_committed _ ->
                  registered := true;
                  Rt.observe rt (fun _ -> incr seen)
                | _ -> ()))
        D.Unified spec
    in
    (Option.get r.audit, !after, !seen)
  in
  let report, after, seen = late_run () in
  check Alcotest.int "pipelined: every later event" (after + 1) seen;
  let report', after', seen' =
    Pool.with_pool ~jobs:1 (fun pool ->
        List.hd (Pool.map pool (fun () -> late_run ()) [ () ]))
  in
  check Alcotest.int "inline: every later event" (after' + 1) seen';
  check Alcotest.int "the same events" after' after;
  check Alcotest.string "the same audit"
    (Ccdb_analysis.Report.summary report')
    (Ccdb_analysis.Report.summary report)

(* --- an exhausted budget ------------------------------------------------------ *)

let test_budget_exhausted () =
  let sites = 4 and items = 12 in
  let catalog =
    Ccdb_storage.Catalog.create ~items ~sites ~replication:2
  in
  let rt =
    Rt.create ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  let sys = Core.Unified_system.create rt in
  let emitted = ref 0 and observed = ref 0 and observed_on = ref None in
  Rt.subscribe rt (fun _ -> incr emitted);
  Rt.observe rt (fun _ ->
      incr observed;
      if !observed_on = None then observed_on := Some (self ()));
  let arrivals =
    G.generate
      (G.create spec ~sites ~items (Ccdb_util.Rng.create ~seed:5))
      ~n:20 ~start:0.
  in
  Ccdb_sim.Engine.schedule_all (Rt.engine rt)
    (List.map
       (fun (at, txn) -> (at, fun () -> Core.Unified_system.submit sys txn))
       arrivals);
  (match Rt.quiesce ~max_events:40 rt with
   | () -> Alcotest.fail "40 events cannot finish 20 transactions"
   | exception Rt.Event_budget_exhausted { fired; pending; clock } ->
     check Alcotest.int "events fired" 40 fired;
     check Alcotest.bool "events pending" true (pending > 0);
     check (Alcotest.float 0.) "simulated clock" (Rt.now rt) clock);
  check Alcotest.bool "some events were emitted" true (!emitted > 0);
  check Alcotest.int "observers saw every event emitted before the raise"
    !emitted !observed;
  check Alcotest.bool "they ran on a worker" (spare_core ())
    (!observed_on <> Some (self ()));
  Rt.quiesce rt;
  check Alcotest.int "a second run finishes the workload" 20
    (Rt.counters rt).committed;
  check Alcotest.int "and is observed in full" !emitted !observed

let suites =
  [ ( "pipeline",
      [ test_ring_order_and_release;
        Alcotest.test_case "consumer failure at finish" `Quick
          test_ring_failure_at_join;
        Alcotest.test_case "pool tasks keep observers inline" `Quick
          test_pool_tasks_run_inline;
        Alcotest.test_case "observer exception at the join" `Quick
          test_observer_exception_at_join;
        Alcotest.test_case "observer registered mid-run" `Quick
          test_observe_mid_run;
        Alcotest.test_case "budget exhausted after the join" `Quick
          test_budget_exhausted;
        Alcotest.test_case "pipelined = inline, 11 modes x 4 plans" `Slow
          test_pipelined_matches_inline ] ) ]
