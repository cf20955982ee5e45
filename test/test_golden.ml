(* Golden run digests.  Each canned run is pinned by one MD5 over its
   rendered trace, the engine's processed-event count and the per-kind
   logical message counts, so a change to what any simulation does (event
   order, timing, traffic) fails here rather than only in an experiment
   diff.  A change that alters a trace on purpose recomputes the affected
   digests and says why in CHANGES.md.

   The fail-stop digests were recomputed when the wipe handlers started
   announcing each wipe's dropped requests in ascending item order; the
   traces of those runs are otherwise unchanged. *)

module D = Ccdb_harness.Driver
module G = Ccdb_workload.Generator
module P = Ccdb_model.Protocol
module Rt = Ccdb_protocols.Runtime

let plan_of_string s =
  match Ccdb_sim.Fault_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "of_string %S: %s" s e

(* a contended three-protocol mix: restarts, back-offs, deadlocks and
   pre-scheduled grants all occur within 60 transactions *)
let spec =
  { G.default with
    arrival_rate = 0.12;
    size_min = 1;
    size_max = 4;
    protocol_mix = [ (P.Two_pl, 1.); (P.T_o, 1.); (P.Pa, 1.) ] }

let setup = { D.default_setup with items = 16 }

let digest ?faults ?(setup = setup) mode =
  let trace = ref None in
  let r =
    D.run ~setup ~n_txns:60 ?faults
      ~observer:(fun rt -> trace := Some (Ccdb_harness.Trace.attach rt))
      mode spec
  in
  let kinds =
    Ccdb_sim.Net.messages_by_kind (Rt.net r.runtime)
    |> List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n)
    |> String.concat ","
  in
  String.concat "\n"
    [ Ccdb_harness.Trace.render (Option.get !trace);
      string_of_int (Ccdb_sim.Engine.processed (Rt.engine r.runtime));
      kinds ]
  |> Digest.string |> Digest.to_hex

(* Every mismatch is reported, not just the first. *)
let check_all cases =
  let bad =
    List.filter_map
      (fun (name, run, expected) ->
        let got = run () in
        if String.equal got expected then None
        else Some (Printf.sprintf "%s: got %s, pinned %s" name got expected))
      cases
  in
  if bad <> [] then Alcotest.fail (String.concat "\n" bad)

let mode_case ?(label = "") ?faults ?setup mode expected =
  (label ^ D.mode_name mode, (fun () -> digest ?faults ?setup mode), expected)

let test_fault_free () =
  check_all
    [ mode_case (D.Pure P.Two_pl) "db5d729a58a18eca143606893cd84e9f";
      mode_case (D.Pure P.T_o) "2fe38fb46bf720795004c15ea742ce74";
      mode_case (D.Pure P.Pa) "d96c37e07a5bca3bc3773e8fa1fa987e";
      mode_case D.Unified "f5adc20276062984b39a5685077a3efd";
      mode_case (D.Unified_forced P.Two_pl)
        "4c11c86a035bb92a6cd73912d1ab1dab";
      mode_case (D.Unified_forced P.T_o) "98b30daf6ab9e40feb2360dee482e877";
      mode_case (D.Unified_forced P.Pa) "15c7824d3cf326000d35a650e75efd90";
      mode_case D.Unified_full_lock "fdca542ba4eab4e9cd26c1e556ce13a9";
      mode_case D.Dynamic "29bfe1da4eba75735da7a219973abc8f";
      mode_case D.Mvto "555bb3a44136a4b574198a1b48c95074";
      mode_case D.Conservative "479c64a77fce11139b0f33d57136cc82" ]

(* fail-pause: loss, duplication and a crash window, no wipe *)
let pause_plan = plan_of_string "drop=0.1,dup=0.05,crash=1@300+300,seed=7"

let test_fail_pause () =
  let faults = pause_plan in
  check_all
    [ mode_case ~faults (D.Pure P.Two_pl) "a82b86adc2da4c6bee027d820d739f77";
      mode_case ~faults (D.Pure P.T_o) "ce91aa9399ea41adbb235aa416282666";
      mode_case ~faults (D.Pure P.Pa) "5b9d8cdf0118fc1f01a8c0043d142fc3";
      mode_case ~faults D.Unified "10309135916f71eda64af3862d2fea3c";
      mode_case ~faults D.Dynamic "a24aa36f1ed4f70b584bcd98f138acc1";
      mode_case ~faults D.Mvto "def8f7e8f8c9e002f8c6870649c677c6";
      mode_case ~faults D.Conservative "42e1b33bd87d9ef07ba0883fee14d0c4" ]

let stop_plan =
  plan_of_string "drop=0.05,crash=1@300+300,crash=2@900+200,wipe=true,seed=11"

let test_fail_stop () =
  let faults = stop_plan in
  let paxos = { setup with commit = Rt.Paxos { f = 1 } } in
  check_all
    [ mode_case ~faults (D.Pure P.Two_pl) "40a29605458dc9122e4041243d14ac8d";
      mode_case ~faults (D.Pure P.T_o) "b6082cde3ee5482d55f192b08f8e44a1";
      mode_case ~faults (D.Pure P.Pa) "4910c948d6ac935e74f75027c6affda0";
      mode_case ~faults D.Unified "5f91a91f5a1dfd6fddd9fa1eff3c1190";
      mode_case ~faults D.Mvto "0f53942e403a01e0a2de6c50d8216a6f";
      mode_case ~faults D.Conservative "984ee4663f5e36e48d9709b62d3d1a96";
      mode_case ~label:"paxos " ~faults ~setup:paxos (D.Pure P.Two_pl)
        "fff219a29ae6abf078094360b894d157";
      mode_case ~label:"paxos " ~faults ~setup:paxos D.Unified
        "90d7a4295ff86e253e4df99b09a42525" ]

(* The 22 experiment tables at quick scale, rendered as
   [ccdb_cli experiments --quick] prints them: no other test pins table
   content (test_parallel only compares serial against parallel output). *)
let test_quick_tables () =
  let printed =
    Ccdb_harness.Experiments.all ~quick:true ()
    |> List.map (fun o -> Ccdb_harness.Experiments.render o ^ "\n\n")
    |> String.concat ""
  in
  check_all
    [ ( "experiments --quick",
        (fun () -> Digest.to_hex (Digest.string printed)),
        "036825fda0d45939cee8dc8088e55f0b" ) ]

let suites =
  [ ( "golden",
      [ Alcotest.test_case "fault-free digests, all modes" `Quick
          test_fault_free;
        Alcotest.test_case "fail-pause digests, every family" `Quick
          test_fail_pause;
        Alcotest.test_case "fail-stop digests, 2pc and paxos" `Quick
          test_fail_stop;
        Alcotest.test_case "quick experiment tables" `Slow test_quick_tables
      ] ) ]
