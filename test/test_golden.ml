(* Golden run digests.  Each canned run is pinned by one MD5 over its
   rendered trace and its per-kind logical message counts, plus the
   engine's processed-event count as a separate number, so a change to
   what any simulation does (event order, timing, traffic) fails here
   rather than only in an experiment diff.  The event count stands apart
   because a change to the simulator's own bookkeeping (the transport
   scheduling fewer events for the same messages) moves it and nothing
   else.  A change that alters a trace on purpose recomputes the affected
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

(* Every site's WAL in full: each record as [Wal.pp_record] prints it, at
   its exact instant, with the [Prewrite] fields [pp_record] leaves out.
   The trace cannot see the home site and participant set an acceptor's
   [Acceptor_accept] record carries, or the order of a participant's
   [Prewrite] records. *)
let wal_digest rt =
  let module W = Ccdb_storage.Wal in
  let wal = Rt.wal rt in
  List.init (W.sites wal) (fun site ->
      W.records wal ~site
      |> List.map (fun { W.at; record } ->
             let action =
               match record with
               | W.Prewrite { action = a; _ } ->
                 Printf.sprintf " value=%s attempt=%d granted_at=%h"
                   (match a.value with
                    | Some v -> string_of_int v
                    | None -> "-")
                   a.attempt a.granted_at
               | _ -> ""
             in
             Format.asprintf "%d %h %a%s" site at W.pp_record record action))
  |> List.concat |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* the trace-and-traffic digest, the engine's event count and the WAL
   digest of one run *)
let digests ?faults ?(setup = setup) mode =
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
  ( String.concat "\n" [ Ccdb_harness.Trace.render (Option.get !trace); kinds ]
    |> Digest.string |> Digest.to_hex,
    Ccdb_sim.Engine.processed (Rt.engine r.runtime),
    wal_digest r.runtime )

let digest ?faults ?setup mode =
  let hex, events, _ = digests ?faults ?setup mode in
  (hex, events)

(* Every mismatch is reported, not just the first. *)
let check_all cases =
  let bad =
    List.filter_map
      (fun (name, run, (hex, events)) ->
        let got_hex, got_events = run () in
        if String.equal got_hex hex && got_events = events then None
        else
          Some
            (Printf.sprintf "%s: got %s %d, pinned %s %d" name got_hex
               got_events hex events))
      cases
  in
  if bad <> [] then Alcotest.fail (String.concat "\n" bad)

let mode_case ?(label = "") ?faults ?setup mode hex events =
  ( label ^ D.mode_name mode,
    (fun () -> digest ?faults ?setup mode),
    (hex, events) )

let test_fault_free () =
  check_all
    [ mode_case (D.Pure P.Two_pl) "e57ec177a1a6a1a536e628acbf69f177" 871;
      mode_case (D.Pure P.T_o) "af8b9d1f3f1cc7257b89c467fbe60441" 1043;
      mode_case (D.Pure P.Pa) "82ddc15705b22510d029b50510814658" 856;
      mode_case D.Unified "eba7e03e3331f9fc0ef42f3e245b24cb" 909;
      mode_case (D.Unified_forced P.Two_pl)
        "d373ed09f91b2742f08a8796e796a79f" 871;
      mode_case (D.Unified_forced P.T_o) "1e875fe1cf4ccabd202d4d4154dd341b" 1013;
      mode_case (D.Unified_forced P.Pa) "71aa06dc94fd43f7c43ae1e8ab184a1c" 876;
      mode_case D.Unified_full_lock "bc4f6657aa96b0826344bd50203f1cb8" 870;
      mode_case D.Dynamic "2e09c326da42fd14347c93b591eed170" 868;
      mode_case D.Mvto "9da25d341e7c3d66a81bdc037ccfd869" 1043;
      mode_case D.Conservative "c1e0f190fd1c8252f6b2484daffa93d4" 907 ]

(* fail-pause: loss, duplication and a crash window, no wipe *)
let pause_plan = plan_of_string "drop=0.1,dup=0.05,crash=1@300+300,seed=7"

let test_fail_pause () =
  let faults = pause_plan in
  check_all
    [ mode_case ~faults (D.Pure P.Two_pl) "548a038c956a59313f3327d2e78f85de" 2814;
      mode_case ~faults (D.Pure P.T_o) "61793edd11fb6c21c1a010a8eac6d989" 2704;
      mode_case ~faults (D.Pure P.Pa) "130ece9ca162b3305ba6fb655c40d4c4" 1427;
      mode_case ~faults D.Unified "c30ee75370741d4bf90dec7742c205e2" 2136;
      mode_case ~faults D.Dynamic "3fcbae22a7adeb6a1516746073d8c095" 2885;
      mode_case ~faults D.Mvto "f9bb6af36663596328dc9fffbb2c03b8" 2257;
      mode_case ~faults D.Conservative "1f81af0cb3d9d60acacfe514c48b385b" 1342 ]

let stop_plan =
  plan_of_string "drop=0.05,crash=1@300+300,crash=2@900+200,wipe=true,seed=11"

let test_fail_stop () =
  let faults = stop_plan in
  let paxos = { setup with commit = Rt.Paxos { f = 1 } } in
  check_all
    [ mode_case ~faults (D.Pure P.Two_pl) "34c287fa5452fa885e650d703da4cab2" 4420;
      mode_case ~faults (D.Pure P.T_o) "224bb5dcb8aa2e0a50554cc76ab53ef7" 2386;
      mode_case ~faults (D.Pure P.Pa) "baa768fce4613d654d2e86aaef8f4911" 2175;
      mode_case ~faults D.Unified "4ee39aa01bcd7b3fa292c17748462672" 3194;
      mode_case ~faults D.Mvto "bf406f3050acf3b8688216fe9c099ee6" 2373;
      mode_case ~faults D.Conservative "b6acbdeac48cd8c657a1ac7a60ae2115" 1189;
      mode_case ~label:"paxos " ~faults ~setup:paxos (D.Pure P.Two_pl)
        "de4b5cd0744a27f9020fce4a559e0595" 6144;
      mode_case ~label:"paxos " ~faults ~setup:paxos D.Unified
        "79b9260818d58a741a50966e0d62121d" 4971 ]

(* The WAL of the modes that commit through [Commit], on [stop_plan], under
   2PC (Paxos Commit with f=0: one acceptor, at the home site) and under
   Paxos Commit over three and five acceptors (five sites for f=2).  Every
   row pins the WAL digest; the rows no other case pins also pin the trace
   digest and event count. *)
let test_fail_stop_wal () =
  let paxos f =
    { setup with sites = Int.max 4 ((2 * f) + 1); commit = Rt.Paxos { f } }
  in
  let rows =
    [ ("2pc", setup, D.Pure P.Two_pl, "b9cfc2289fbf715f0df9c290687799ae",
       None);
      ("2pc", setup, D.Pure P.Pa, "a9742a614c87f9103e7945289265150f",
       None);
      ("2pc", setup, D.Unified, "4f35218d72bd5f49a4f2d3c9c1f63d5d",
       None);
      ("paxos:1", paxos 1, D.Pure P.Two_pl, "3c9a812ba3399412f4cb620831b9d6ed",
       None);
      ("paxos:1", paxos 1, D.Pure P.Pa, "0998322dc85fa31c1df2e2238c16fa38",
       Some ("46644bd66c64d98f532d4f92bf47a440", 3836));
      ("paxos:1", paxos 1, D.Unified, "01ac3213d7c6b866cd7967120966d728",
       None);
      ("paxos:2", paxos 2, D.Pure P.Two_pl, "c3ce47621cdd4bc3e9695ee90ecdabb0",
       Some ("0cd66072a05234cb5c66c96643a7fe78", 7483));
      ("paxos:2", paxos 2, D.Pure P.Pa, "bed6fe8db6cd8c9f8d2d0f7a364908ec",
       Some ("a4f0fed96549820033b0386d07297e29", 5230));
      ("paxos:2", paxos 2, D.Unified, "10ee3bdc2bef5e672752794a3ead64bb",
       Some ("dccca31114412f1f074f10724ed9929a", 6202)) ]
  in
  let bad =
    List.concat_map
      (fun (engine, setup, mode, wal, trace) ->
        let name = engine ^ " " ^ D.mode_name mode in
        let hex, events, got_wal = digests ~faults:stop_plan ~setup mode in
        (if String.equal got_wal wal then []
         else [ Printf.sprintf "%s: WAL got %s, pinned %s" name got_wal wal ])
        @
        match trace with
        | Some (h, n) when not (String.equal h hex && n = events) ->
          [ Printf.sprintf "%s: got %s %d, pinned %s %d" name hex events h n ]
        | Some _ | None -> [])
      rows
  in
  if bad <> [] then Alcotest.fail (String.concat "\n" bad)

(* Plans with what the two above lack: extra delay, per-link overrides and
   role-targeted crashes, resolved against the workload.  The fail-pause
   plan crashes the coordinator; the fail-stop one crashes it and then
   acceptor 1, which is site 1 (under 2PC, whose one acceptor is each
   transaction's home site, site 1 is then only a participant).  Without
   wipe=true no commit engine runs, so only the fail-stop plan has a
   Paxos f=1 case. *)
let role_pause_plan =
  plan_of_string
    "drop=0.05,delay=0.1x25,link=1>2/drop=0.4/dup=0.2,\
     crash=coordinator@200+200,seed=9"

let role_stop_plan =
  plan_of_string
    "drop=0.03,dup=0.03,delay=0.2x40,link=0>1/drop=0.3,link=2>0/delay=0.5x60,\
     crash=coordinator@300+250,crash=acceptor:1@700+200,wipe=true,seed=5"

let test_delay_link_role () =
  let paxos = { setup with commit = Rt.Paxos { f = 1 } } in
  let pause = role_pause_plan and stop = role_stop_plan in
  check_all
    [ mode_case ~label:"pause " ~faults:pause (D.Pure P.Two_pl)
        "1c8492a7aac03e1a1375006ad6ac5c84" 2220;
      mode_case ~label:"pause " ~faults:pause D.Unified
        "286b5ea37b06d64508ea538c16378ef0" 1861;
      mode_case ~label:"stop " ~faults:stop (D.Pure P.Two_pl)
        "58fdf31917e5b25f5ac5bd3c37b3fa17" 5068;
      mode_case ~label:"stop " ~faults:stop D.Unified
        "5b53a7679313d5547093f8bce61f7a1e" 4219;
      mode_case ~label:"stop paxos " ~faults:stop ~setup:paxos
        (D.Pure P.Two_pl) "1e83ba3e53f11dcc0023fceef1481ba4" 7901;
      mode_case ~label:"stop paxos " ~faults:stop ~setup:paxos D.Unified
        "77fa6455cb450313e77a3f82b5c4a979" 7007 ]

(* The 22 experiment tables at quick scale, rendered as
   [ccdb_cli experiments --quick] prints them: no other test pins table
   content (test_parallel only compares serial against parallel output). *)
let test_quick_tables () =
  let printed =
    Ccdb_harness.Experiments.(all (staged ~quick:true ()))
    |> List.map (fun o -> Ccdb_harness.Experiments.render o ^ "\n\n")
    |> String.concat ""
  in
  Alcotest.(check string)
    "experiments --quick" "18294461158c71eeb64be0f242eb88e0"
    (Digest.to_hex (Digest.string printed))

let suites =
  [ ( "golden",
      [ Alcotest.test_case "fault-free digests, all modes" `Quick
          test_fault_free;
        Alcotest.test_case "fail-pause digests, every family" `Quick
          test_fail_pause;
        Alcotest.test_case "fail-stop digests, 2pc and paxos" `Quick
          test_fail_stop;
        Alcotest.test_case "WAL digests, fail-stop, every commit engine"
          `Quick test_fail_stop_wal;
        Alcotest.test_case "delay, link and role-crash digests" `Quick
          test_delay_link_role;
        Alcotest.test_case "quick experiment tables" `Slow test_quick_tables
      ] ) ]
