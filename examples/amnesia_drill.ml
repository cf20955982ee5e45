(* Amnesia drill: the same crash schedule run twice — first fail-pause
   (the site goes silent but remembers), then fail-stop (wipe=true: every
   crash erases the victim's lock tables, queues and 2PC state, and the
   site recovers by replaying its write-ahead log).

   The point of the exercise: durability is a property you can watch
   working.  Under fail-stop the run leans on the WAL — log-before-ack
   appends, two-phase commit (Paxos Commit with its one acceptor at the
   coordinator), replay at recovery — and the static audit proves no
   committed write was lost, nothing committed at one site and aborted at
   another, and no wiped lock silently came back (DESIGN.md section 11).

   Run with: dune exec examples/amnesia_drill.exe *)

module D = Ccdb_harness.Driver
module FP = Ccdb_sim.Fault_plan
module M = Ccdb_harness.Metrics

let schedule = "drop=0.05,crash=1@350+250,crash=2@1000+250,seed=17"

let plan_of_string s =
  match FP.of_string s with Ok p -> p | Error e -> failwith e

let () =
  let pause = plan_of_string schedule in
  let stop = plan_of_string (schedule ^ ",wipe=true") in
  let spec =
    { Ccdb_workload.Generator.default with
      arrival_rate = 0.07;
      size_min = 1;
      size_max = 3;
      protocol_mix =
        [ (Ccdb_model.Protocol.Two_pl, 1.); (Ccdb_model.Protocol.T_o, 1.);
          (Ccdb_model.Protocol.Pa, 1.) ] }
  in
  print_endline "=== Amnesia drill ===";
  Format.printf "schedule: %s@.@." schedule;

  let run plan = D.run ~n_txns:150 ~audit:true ~faults:plan D.Unified spec in
  let pause_r = run pause in
  let stop_r = run stop in

  let row label (s : M.summary) =
    Format.printf
      "%-10s committed=%d  S=%7.1f  site-aborts=%3d  wal-appends=%5d@." label
      s.committed s.mean_system_time s.site_aborts
      (match s.recovery with Some r -> r.M.wal_appends | None -> 0)
  in
  row "fail-pause" pause_r.summary;
  row "fail-stop" stop_r.summary;

  (match stop_r.summary.recovery with
   | None -> failwith "wipe=true run reported no recovery counters"
   | Some r ->
     Format.printf
       "@.what fail-stop cost: %d records forced to stable storage, %d \
        volatile@.entries erased by the wipes, %d replays scanning %d \
        records (%.1f time units)@."
       r.M.wal_appends r.M.entries_dropped r.M.replays r.M.records_replayed
       r.M.replay_time);

  (* the drill's verdict: the durability invariants held under amnesia *)
  let report = Option.get stop_r.audit in
  let durability_findings =
    List.filter
      (fun (f : Ccdb_analysis.Finding.t) ->
        List.mem f.check
          [ "thm.durability-lost"; "thm.partial-commit"; "lock.resurrected" ])
      (Ccdb_analysis.Report.findings report)
  in
  Format.printf "@.audit of the fail-stop run: %s@."
    (Ccdb_analysis.Report.summary report);
  if
    stop_r.summary.committed = 150
    && stop_r.summary.serializable
    && Ccdb_analysis.Report.errors report = []
    && durability_findings = []
  then
    print_endline
      "=> every transaction committed, serializably and durably, through \
       two total memory losses"
  else begin
    print_endline "=> AMNESIA BROKE A GUARANTEE";
    Format.printf "%a@." Ccdb_analysis.Report.pp report;
    exit 1
  end
