module Rt = Ccdb_protocols.Runtime

type recovery = {
  wal_appends : int;
  entries_dropped : int;
  replays : int;
  interrupted : int;
  records_replayed : int;
  replay_time : float;
}

type summary = {
  committed : int;
  duration : float;
  mean_system_time : float;
  p95_system_time : float;
  throughput : float;
  restarts_per_txn : float;
  rejections : int;
  deadlock_aborts : int;
  prevention_aborts : int;
  backoffs_per_txn : float;
  messages_per_txn : float;
  messages_by_kind : (string * int) list;
  serializable : bool;
  replica_consistent : bool;
  site_aborts : int;
  transport : Ccdb_sim.Net.fault_stats option;
  recovery : recovery option;
}

let per_protocol_system_time rt =
  List.filter_map
    (fun p ->
      let stats = Rt.protocol_system_time rt p in
      if Ccdb_util.Stats.count stats = 0 then None else Some (p, stats))
    Ccdb_model.Protocol.all

let summarize ?(verify = true) rt =
  let counters = Rt.counters rt in
  let committed = counters.committed in
  let duration = Rt.last_executed rt in
  let per_txn n = if committed = 0 then Float.nan else float_of_int n /. float_of_int committed in
  { committed;
    duration;
    mean_system_time =
      (if committed = 0 then Float.nan
       else Ccdb_util.Stats.mean (Rt.system_time rt));
    p95_system_time =
      Ccdb_util.Histogram.percentile (Rt.system_time_histogram rt) 95.;
    throughput =
      (if duration <= 0. then Float.nan else float_of_int committed /. duration);
    restarts_per_txn = per_txn counters.restarts;
    rejections = counters.rejections;
    deadlock_aborts = counters.deadlock_aborts;
    prevention_aborts = counters.prevention_aborts;
    backoffs_per_txn = per_txn counters.backoffs;
    messages_per_txn = per_txn (Ccdb_sim.Net.messages_sent (Rt.net rt));
    messages_by_kind = Ccdb_sim.Net.messages_by_kind (Rt.net rt);
    serializable =
      (if verify then
         Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt))
       else true);
    replica_consistent =
      (if verify then Ccdb_serial.Check.replica_consistent (Rt.store rt)
       else true);
    site_aborts = counters.site_aborts;
    transport = Ccdb_sim.Net.fault_stats (Rt.net rt);
    recovery =
      (match Rt.recovery_stats rt with
       | None -> None
       | Some (s : Ccdb_sim.Recovery.stats) ->
         Some
           { wal_appends = Ccdb_storage.Wal.appends (Rt.wal rt);
             entries_dropped = counters.wiped_entries;
             replays = s.replays;
             interrupted = s.interrupted;
             records_replayed = s.records_replayed;
             replay_time = s.replay_time }) }
