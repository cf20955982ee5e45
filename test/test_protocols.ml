(* Tests for Ccdb_protocols: lock table, deadlock detection, and the pure
   2PL system (T/O and PA systems get their own sections as they land). *)

module Lt = Ccdb_protocols.Lock_table
module Rt = Ccdb_protocols.Runtime
module Two_pl = Ccdb_protocols.Two_pl_system

let check = Alcotest.check

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let txns_of entries = List.map (fun (e : Lt.entry) -> e.txn) entries

(* --- Lock_table ----------------------------------------------------------- *)

let test_lock_table_write_fcfs () =
  let t = Lt.create () in
  ignore (Lt.request t ~txn:1 ~attempt:0 ~op:Ccdb_model.Op.Write);
  ignore (Lt.request t ~txn:2 ~attempt:0 ~op:Ccdb_model.Op.Write);
  check (Alcotest.list Alcotest.int) "first writer only" [ 1 ]
    (txns_of (Lt.grant_ready t));
  check (Alcotest.list Alcotest.int) "no regrant" [] (txns_of (Lt.grant_ready t));
  ignore (Lt.release t ~txn:1 ~attempt:0);
  check (Alcotest.list Alcotest.int) "second writer" [ 2 ]
    (txns_of (Lt.grant_ready t))

let test_lock_table_shared_reads () =
  let t = Lt.create () in
  ignore (Lt.request t ~txn:1 ~attempt:0 ~op:Ccdb_model.Op.Read);
  ignore (Lt.request t ~txn:2 ~attempt:0 ~op:Ccdb_model.Op.Read);
  ignore (Lt.request t ~txn:3 ~attempt:0 ~op:Ccdb_model.Op.Write);
  check (Alcotest.list Alcotest.int) "both readers" [ 1; 2 ]
    (txns_of (Lt.grant_ready t));
  ignore (Lt.release t ~txn:1 ~attempt:0);
  check (Alcotest.list Alcotest.int) "writer still blocked" []
    (txns_of (Lt.grant_ready t));
  ignore (Lt.release t ~txn:2 ~attempt:0);
  check (Alcotest.list Alcotest.int) "writer unblocked" [ 3 ]
    (txns_of (Lt.grant_ready t))

let test_lock_table_reader_blocked_behind_writer () =
  (* FCFS: a read arriving after a waiting write must not starve it *)
  let t = Lt.create () in
  ignore (Lt.request t ~txn:1 ~attempt:0 ~op:Ccdb_model.Op.Read);
  ignore (Lt.request t ~txn:2 ~attempt:0 ~op:Ccdb_model.Op.Write);
  ignore (Lt.request t ~txn:3 ~attempt:0 ~op:Ccdb_model.Op.Read);
  check (Alcotest.list Alcotest.int) "only first reader" [ 1 ]
    (txns_of (Lt.grant_ready t))

let test_lock_table_stale_release () =
  let t = Lt.create () in
  ignore (Lt.request t ~txn:1 ~attempt:1 ~op:Ccdb_model.Op.Write);
  check Alcotest.bool "attempt mismatch ignored" true
    (Lt.release t ~txn:1 ~attempt:0 = None);
  check Alcotest.int "still queued" 1 (List.length (Lt.entries t));
  check Alcotest.bool "matching release" true
    (Lt.release t ~txn:1 ~attempt:1 <> None)

(* The [(waiter, holder)] edges a queue streams, as a list. *)
let streamed_edges iter_waits_for q =
  let edges = ref [] in
  iter_waits_for q (fun waiter holder -> edges := (waiter, holder) :: !edges);
  !edges

let test_lock_table_waits_for () =
  let t = Lt.create () in
  ignore (Lt.request t ~txn:1 ~attempt:0 ~op:Ccdb_model.Op.Write);
  ignore (Lt.request t ~txn:2 ~attempt:0 ~op:Ccdb_model.Op.Read);
  ignore (Lt.request t ~txn:3 ~attempt:0 ~op:Ccdb_model.Op.Write);
  ignore (Lt.grant_ready t);
  let edges = streamed_edges Lt.iter_waits_for t in
  check Alcotest.bool "2 waits 1" true (List.mem (2, 1) edges);
  check Alcotest.bool "3 waits 1" true (List.mem (3, 1) edges);
  check Alcotest.bool "3 waits 2" true (List.mem (3, 2) edges);
  check Alcotest.bool "1 waits none" true
    (not (List.exists (fun (a, _) -> a = 1) edges))

(* The list the lock table returned before it streamed its edges, kept
   as the reference for [iter_waits_for]: an edge from each ungranted
   request to every earlier conflicting request of another transaction. *)
let lock_table_waits_for_reference t =
  let edges = ref [] in
  let rec scan earlier = function
    | [] -> ()
    | (e : Lt.entry) :: rest ->
      if not e.granted then
        List.iter
          (fun (e' : Lt.entry) ->
            if e'.txn <> e.txn && Ccdb_model.Op.conflicts e'.op e.op then
              edges := (e.txn, e'.txn) :: !edges)
          earlier;
      scan (e :: earlier) rest
  in
  scan [] (Lt.entries t);
  !edges

(* Random request / grant / release / wipe sequences over a small
   transaction pool, so that one transaction often queues a read and a
   write, and stale releases miss: after every step the streamed edges
   are the reference's, as a multiset. *)
let prop_lock_table_streams_reference_edges =
  qtest ~count:300 "lock table: iter_waits_for streams the list reference"
    QCheck.(pair (int_range 0 100_000) (int_range 5 60))
    (fun (seed, steps) ->
      let rng = Ccdb_util.Rng.create ~seed in
      let t = Lt.create () in
      let txn () = 1 + Ccdb_util.Rng.int rng 6 in
      let attempt () = Ccdb_util.Rng.int rng 2 in
      let ok = ref true in
      for _ = 1 to steps do
        (match Ccdb_util.Rng.int rng 9 with
         | 0 | 1 | 2 | 3 ->
           let op =
             if Ccdb_util.Rng.bool rng then Ccdb_model.Op.Read
             else Ccdb_model.Op.Write
           in
           ignore (Lt.request t ~txn:(txn ()) ~attempt:(attempt ()) ~op)
         | 4 | 5 -> ignore (Lt.grant_ready t)
         | 6 | 7 -> ignore (Lt.release t ~txn:(txn ()) ~attempt:(attempt ()))
         | _ -> ignore (Lt.wipe_waiting t));
        if
          List.sort compare (streamed_edges Lt.iter_waits_for t)
          <> List.sort compare (lock_table_waits_for_reference t)
        then ok := false
      done;
      !ok)

let test_lock_table_holders () =
  let t = Lt.create () in
  ignore (Lt.request t ~txn:1 ~attempt:0 ~op:Ccdb_model.Op.Read);
  ignore (Lt.request t ~txn:2 ~attempt:0 ~op:Ccdb_model.Op.Read);
  ignore (Lt.grant_ready t);
  check (Alcotest.list Alcotest.int) "holders" [ 1; 2 ]
    (List.map fst (Lt.holders t))

(* --- helpers for system tests ---------------------------------------------- *)

let make_runtime ?(seed = 42) ?(sites = 2) ?(items = 4) ?(replication = 1) () =
  let catalog = Ccdb_storage.Catalog.create ~items ~sites ~replication in
  Rt.create ~seed ~net_config:Ccdb_sim.Net.default_config ~catalog ()

let mk_txn ?(site = 0) ?(reads = []) ?(writes = []) ?(compute = 1.0)
    ?(protocol = Ccdb_model.Protocol.Two_pl) id =
  Ccdb_model.Txn.make ~id ~site ~read_set:reads ~write_set:writes
    ~compute_time:compute ~protocol

let assert_serializable rt =
  let logs = Ccdb_storage.Store.logs (Rt.store rt) in
  if not (Ccdb_serial.Check.conflict_serializable logs) then
    Alcotest.fail "execution not conflict serializable";
  if not (Ccdb_serial.Check.replica_consistent (Rt.store rt)) then
    Alcotest.fail "replicas inconsistent"

(* --- Two_pl_system ---------------------------------------------------------- *)

let test_2pl_single_txn () =
  let rt = make_runtime () in
  let sys = Two_pl.create rt in
  Two_pl.submit sys (mk_txn ~site:0 ~reads:[ 0 ] ~writes:[ 1 ] 1);
  Rt.quiesce rt;
  check Alcotest.int "committed" 1 (Rt.counters rt).committed;
  check Alcotest.int "active" 0 (Two_pl.active sys);
  (* the write was implemented *)
  let store = Rt.store rt in
  check Alcotest.int "write applied" 1
    (Ccdb_storage.Store.read store ~item:1
       ~site:(List.hd (Ccdb_storage.Catalog.copies (Rt.catalog rt) 1)));
  assert_serializable rt

let test_2pl_write_all_copies () =
  let rt = make_runtime ~replication:2 () in
  let sys = Two_pl.create rt in
  Two_pl.submit sys (mk_txn ~writes:[ 0 ] 1);
  Rt.quiesce rt;
  let store = Rt.store rt in
  List.iter
    (fun site ->
      check Alcotest.int "copy written" 1
        (Ccdb_storage.Store.read store ~item:0 ~site))
    (Ccdb_storage.Catalog.copies (Rt.catalog rt) 0);
  assert_serializable rt

let test_2pl_conflicting_txns_serialize () =
  let rt = make_runtime () in
  let sys = Two_pl.create rt in
  Two_pl.submit sys (mk_txn ~site:0 ~writes:[ 0 ] 1);
  Two_pl.submit sys (mk_txn ~site:1 ~writes:[ 0 ] 2);
  Rt.quiesce rt;
  check Alcotest.int "committed" 2 (Rt.counters rt).committed;
  assert_serializable rt

let test_2pl_payload () =
  let rt = make_runtime () in
  let sys = Two_pl.create rt in
  (* increment item 0 twice through read-modify-write payloads *)
  let incr_payload read = [ (0, read 0 + 10) ] in
  Two_pl.submit sys ~payload:incr_payload (mk_txn ~site:0 ~writes:[ 0 ] 1);
  Two_pl.submit sys ~payload:incr_payload (mk_txn ~site:1 ~writes:[ 0 ] 2);
  Rt.quiesce rt;
  let store = Rt.store rt in
  let site = List.hd (Ccdb_storage.Catalog.copies (Rt.catalog rt) 0) in
  check Alcotest.int "both increments survive" 20
    (Ccdb_storage.Store.read store ~item:0 ~site);
  assert_serializable rt

let test_2pl_deadlock_resolved () =
  (* t1 (site 0) and t2 (site 1) both write items 0 and 1; item 0 lives at
     site 0, item 1 at site 1.  Local requests arrive first, so each grabs
     its local item and waits for the other: a deadlock the detector must
     break, after which both must commit. *)
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let sys = Two_pl.create rt in
  Two_pl.submit sys (mk_txn ~site:0 ~writes:[ 0; 1 ] 1);
  Two_pl.submit sys (mk_txn ~site:1 ~writes:[ 0; 1 ] 2);
  Rt.quiesce rt;
  check Alcotest.int "both committed" 2 (Rt.counters rt).committed;
  check Alcotest.bool "deadlock detected" true
    ((Rt.counters rt).deadlock_aborts >= 1);
  check Alcotest.bool "cycle count" true (Two_pl.detector_cycles sys >= 1);
  assert_serializable rt

let test_2pl_no_deadlock_single_item () =
  (* single-item transactions can never deadlock (the paper's section 1
     motivating example) *)
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let sys = Two_pl.create rt in
  for i = 1 to 20 do
    Two_pl.submit sys (mk_txn ~site:(i mod 2) ~writes:[ i mod 2 ] i)
  done;
  Rt.quiesce rt;
  check Alcotest.int "all committed" 20 (Rt.counters rt).committed;
  check Alcotest.int "no aborts" 0 (Rt.counters rt).deadlock_aborts;
  assert_serializable rt

let test_2pl_duplicate_submit () =
  let rt = make_runtime () in
  let sys = Two_pl.create rt in
  Two_pl.submit sys (mk_txn ~writes:[ 0 ] 1);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Two_pl_system.submit: duplicate transaction id")
    (fun () -> Two_pl.submit sys (mk_txn ~writes:[ 1 ] 1))

(* randomized workload: every 2PL execution is serializable and completes *)
let prop_2pl_serializable =
  qtest ~count:15 "2PL: random workloads serialize and complete"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sites = 3 and items = 6 in
      let rt = make_runtime ~seed ~sites ~items ~replication:2 () in
      let sys = Two_pl.create rt in
      let rng = Ccdb_util.Rng.create ~seed:(seed + 1) in
      let n = 25 in
      for i = 1 to n do
        let site = Ccdb_util.Rng.int rng sites in
        let n_access = 1 + Ccdb_util.Rng.int rng 3 in
        let itemset =
          Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items
        in
        let reads, writes =
          List.partition (fun _ -> Ccdb_util.Rng.bool rng) itemset
        in
        let reads, writes = if writes = [] then (writes, reads) else (reads, writes) in
        let txn =
          mk_txn ~site ~reads ~writes ~compute:(Ccdb_util.Rng.float rng 5.) i
        in
        let delay = Ccdb_util.Rng.float rng 200. in
        ignore
          (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
               Two_pl.submit sys txn))
      done;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt))
      && Ccdb_serial.Check.replica_consistent (Rt.store rt))

let suites =
  [ ( "protocols.lock_table",
      [ Alcotest.test_case "write FCFS" `Quick test_lock_table_write_fcfs;
        Alcotest.test_case "shared reads" `Quick test_lock_table_shared_reads;
        Alcotest.test_case "no starvation bypass" `Quick
          test_lock_table_reader_blocked_behind_writer;
        Alcotest.test_case "stale release" `Quick test_lock_table_stale_release;
        Alcotest.test_case "waits_for" `Quick test_lock_table_waits_for;
        prop_lock_table_streams_reference_edges;
        Alcotest.test_case "holders" `Quick test_lock_table_holders ] );
    ( "protocols.two_pl",
      [ Alcotest.test_case "single txn" `Quick test_2pl_single_txn;
        Alcotest.test_case "write all copies" `Quick test_2pl_write_all_copies;
        Alcotest.test_case "conflicting txns" `Quick test_2pl_conflicting_txns_serialize;
        Alcotest.test_case "payload rmw" `Quick test_2pl_payload;
        Alcotest.test_case "deadlock resolved" `Quick test_2pl_deadlock_resolved;
        Alcotest.test_case "single-item no deadlock" `Quick test_2pl_no_deadlock_single_item;
        Alcotest.test_case "duplicate submit" `Quick test_2pl_duplicate_submit;
        prop_2pl_serializable ] ) ]

(* --- To_queue --------------------------------------------------------------- *)

module Toq = Ccdb_protocols.To_queue
module To_sys = Ccdb_protocols.To_system

let test_to_queue_reject_late_read () =
  let q = Toq.create () in
  check Alcotest.bool "w accepted" true
    (Toq.request q ~txn:1 ~ts:10 ~op:Ccdb_model.Op.Write = Toq.Accepted);
  Toq.commit_write q ~txn:1 ~value:5;
  ignore (Toq.perform_ready q);
  check Alcotest.int "w_ts" 10 (Toq.w_ts q);
  check Alcotest.bool "late read rejected" true
    (Toq.request q ~txn:2 ~ts:9 ~op:Ccdb_model.Op.Read = Toq.Rejected);
  check Alcotest.bool "fresh read ok" true
    (Toq.request q ~txn:3 ~ts:11 ~op:Ccdb_model.Op.Read = Toq.Accepted)

let test_to_queue_reject_late_write () =
  let q = Toq.create () in
  check Alcotest.bool "read accepted" true
    (Toq.request q ~txn:1 ~ts:10 ~op:Ccdb_model.Op.Read = Toq.Accepted);
  ignore (Toq.perform_ready q);
  check Alcotest.int "r_ts" 10 (Toq.r_ts q);
  check Alcotest.bool "late write rejected" true
    (Toq.request q ~txn:2 ~ts:9 ~op:Ccdb_model.Op.Write = Toq.Rejected)

let test_to_queue_read_waits_for_prewrite () =
  let q = Toq.create () in
  ignore (Toq.request q ~txn:1 ~ts:5 ~op:Ccdb_model.Op.Write);
  ignore (Toq.request q ~txn:2 ~ts:7 ~op:Ccdb_model.Op.Read);
  check Alcotest.int "nothing performable" 0 (List.length (Toq.perform_ready q));
  Toq.commit_write q ~txn:1 ~value:9;
  let done_ = Toq.perform_ready q in
  check (Alcotest.list Alcotest.int) "write then read" [ 1; 2 ]
    (List.map (fun (p : Toq.performed) -> p.txn) done_)

let test_to_queue_read_passes_smaller_prewrite () =
  (* a read with smaller timestamp than the buffered write may proceed *)
  let q = Toq.create () in
  ignore (Toq.request q ~txn:1 ~ts:8 ~op:Ccdb_model.Op.Write);
  ignore (Toq.request q ~txn:2 ~ts:6 ~op:Ccdb_model.Op.Read);
  let done_ = Toq.perform_ready q in
  check (Alcotest.list Alcotest.int) "read proceeds" [ 2 ]
    (List.map (fun (p : Toq.performed) -> p.txn) done_)

let test_to_queue_granted_read_never_blocks_later_write () =
  (* the paper's section 4.2 observation about pure T/O *)
  let q = Toq.create () in
  ignore (Toq.request q ~txn:1 ~ts:5 ~op:Ccdb_model.Op.Read);
  ignore (Toq.perform_ready q);
  ignore (Toq.request q ~txn:2 ~ts:6 ~op:Ccdb_model.Op.Write);
  Toq.commit_write q ~txn:2 ~value:1;
  let done_ = Toq.perform_ready q in
  check (Alcotest.list Alcotest.int) "write proceeds" [ 2 ]
    (List.map (fun (p : Toq.performed) -> p.txn) done_)

let test_to_queue_writes_apply_in_ts_order () =
  let q = Toq.create () in
  ignore (Toq.request q ~txn:1 ~ts:5 ~op:Ccdb_model.Op.Write);
  ignore (Toq.request q ~txn:2 ~ts:7 ~op:Ccdb_model.Op.Write);
  Toq.commit_write q ~txn:2 ~value:2;
  check Alcotest.int "later write blocked" 0 (List.length (Toq.perform_ready q));
  Toq.commit_write q ~txn:1 ~value:1;
  check (Alcotest.list Alcotest.int) "both in order" [ 1; 2 ]
    (List.map (fun (p : Toq.performed) -> p.txn) (Toq.perform_ready q))

let test_to_queue_abort_unblocks () =
  let q = Toq.create () in
  ignore (Toq.request q ~txn:1 ~ts:5 ~op:Ccdb_model.Op.Write);
  ignore (Toq.request q ~txn:2 ~ts:7 ~op:Ccdb_model.Op.Read);
  Toq.abort q ~txn:1;
  check (Alcotest.list Alcotest.int) "read unblocked" [ 2 ]
    (List.map (fun (p : Toq.performed) -> p.txn) (Toq.perform_ready q));
  check Alcotest.int "queue empty" 0 (Toq.pending q)

(* --- To_system ---------------------------------------------------------------- *)

let test_to_single_txn () =
  let rt = make_runtime () in
  let sys = To_sys.create rt in
  To_sys.submit sys
    (mk_txn ~site:0 ~reads:[ 0 ] ~writes:[ 1 ] ~protocol:Ccdb_model.Protocol.T_o 1);
  Rt.quiesce rt;
  check Alcotest.int "committed" 1 (Rt.counters rt).committed;
  check Alcotest.int "no restarts" 0 (Rt.counters rt).restarts;
  assert_serializable rt

let test_to_conflicting_txns () =
  let rt = make_runtime () in
  let sys = To_sys.create rt in
  for i = 1 to 10 do
    To_sys.submit sys
      (mk_txn ~site:(i mod 2) ~writes:[ 0 ] ~protocol:Ccdb_model.Protocol.T_o i)
  done;
  Rt.quiesce rt;
  check Alcotest.int "all committed" 10 (Rt.counters rt).committed;
  assert_serializable rt

let test_to_restart_on_rejection () =
  (* force a rejection: a slow txn from a far site gets its timestamp first
     but its request arrives after a younger txn already performed *)
  let rt = make_runtime ~sites:2 ~items:1 ~replication:1 () in
  let sys = To_sys.create rt in
  (* txn 1 from remote site: older timestamp, arrives later *)
  To_sys.submit sys
    (mk_txn ~site:1 ~writes:[ 0 ] ~protocol:Ccdb_model.Protocol.T_o 1);
  (* txn 2 local to the item's site: younger, arrives first, performs *)
  To_sys.submit sys
    (mk_txn ~site:0 ~writes:[ 0 ] ~compute:0.01 ~protocol:Ccdb_model.Protocol.T_o 2);
  Rt.quiesce rt;
  check Alcotest.int "both committed" 2 (Rt.counters rt).committed;
  check Alcotest.bool "txn 1 restarted" true ((Rt.counters rt).rejections >= 1);
  assert_serializable rt

let prop_to_serializable =
  qtest ~count:15 "T/O: random workloads serialize and complete"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sites = 3 and items = 6 in
      let rt = make_runtime ~seed ~sites ~items ~replication:2 () in
      let sys = To_sys.create rt in
      let rng = Ccdb_util.Rng.create ~seed:(seed + 77) in
      let n = 25 in
      for i = 1 to n do
        let site = Ccdb_util.Rng.int rng sites in
        let n_access = 1 + Ccdb_util.Rng.int rng 3 in
        let itemset = Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items in
        let reads, writes = List.partition (fun _ -> Ccdb_util.Rng.bool rng) itemset in
        let reads, writes = if writes = [] then (writes, reads) else (reads, writes) in
        let txn =
          mk_txn ~site ~reads ~writes ~compute:(Ccdb_util.Rng.float rng 5.)
            ~protocol:Ccdb_model.Protocol.T_o i
        in
        let delay = Ccdb_util.Rng.float rng 200. in
        ignore
          (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
               To_sys.submit sys txn))
      done;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && (Rt.counters rt).deadlock_aborts = 0
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt))
      && Ccdb_serial.Check.replica_consistent (Rt.store rt))

(* --- Pa_queue ---------------------------------------------------------------- *)

module Paq = Ccdb_protocols.Pa_queue
module Pa_sys = Ccdb_protocols.Pa_system

let test_pa_queue_accepts_fresh () =
  let q = Paq.create () in
  (match Paq.request q ~txn:1 ~site:0 ~ts:5 ~op:Ccdb_model.Op.Write with
   | Paq.Accepted -> ()
   | Paq.Backoff _ -> Alcotest.fail "should accept");
  let granted = Paq.grant_ready q ~now:1.0 in
  check (Alcotest.list Alcotest.int) "granted" [ 1 ]
    (List.map (fun (e : Paq.entry) -> e.txn) granted)

let test_pa_queue_backoff_instead_of_reject () =
  let q = Paq.create () in
  ignore (Paq.request q ~txn:1 ~site:0 ~ts:10 ~op:Ccdb_model.Op.Write);
  ignore (Paq.grant_ready q ~now:0.);
  ignore (Paq.release q ~txn:1);
  check Alcotest.int "w released" 10 (Paq.w_ts q);
  (* late read: ts 1 <= w_ts 10, backoff to 1 + 2*8 = 17 (k = 2) *)
  (match Paq.request q ~txn:2 ~site:0 ~ts:1 ~op:Ccdb_model.Op.Read with
   | Paq.Backoff ts' -> check Alcotest.int "backoff value" 17 ts'
   | Paq.Accepted -> Alcotest.fail "should back off")

let test_pa_queue_blocked_stalls_frontier () =
  let q = Paq.create () in
  ignore (Paq.request q ~txn:1 ~site:0 ~ts:10 ~op:Ccdb_model.Op.Write);
  ignore (Paq.grant_ready q ~now:0.);
  ignore (Paq.release q ~txn:1);
  (* blocked entry at backed-off position: ts 10 = w_ts 10, so 10 + 8
     (k = 1) *)
  (match Paq.request q ~txn:2 ~site:0 ~ts:10 ~op:Ccdb_model.Op.Write with
   | Paq.Backoff ts' -> check Alcotest.int "ts'" 18 ts'
   | Paq.Accepted -> Alcotest.fail "should back off");
  (* a later accepted request must not be granted past the blocked one *)
  ignore (Paq.request q ~txn:3 ~site:0 ~ts:20 ~op:Ccdb_model.Op.Write);
  check Alcotest.int "frontier stalled" 0
    (List.length (Paq.grant_ready q ~now:1.));
  (* the issuer's agreed timestamp unblocks it *)
  (match Paq.update_ts q ~txn:2 ~ts:18 with
   | `Moved -> ()
   | `Revoked | `Absent -> Alcotest.fail "expected move");
  check (Alcotest.list Alcotest.int) "txn 2 first" [ 2 ]
    (List.map (fun (e : Paq.entry) -> e.txn) (Paq.grant_ready q ~now:2.));
  (* txn 3's conflicting write waits for txn 2's release *)
  ignore (Paq.release q ~txn:2);
  check (Alcotest.list Alcotest.int) "then txn 3" [ 3 ]
    (List.map (fun (e : Paq.entry) -> e.txn) (Paq.grant_ready q ~now:3.))

let test_pa_queue_revoke_on_update () =
  let q = Paq.create () in
  ignore (Paq.request q ~txn:1 ~site:0 ~ts:5 ~op:Ccdb_model.Op.Write);
  let granted = Paq.grant_ready q ~now:0. in
  check Alcotest.int "granted" 1 (List.length granted);
  (match Paq.update_ts q ~txn:1 ~ts:9 with
   | `Revoked -> ()
   | `Moved | `Absent -> Alcotest.fail "expected revocation");
  (* re-grants at the new position *)
  let again = Paq.grant_ready q ~now:1. in
  check Alcotest.int "re-granted" 1 (List.length again);
  check Alcotest.int "new ts" 9 (List.hd again).Paq.ts

let test_pa_queue_shared_reads () =
  let q = Paq.create () in
  ignore (Paq.request q ~txn:1 ~site:0 ~ts:5 ~op:Ccdb_model.Op.Read);
  ignore (Paq.request q ~txn:2 ~site:0 ~ts:6 ~op:Ccdb_model.Op.Read);
  check Alcotest.int "both readers" 2 (List.length (Paq.grant_ready q ~now:0.));
  ignore (Paq.request q ~txn:3 ~site:0 ~ts:7 ~op:Ccdb_model.Op.Write);
  check Alcotest.int "writer waits" 0 (List.length (Paq.grant_ready q ~now:0.));
  ignore (Paq.release q ~txn:1);
  ignore (Paq.release q ~txn:2);
  check Alcotest.int "writer proceeds" 1 (List.length (Paq.grant_ready q ~now:1.))

(* --- Pa_system ------------------------------------------------------------------ *)

let test_pa_single_txn () =
  let rt = make_runtime () in
  let sys = Pa_sys.create rt in
  Pa_sys.submit sys
    (mk_txn ~site:0 ~reads:[ 0 ] ~writes:[ 1 ] ~protocol:Ccdb_model.Protocol.Pa 1);
  Rt.quiesce rt;
  check Alcotest.int "committed" 1 (Rt.counters rt).committed;
  assert_serializable rt

let test_pa_contention_no_restarts () =
  let rt = make_runtime ~sites:2 ~items:1 ~replication:1 () in
  let sys = Pa_sys.create rt in
  for i = 1 to 12 do
    Pa_sys.submit sys
      (mk_txn ~site:(i mod 2) ~writes:[ 0 ] ~protocol:Ccdb_model.Protocol.Pa i)
  done;
  Rt.quiesce rt;
  check Alcotest.int "all committed" 12 (Rt.counters rt).committed;
  check Alcotest.int "no restarts (Corollary 1)" 0 (Rt.counters rt).restarts;
  assert_serializable rt

let test_pa_backoff_happens () =
  (* remote old-timestamp txn arrives after a local young one performed:
     in T/O this is a rejection, in PA a back-off *)
  let rt = make_runtime ~sites:2 ~items:1 ~replication:1 () in
  let sys = Pa_sys.create rt in
  Pa_sys.submit sys
    (mk_txn ~site:1 ~writes:[ 0 ] ~protocol:Ccdb_model.Protocol.Pa 1);
  Pa_sys.submit sys
    (mk_txn ~site:0 ~writes:[ 0 ] ~compute:0.01 ~protocol:Ccdb_model.Protocol.Pa 2);
  Rt.quiesce rt;
  check Alcotest.int "both committed" 2 (Rt.counters rt).committed;
  check Alcotest.bool "backoff occurred" true ((Rt.counters rt).backoffs >= 1);
  check Alcotest.int "no restarts" 0 (Rt.counters rt).restarts;
  assert_serializable rt

let prop_pa_serializable_no_restarts =
  qtest ~count:15 "PA: random workloads serialize, complete, never restart"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sites = 3 and items = 6 in
      let rt = make_runtime ~seed ~sites ~items ~replication:2 () in
      let sys = Pa_sys.create rt in
      let rng = Ccdb_util.Rng.create ~seed:(seed + 999) in
      let n = 25 in
      for i = 1 to n do
        let site = Ccdb_util.Rng.int rng sites in
        let n_access = 1 + Ccdb_util.Rng.int rng 3 in
        let itemset = Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items in
        let reads, writes = List.partition (fun _ -> Ccdb_util.Rng.bool rng) itemset in
        let reads, writes = if writes = [] then (writes, reads) else (reads, writes) in
        let txn =
          mk_txn ~site ~reads ~writes ~compute:(Ccdb_util.Rng.float rng 5.)
            ~protocol:Ccdb_model.Protocol.Pa i
        in
        let delay = Ccdb_util.Rng.float rng 200. in
        ignore
          (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
               Pa_sys.submit sys txn))
      done;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && (Rt.counters rt).restarts = 0
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt))
      && Ccdb_serial.Check.replica_consistent (Rt.store rt))

let suites =
  suites
  @ [ ( "protocols.to_queue",
        [ Alcotest.test_case "reject late read" `Quick test_to_queue_reject_late_read;
          Alcotest.test_case "reject late write" `Quick test_to_queue_reject_late_write;
          Alcotest.test_case "read waits for prewrite" `Quick test_to_queue_read_waits_for_prewrite;
          Alcotest.test_case "read passes bigger prewrite" `Quick test_to_queue_read_passes_smaller_prewrite;
          Alcotest.test_case "granted read never blocks write" `Quick
            test_to_queue_granted_read_never_blocks_later_write;
          Alcotest.test_case "writes in ts order" `Quick test_to_queue_writes_apply_in_ts_order;
          Alcotest.test_case "abort unblocks" `Quick test_to_queue_abort_unblocks ] );
      ( "protocols.to_system",
        [ Alcotest.test_case "single txn" `Quick test_to_single_txn;
          Alcotest.test_case "conflicting txns" `Quick test_to_conflicting_txns;
          Alcotest.test_case "restart on rejection" `Quick test_to_restart_on_rejection;
          prop_to_serializable ] );
      ( "protocols.pa_queue",
        [ Alcotest.test_case "accepts fresh" `Quick test_pa_queue_accepts_fresh;
          Alcotest.test_case "backoff not reject" `Quick test_pa_queue_backoff_instead_of_reject;
          Alcotest.test_case "blocked stalls frontier" `Quick test_pa_queue_blocked_stalls_frontier;
          Alcotest.test_case "revoke on update" `Quick test_pa_queue_revoke_on_update;
          Alcotest.test_case "shared reads" `Quick test_pa_queue_shared_reads ] );
      ( "protocols.pa_system",
        [ Alcotest.test_case "single txn" `Quick test_pa_single_txn;
          Alcotest.test_case "contention, no restarts" `Quick test_pa_contention_no_restarts;
          Alcotest.test_case "backoff happens" `Quick test_pa_backoff_happens;
          prop_pa_serializable_no_restarts ] ) ]

(* --- Edge-chasing deadlock detection ---------------------------------------- *)

let edge_chasing_config =
  { Ccdb_protocols.Two_pl_system.default_config with
    detection = Ccdb_protocols.Deadlock.Edge_chasing { probe_delay = 60. } }

let test_edge_chasing_resolves_deadlock () =
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let sys = Two_pl.create ~config:edge_chasing_config rt in
  Two_pl.submit sys (mk_txn ~site:0 ~writes:[ 0; 1 ] 1);
  Two_pl.submit sys (mk_txn ~site:1 ~writes:[ 0; 1 ] 2);
  Rt.quiesce rt;
  check Alcotest.int "both committed" 2 (Rt.counters rt).committed;
  check Alcotest.bool "deadlock found by probes" true
    ((Rt.counters rt).deadlock_aborts >= 1);
  check Alcotest.bool "probe cycle count" true (Two_pl.detector_cycles sys >= 1);
  assert_serializable rt

let test_edge_chasing_no_false_abort_when_no_deadlock () =
  (* pure queueing, no cycles: probes must not abort anyone *)
  let rt = make_runtime ~sites:2 ~items:1 ~replication:1 () in
  let sys = Two_pl.create ~config:edge_chasing_config rt in
  for i = 1 to 10 do
    Two_pl.submit sys (mk_txn ~site:(i mod 2) ~writes:[ 0 ] ~compute:30. i)
  done;
  Rt.quiesce rt;
  check Alcotest.int "all committed" 10 (Rt.counters rt).committed;
  check Alcotest.int "no aborts" 0 (Rt.counters rt).deadlock_aborts;
  assert_serializable rt

let test_edge_chasing_counts_messages () =
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let sys = Two_pl.create ~config:edge_chasing_config rt in
  Two_pl.submit sys (mk_txn ~site:0 ~writes:[ 0; 1 ] 1);
  Two_pl.submit sys (mk_txn ~site:1 ~writes:[ 0; 1 ] 2);
  Rt.quiesce rt;
  let kinds = Ccdb_sim.Net.messages_by_kind (Rt.net rt) in
  check Alcotest.bool "probe messages counted" true
    (List.mem_assoc "probe" kinds || List.mem_assoc "probe-scan" kinds)

let prop_edge_chasing_serializable =
  qtest ~count:10 "edge-chasing 2PL: random workloads complete + serialize"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sites = 3 and items = 5 in
      let rt = make_runtime ~seed ~sites ~items ~replication:1 () in
      let sys = Two_pl.create ~config:edge_chasing_config rt in
      let rng = Ccdb_util.Rng.create ~seed:(seed + 4242) in
      let n = 20 in
      for i = 1 to n do
        let site = Ccdb_util.Rng.int rng sites in
        let n_access = 1 + Ccdb_util.Rng.int rng 3 in
        let itemset = Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items in
        let txn = mk_txn ~site ~writes:itemset ~compute:(Ccdb_util.Rng.float rng 5.) i in
        let delay = Ccdb_util.Rng.float rng 150. in
        ignore
          (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
               Two_pl.submit sys txn))
      done;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt)))

let suites =
  suites
  @ [ ( "protocols.edge_chasing",
        [ Alcotest.test_case "resolves deadlock" `Quick test_edge_chasing_resolves_deadlock;
          Alcotest.test_case "no false aborts" `Quick test_edge_chasing_no_false_abort_when_no_deadlock;
          Alcotest.test_case "probe messages" `Quick test_edge_chasing_counts_messages;
          prop_edge_chasing_serializable ] ) ]

(* --- Thomas Write Rule ------------------------------------------------------- *)

let test_twr_queue_verdicts () =
  let q = Toq.create ~thomas_write_rule:true () in
  ignore (Toq.request q ~txn:1 ~ts:10 ~op:Ccdb_model.Op.Write);
  Toq.commit_write q ~txn:1 ~value:1;
  ignore (Toq.perform_ready q);
  (* obsolete write: ignored, not rejected *)
  check Alcotest.bool "ignored" true
    (Toq.request q ~txn:2 ~ts:5 ~op:Ccdb_model.Op.Write = Toq.Ignored);
  (* a performed read still forces rejection *)
  ignore (Toq.request q ~txn:3 ~ts:20 ~op:Ccdb_model.Op.Read);
  ignore (Toq.perform_ready q);
  check Alcotest.bool "read guards" true
    (Toq.request q ~txn:4 ~ts:15 ~op:Ccdb_model.Op.Write = Toq.Rejected);
  (* without the rule the same write is rejected *)
  let q' = Toq.create () in
  ignore (Toq.request q' ~txn:1 ~ts:10 ~op:Ccdb_model.Op.Write);
  Toq.commit_write q' ~txn:1 ~value:1;
  ignore (Toq.perform_ready q');
  check Alcotest.bool "rejected without TWR" true
    (Toq.request q' ~txn:2 ~ts:5 ~op:Ccdb_model.Op.Write = Toq.Rejected)

let twr_config = { Ccdb_protocols.To_system.restart_delay = 50.; thomas_write_rule = true }

let test_twr_system_completes () =
  (* write-heavy contention: TWR absorbs obsolete writes without restarts *)
  let rt = make_runtime ~sites:2 ~items:1 ~replication:1 () in
  let sys = To_sys.create ~config:twr_config rt in
  for i = 1 to 12 do
    To_sys.submit sys
      (mk_txn ~site:(i mod 2) ~writes:[ 0 ]
         ~compute:(float_of_int (1 + (i mod 5)))
         ~protocol:Ccdb_model.Protocol.T_o i)
  done;
  Rt.quiesce rt;
  check Alcotest.int "all committed" 12 (Rt.counters rt).committed;
  assert_serializable rt

let prop_twr_fewer_restarts =
  qtest ~count:10 "TWR never restarts more than Basic T/O"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let run twr =
        let rt = make_runtime ~seed ~sites:3 ~items:4 ~replication:1 () in
        let config = { Ccdb_protocols.To_system.restart_delay = 50.; thomas_write_rule = twr } in
        let sys = To_sys.create ~config rt in
        let rng = Ccdb_util.Rng.create ~seed:(seed + 5) in
        for i = 1 to 25 do
          let txn =
            mk_txn ~site:(Ccdb_util.Rng.int rng 3)
              ~writes:[ Ccdb_util.Rng.int rng 4 ]
              ~compute:(Ccdb_util.Rng.float rng 8.)
              ~protocol:Ccdb_model.Protocol.T_o i
          in
          let delay = Ccdb_util.Rng.float rng 120. in
          ignore
            (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
                 To_sys.submit sys txn))
        done;
        Rt.quiesce rt;
        let ok =
          (Rt.counters rt).committed = 25
          && Ccdb_serial.Check.conflict_serializable
               (Ccdb_storage.Store.logs (Rt.store rt))
        in
        ((Rt.counters rt).restarts, ok)
      in
      let basic_restarts, basic_ok = run false in
      let twr_restarts, twr_ok = run true in
      basic_ok && twr_ok && twr_restarts <= basic_restarts)

let suites =
  suites
  @ [ ( "protocols.thomas_write_rule",
        [ Alcotest.test_case "queue verdicts" `Quick test_twr_queue_verdicts;
          Alcotest.test_case "system completes" `Quick test_twr_system_completes;
          prop_twr_fewer_restarts ] ) ]

(* --- deadlock prevention: wait-die and wound-wait ----------------------------- *)

let prevention_config p =
  { Ccdb_protocols.Two_pl_system.default_config with prevention = p }

let deadlock_prone_workload rt sys =
  Two_pl.submit sys (mk_txn ~site:0 ~writes:[ 0; 1 ] 1);
  Two_pl.submit sys (mk_txn ~site:1 ~writes:[ 0; 1 ] 2);
  Rt.quiesce rt

let test_wait_die_resolves () =
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let sys = Two_pl.create ~config:(prevention_config Ccdb_protocols.Two_pl_system.Wait_die) rt in
  deadlock_prone_workload rt sys;
  check Alcotest.int "both committed" 2 (Rt.counters rt).committed;
  check Alcotest.int "no detection aborts" 0 (Rt.counters rt).deadlock_aborts;
  check Alcotest.bool "prevention kills happened" true
    ((Rt.counters rt).prevention_aborts >= 1);
  assert_serializable rt

let test_wound_wait_resolves () =
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let sys = Two_pl.create ~config:(prevention_config Ccdb_protocols.Two_pl_system.Wound_wait) rt in
  deadlock_prone_workload rt sys;
  check Alcotest.int "both committed" 2 (Rt.counters rt).committed;
  check Alcotest.int "no detection aborts" 0 (Rt.counters rt).deadlock_aborts;
  assert_serializable rt

let test_wound_wait_oldest_never_killed () =
  (* under wound-wait the oldest transaction is never a victim *)
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let killed = ref [] in
  Rt.subscribe rt (fun e ->
      match e with
      | Rt.Txn_restarted { txn; reason = Rt.Prevention_kill; _ } ->
        killed := txn.id :: !killed
      | _ -> ());
  let sys = Two_pl.create ~config:(prevention_config Ccdb_protocols.Two_pl_system.Wound_wait) rt in
  for i = 1 to 10 do
    Two_pl.submit sys (mk_txn ~site:(i mod 2) ~writes:[ 0; 1 ] i)
  done;
  Rt.quiesce rt;
  check Alcotest.int "all committed" 10 (Rt.counters rt).committed;
  check Alcotest.bool "t1 never wounded" true (not (List.mem 1 !killed));
  assert_serializable rt

let prop_prevention_serializable =
  qtest ~count:10 "prevention policies: random workloads complete + serialize"
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, use_wound) ->
      let policy =
        if use_wound then Ccdb_protocols.Two_pl_system.Wound_wait
        else Ccdb_protocols.Two_pl_system.Wait_die
      in
      let sites = 3 and items = 5 in
      let rt = make_runtime ~seed ~sites ~items ~replication:1 () in
      let sys = Two_pl.create ~config:(prevention_config policy) rt in
      let rng = Ccdb_util.Rng.create ~seed:(seed + 31) in
      let n = 20 in
      for i = 1 to n do
        let site = Ccdb_util.Rng.int rng sites in
        let n_access = 1 + Ccdb_util.Rng.int rng 3 in
        let itemset = Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items in
        let txn = mk_txn ~site ~writes:itemset ~compute:(Ccdb_util.Rng.float rng 5.) i in
        let delay = Ccdb_util.Rng.float rng 150. in
        ignore
          (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
               Two_pl.submit sys txn))
      done;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && (Rt.counters rt).deadlock_aborts = 0
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt)))

let suites =
  suites
  @ [ ( "protocols.prevention",
        [ Alcotest.test_case "wait-die resolves" `Quick test_wait_die_resolves;
          Alcotest.test_case "wound-wait resolves" `Quick test_wound_wait_resolves;
          Alcotest.test_case "oldest never wounded" `Quick test_wound_wait_oldest_never_killed;
          prop_prevention_serializable ] ) ]

(* --- MVTO ---------------------------------------------------------------------- *)

module Mvq = Ccdb_protocols.Mvto_queue
module Mv_sys = Ccdb_protocols.Mvto_system

let test_mvto_queue_reads_never_reject () =
  let q = Mvq.create () in
  ignore (Mvq.prewrite q ~txn:1 ~ts:10);
  Mvq.commit_write q ~txn:1 ~value:100;
  (* an "old" read after a newer write: Basic T/O rejects, MVTO serves the
     older version *)
  (match Mvq.read q ~txn:2 ~ts:5 with
   | Mvq.Value v -> check Alcotest.int "old version" 0 v
   | Mvq.Wait -> Alcotest.fail "should read the initial version");
  (match Mvq.read q ~txn:3 ~ts:15 with
   | Mvq.Value v -> check Alcotest.int "new version" 100 v
   | Mvq.Wait -> Alcotest.fail "should read the committed version")

let test_mvto_queue_read_waits_for_pending () =
  let q = Mvq.create () in
  ignore (Mvq.prewrite q ~txn:1 ~ts:10);
  (match Mvq.read q ~txn:2 ~ts:15 with
   | Mvq.Wait -> ()
   | Mvq.Value _ -> Alcotest.fail "must wait for the pending version");
  Mvq.commit_write q ~txn:1 ~value:7;
  (match Mvq.drain_reads q with
   | [ (2, 15, 7) ] -> ()
   | _ -> Alcotest.fail "parked read should drain with the new value")

let test_mvto_queue_write_interval_conflict () =
  let q = Mvq.create () in
  (* a read at ts 20 observes the initial version *)
  ignore (Mvq.read q ~txn:1 ~ts:20);
  (* a write at ts 10 would invalidate it *)
  check Alcotest.bool "rejected" true
    (Mvq.prewrite q ~txn:2 ~ts:10 = Mvq.W_rejected);
  (* a write above the read is fine *)
  check Alcotest.bool "accepted" true
    (Mvq.prewrite q ~txn:3 ~ts:25 = Mvq.W_accepted)

let test_mvto_queue_abort_unparks () =
  let q = Mvq.create () in
  ignore (Mvq.prewrite q ~txn:1 ~ts:10);
  ignore (Mvq.read q ~txn:2 ~ts:15);
  Mvq.abort q ~txn:1;
  (match Mvq.drain_reads q with
   | [ (2, 15, 0) ] -> () (* falls back to the initial version *)
   | _ -> Alcotest.fail "read should resolve against the surviving chain")

let test_mvto_system_basic () =
  let rt = make_runtime ~sites:2 ~items:3 ~replication:2 () in
  let sys = Mv_sys.create rt in
  Mv_sys.submit sys (mk_txn ~site:0 ~reads:[ 0 ] ~writes:[ 1 ] ~protocol:Ccdb_model.Protocol.T_o 1);
  Mv_sys.submit sys (mk_txn ~site:1 ~reads:[ 1 ] ~writes:[ 2 ] ~protocol:Ccdb_model.Protocol.T_o 2);
  Rt.quiesce rt;
  check Alcotest.int "committed" 2 (Rt.counters rt).committed;
  check Alcotest.bool "mvto invariant" true (Mv_sys.verify sys)

let prop_mvto_random =
  qtest ~count:15 "MVTO: random workloads complete and verify"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sites = 3 and items = 5 in
      let rt = make_runtime ~seed ~sites ~items ~replication:2 () in
      let sys = Mv_sys.create rt in
      let rng = Ccdb_util.Rng.create ~seed:(seed + 271) in
      let n = 25 in
      for i = 1 to n do
        let site = Ccdb_util.Rng.int rng sites in
        let n_access = 1 + Ccdb_util.Rng.int rng 3 in
        let itemset = Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items in
        let reads, writes = List.partition (fun _ -> Ccdb_util.Rng.bool rng) itemset in
        let reads, writes = if writes = [] then (writes, reads) else (reads, writes) in
        let txn =
          mk_txn ~site ~reads ~writes ~compute:(Ccdb_util.Rng.float rng 5.)
            ~protocol:Ccdb_model.Protocol.T_o i
        in
        let delay = Ccdb_util.Rng.float rng 200. in
        ignore
          (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
               Mv_sys.submit sys txn))
      done;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n && Mv_sys.verify sys)

let test_mvto_no_read_restarts () =
  (* the whole point: a workload that makes Basic T/O restart on reads runs
     restart-free under MVTO when there are no write-write conflicts *)
  let rt = make_runtime ~sites:2 ~items:4 ~replication:1 () in
  let sys = Mv_sys.create rt in
  (* writers on items 0,1; readers on everything, arriving around them *)
  for i = 1 to 16 do
    let txn =
      if i mod 4 = 0 then mk_txn ~site:(i mod 2) ~writes:[ i mod 2 ] ~protocol:Ccdb_model.Protocol.T_o i
      else mk_txn ~site:(i mod 2) ~reads:[ 0; 1 ] ~protocol:Ccdb_model.Protocol.T_o i
    in
    ignore
      (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:(float_of_int i)
         (fun () -> Mv_sys.submit sys txn))
  done;
  Rt.quiesce rt;
  check Alcotest.int "committed" 16 (Rt.counters rt).committed;
  check Alcotest.bool "verified" true (Mv_sys.verify sys)

let suites =
  suites
  @ [ ( "protocols.mvto",
        [ Alcotest.test_case "reads never reject" `Quick test_mvto_queue_reads_never_reject;
          Alcotest.test_case "read waits for pending" `Quick test_mvto_queue_read_waits_for_pending;
          Alcotest.test_case "write interval conflict" `Quick test_mvto_queue_write_interval_conflict;
          Alcotest.test_case "abort unparks" `Quick test_mvto_queue_abort_unparks;
          Alcotest.test_case "system basic" `Quick test_mvto_system_basic;
          Alcotest.test_case "no read restarts" `Quick test_mvto_no_read_restarts;
          prop_mvto_random ] ) ]

(* --- Conservative T/O ----------------------------------------------------------- *)

module Cto = Ccdb_protocols.Cto_system

let test_cto_single_txn () =
  let rt = make_runtime ~sites:2 ~items:3 ~replication:2 () in
  let sys = Cto.create rt in
  Cto.submit sys (mk_txn ~site:0 ~reads:[ 0 ] ~writes:[ 1 ] ~protocol:Ccdb_model.Protocol.T_o 1);
  Rt.quiesce rt;
  check Alcotest.int "committed" 1 (Rt.counters rt).committed;
  check Alcotest.int "no restarts" 0 (Rt.counters rt).restarts;
  check Alcotest.bool "ticks flowed" true (Cto.ticks_sent sys > 0);
  assert_serializable rt

let test_cto_executes_in_ts_order () =
  (* two conflicting writers: the smaller timestamp must implement first on
     every copy, whatever the arrival order *)
  let rt = make_runtime ~sites:2 ~items:1 ~replication:2 () in
  let sys = Cto.create rt in
  Cto.submit sys (mk_txn ~site:0 ~writes:[ 0 ] ~compute:20. ~protocol:Ccdb_model.Protocol.T_o 1);
  Cto.submit sys (mk_txn ~site:1 ~writes:[ 0 ] ~compute:0.5 ~protocol:Ccdb_model.Protocol.T_o 2);
  Rt.quiesce rt;
  check Alcotest.int "committed" 2 (Rt.counters rt).committed;
  (* final value must be txn 2's (the larger timestamp) on all copies *)
  List.iter
    (fun site ->
      check Alcotest.int "ts order wins" 2
        (Ccdb_storage.Store.read (Rt.store rt) ~item:0 ~site))
    (Ccdb_storage.Catalog.copies (Rt.catalog rt) 0);
  assert_serializable rt

let prop_cto_no_restarts_serializable =
  qtest ~count:12 "conservative T/O: restart-free and serializable"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sites = 3 and items = 5 in
      let rt = make_runtime ~seed ~sites ~items ~replication:2 () in
      let sys = Cto.create rt in
      let rng = Ccdb_util.Rng.create ~seed:(seed + 61) in
      let n = 20 in
      for i = 1 to n do
        let site = Ccdb_util.Rng.int rng sites in
        let n_access = 1 + Ccdb_util.Rng.int rng 3 in
        let itemset = Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items in
        let reads, writes = List.partition (fun _ -> Ccdb_util.Rng.bool rng) itemset in
        let reads, writes = if writes = [] then (writes, reads) else (reads, writes) in
        let txn =
          mk_txn ~site ~reads ~writes ~compute:(Ccdb_util.Rng.float rng 5.)
            ~protocol:Ccdb_model.Protocol.T_o i
        in
        let delay = Ccdb_util.Rng.float rng 200. in
        ignore
          (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
               Cto.submit sys txn))
      done;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && (Rt.counters rt).restarts = 0
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt))
      && Ccdb_serial.Check.replica_consistent (Rt.store rt))

let test_cto_duplicate_submit () =
  let rt = make_runtime () in
  let sys = Cto.create rt in
  Cto.submit sys (mk_txn ~writes:[ 0 ] ~protocol:Ccdb_model.Protocol.T_o 1);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Cto_system.submit: duplicate transaction id")
    (fun () -> Cto.submit sys (mk_txn ~writes:[ 1 ] ~protocol:Ccdb_model.Protocol.T_o 1))

let suites =
  suites
  @ [ ( "protocols.conservative_to",
        [ Alcotest.test_case "single txn" `Quick test_cto_single_txn;
          Alcotest.test_case "ts order" `Quick test_cto_executes_in_ts_order;
          Alcotest.test_case "duplicate submit" `Quick test_cto_duplicate_submit;
          prop_cto_no_restarts_serializable ] ) ]

(* --- Runtime and centralized detector units ------------------------------------- *)

let test_runtime_counters_and_subscribe () =
  let rt = make_runtime () in
  let seen = ref 0 in
  Rt.subscribe rt (fun _ -> incr seen);
  let txn = mk_txn ~writes:[ 0 ] 1 in
  Rt.emit rt (Rt.Pa_backoff { txn = 1; op = Ccdb_model.Op.Read; at = 0. });
  Rt.emit rt
    (Rt.Txn_restarted { txn; reason = Rt.Prevention_kill; at = 0. });
  Rt.emit rt
    (Rt.Txn_committed { txn; submitted_at = 0.; executed_at = 5.; restarts = 1 });
  let c = Rt.counters rt in
  check Alcotest.int "backoffs" 1 c.backoffs;
  check Alcotest.int "prevention" 1 c.prevention_aborts;
  check Alcotest.int "restarts" 1 c.restarts;
  check Alcotest.int "committed" 1 c.committed;
  check Alcotest.int "listener saw all" 3 !seen;
  check (Alcotest.float 0.) "mean S" 5.
    (Ccdb_util.Stats.mean (Rt.system_time rt));
  check (Alcotest.float 0.) "latest executed_at" 5. (Rt.last_executed rt)

(* the catalog owns the site count: the network is built with it *)
let test_runtime_sites_from_catalog () =
  let catalog = Ccdb_storage.Catalog.create ~items:2 ~sites:3 ~replication:1 in
  let rt = Rt.create ~net_config:Ccdb_sim.Net.default_config ~catalog () in
  check Alcotest.int "network sites" 3 (Ccdb_sim.Net.sites (Rt.net rt))

let test_centralized_detector_unit () =
  (* drive the detector directly against a synthetic wait-for graph *)
  let e = Ccdb_sim.Engine.create () in
  let rng = Ccdb_util.Rng.create ~seed:1 in
  let net = Ccdb_sim.Net.create e rng ~sites:2 Ccdb_sim.Net.default_config in
  let edges = ref [ (1, 2); (2, 1) ] in
  let aborted = ref [] in
  let d =
    Ccdb_protocols.Deadlock.create_centralized ~engine:e ~net ~interval:10.
      ~edges:(fun add -> List.iter (fun (a, b) -> add a b) !edges)
      ~choose_victim:Ccdb_protocols.Deadlock.youngest
      ~victim_site:(fun _ -> Some 1)
      ~abort:(fun v ->
        aborted := v :: !aborted;
        edges := [])
  in
  Ccdb_protocols.Deadlock.start d;
  Ccdb_sim.Engine.run ~until:50. e;
  Ccdb_protocols.Deadlock.stop d;
  Ccdb_sim.Engine.run e;
  (* scans between detection and abort delivery may re-detect the same
     cycle; every victim must still be the youngest *)
  check Alcotest.bool "victim found" true (!aborted <> []);
  check Alcotest.bool "always the youngest" true
    (List.for_all (( = ) 2) !aborted);
  check Alcotest.bool "scans happened" true (Ccdb_protocols.Deadlock.scans d >= 1);
  check Alcotest.bool "cycles seen" true
    (Ccdb_protocols.Deadlock.cycles_found d >= 1)

(* One detector reuses its graph builder across scans of a graph that
   changes between them: a 2-cycle, then an acyclic graph over the same
   and a new id, then a larger cycle over new ids.  Each scan must find
   the witness and victim a fresh detector finds on that scan's graph
   alone, so nothing of an earlier scan may leak into a later one. *)
let test_centralized_detector_reuse () =
  let graphs =
    [ [ (1, 2); (2, 1) ];
      [ (3, 1); (3, 2); (2, 1); (3, 1) ];
      [ (40, 7); (7, 55); (55, 40); (61, 7); (2, 1) ] ]
  in
  (* the (scan, cycle, victim) of every detection in [scans] scans, the
     [k]-th scan seeing [graph k] *)
  let detections graph scans =
    let e = Ccdb_sim.Engine.create () in
    let rng = Ccdb_util.Rng.create ~seed:1 in
    let net = Ccdb_sim.Net.create e rng ~sites:2 Ccdb_sim.Net.default_config in
    let scan = ref 0 and found = ref [] in
    let d =
      Ccdb_protocols.Deadlock.create_centralized ~engine:e ~net ~interval:10.
        ~edges:(fun add ->
          incr scan;
          List.iter (fun (a, b) -> add a b) (graph !scan))
        ~choose_victim:(fun cycle ->
          let victim = Ccdb_protocols.Deadlock.youngest cycle in
          found := (!scan, cycle, victim) :: !found;
          victim)
        ~victim_site:(fun _ -> Some 1) ~abort:ignore
    in
    Ccdb_protocols.Deadlock.start d;
    Ccdb_sim.Engine.run ~until:((10. *. float_of_int scans) +. 5.) e;
    Ccdb_protocols.Deadlock.stop d;
    check Alcotest.int "scans" scans (Ccdb_protocols.Deadlock.scans d);
    List.rev !found
  in
  let fresh =
    List.concat
      (List.mapi
         (fun k g ->
           List.map (fun (_, cycle, v) -> (k + 1, cycle, v))
             (detections (fun _ -> g) 1))
         graphs)
  in
  let detection = Alcotest.(triple int (list int) (option int)) in
  check (Alcotest.list detection) "fresh detectors"
    [ (1, [ 1; 2 ], Some 2); (3, [ 7; 55; 40 ], Some 55) ]
    fresh;
  check (Alcotest.list detection) "one reused detector" fresh
    (detections (fun k -> List.nth graphs (k - 1)) 3)

(* Both detectors refuse a non-positive or NaN period up front.  NaN
   compares false with everything, so a [<= 0.] guard would let it
   through. *)
let test_detector_period_guards () =
  let e = Ccdb_sim.Engine.create () in
  let rng = Ccdb_util.Rng.create ~seed:1 in
  let net = Ccdb_sim.Net.create e rng ~sites:2 Ccdb_sim.Net.default_config in
  List.iter
    (fun interval ->
      Alcotest.check_raises
        (Printf.sprintf "centralized interval %g" interval)
        (Invalid_argument "Deadlock: interval must be positive") (fun () ->
          ignore
            (Ccdb_protocols.Deadlock.create_centralized ~engine:e ~net
               ~interval ~edges:(fun _ -> ())
               ~choose_victim:Ccdb_protocols.Deadlock.youngest
               ~victim_site:(fun _ -> None) ~abort:ignore)))
    [ 0.; -1.; nan ];
  let cb =
    { Ccdb_protocols.Edge_chasing.is_waiting = (fun _ -> false);
      home_site = (fun _ -> None); pending_sites = (fun _ -> []);
      local_waits_on = (fun ~site:_ ~txn:_ -> []);
      may_initiate = (fun _ -> false); on_deadlock = ignore }
  in
  List.iter
    (fun probe_delay ->
      Alcotest.check_raises
        (Printf.sprintf "probe delay %g" probe_delay)
        (Invalid_argument "Edge_chasing.create: probe_delay must be positive")
        (fun () ->
          ignore
            (Ccdb_protocols.Edge_chasing.create e net
               { Ccdb_protocols.Edge_chasing.probe_delay } cb)))
    [ 0.; -1.; nan ]

let test_stress_unified_mixed () =
  (* a long mixed run: 1500 transactions across every protocol *)
  let sites = 4 and items = 40 in
  let catalog = Ccdb_storage.Catalog.create ~items ~sites ~replication:2 in
  let rt =
    Rt.create ~seed:7 ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  let sys = Core.Unified_system.create rt in
  let rng = Ccdb_util.Rng.create ~seed:99 in
  let n = 1500 in
  let at = ref 0. in
  for i = 1 to n do
    at := !at +. Ccdb_util.Rng.exponential rng ~mean:8.;
    let n_access = 1 + Ccdb_util.Rng.int rng 4 in
    let itemset = Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items in
    let reads, writes = List.partition (fun _ -> Ccdb_util.Rng.bool rng) itemset in
    let reads, writes = if writes = [] then (writes, reads) else (reads, writes) in
    let protocol =
      match i mod 3 with
      | 0 -> Ccdb_model.Protocol.Two_pl
      | 1 -> Ccdb_model.Protocol.T_o
      | _ -> Ccdb_model.Protocol.Pa
    in
    let txn = mk_txn ~site:(i mod sites) ~reads ~writes
        ~compute:(Ccdb_util.Rng.float rng 6.) ~protocol i in
    ignore
      (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:!at (fun () ->
           Core.Unified_system.submit sys txn))
  done;
  Rt.quiesce ~max_events:100_000_000 rt;
  check Alcotest.int "all committed" n (Rt.counters rt).committed;
  assert_serializable rt

let suites =
  suites
  @ [ ( "protocols.runtime",
        [ Alcotest.test_case "counters + subscribe" `Quick test_runtime_counters_and_subscribe;
          Alcotest.test_case "sites from catalog" `Quick
            test_runtime_sites_from_catalog;
          Alcotest.test_case "centralized detector unit" `Quick test_centralized_detector_unit;
          Alcotest.test_case "centralized detector reuse" `Quick
            test_centralized_detector_reuse;
          Alcotest.test_case "detector period guards" `Quick
            test_detector_period_guards ] );
      ( "protocols.stress",
        [ Alcotest.test_case "1500-txn unified mix" `Slow test_stress_unified_mixed ] ) ]

(* --- randomized state-machine tests for the pure queues ------------------------ *)

let prop_to_queue_random_ops =
  qtest ~count:200 "To_queue: invariants under random command sequences"
    QCheck.(pair (int_range 0 100_000) (int_range 5 60))
    (fun (seed, steps) ->
      let rng = Ccdb_util.Rng.create ~seed in
      let q = Toq.create ~thomas_write_rule:(Ccdb_util.Rng.bool rng) () in
      let next = ref 0 in
      let pending_writes = ref [] in
      let performed_ts = ref [] in
      let ok = ref true in
      for _ = 1 to steps do
        (match Ccdb_util.Rng.int rng 4 with
         | 0 | 1 ->
           incr next;
           let ts = !next + Ccdb_util.Rng.int rng 3 - Ccdb_util.Rng.int rng 6 in
           let ts = max 1 ts in
           let op = if Ccdb_util.Rng.bool rng then Ccdb_model.Op.Read else Ccdb_model.Op.Write in
           (match Toq.request q ~txn:!next ~ts ~op with
            | Toq.Accepted ->
              if op = Ccdb_model.Op.Write then pending_writes := !next :: !pending_writes
            | Toq.Rejected | Toq.Ignored -> ())
         | 2 ->
           (match !pending_writes with
            | [] -> ()
            | w :: rest ->
              pending_writes := rest;
              if Ccdb_util.Rng.bool rng then Toq.commit_write q ~txn:w ~value:w
              else Toq.abort q ~txn:w)
         | _ ->
           List.iter
             (fun (p : Toq.performed) -> performed_ts := p.ts :: !performed_ts)
             (Toq.perform_ready q));
        (* the high-water marks never decrease below a performed ts *)
        List.iter
          (fun ts -> if ts > max (Toq.r_ts q) (Toq.w_ts q) then ok := false)
          !performed_ts
      done;
      (* drain: after committing everything, nothing pending with a value *)
      List.iter (fun w -> Toq.commit_write q ~txn:w ~value:w) !pending_writes;
      ignore (Toq.perform_ready q);
      !ok)

let prop_pa_queue_random_ops =
  qtest ~count:200 "Pa_queue: grants in precedence order under random ops"
    QCheck.(pair (int_range 0 100_000) (int_range 5 60))
    (fun (seed, steps) ->
      let rng = Ccdb_util.Rng.create ~seed in
      let q = Paq.create () in
      let next = ref 0 in
      let ok = ref true in
      let last_granted_ts = ref (-1) in
      ignore last_granted_ts;
      for _ = 1 to steps do
        match Ccdb_util.Rng.int rng 4 with
        | 0 | 1 ->
          incr next;
          let ts = max 1 (!next - Ccdb_util.Rng.int rng 5) in
          let op = if Ccdb_util.Rng.bool rng then Ccdb_model.Op.Read else Ccdb_model.Op.Write in
          (match Paq.request q ~txn:!next ~site:(!next mod 3) ~ts ~op with
           | Paq.Accepted -> ()
           | Paq.Backoff ts' ->
             (* the agreed timestamp arrives eventually; apply immediately
                half the time to exercise both paths *)
             if Ccdb_util.Rng.bool rng then
               ignore (Paq.update_ts q ~txn:!next ~ts:ts'))
        | 2 ->
          let granted = Paq.grant_ready q ~now:1. in
          (* grants of one batch must come out in increasing precedence *)
          let rec increasing = function
            | (a : Paq.entry) :: (b :: _ as rest) ->
              a.ts <= b.ts && increasing rest
            | [ _ ] | [] -> true
          in
          if not (increasing granted) then ok := false
        | _ ->
          (match
             List.filter (fun (e : Paq.entry) -> e.granted) (Paq.entries q)
           with
           | [] -> ()
           | granted ->
             let victim = List.nth granted (Ccdb_util.Rng.int rng (List.length granted)) in
             ignore (Paq.release q ~txn:victim.txn))
      done;
      !ok)

let prop_mvto_queue_random_ops =
  qtest ~count:200 "Mvto_queue: version chain stays sorted and reads resolve"
    QCheck.(pair (int_range 0 100_000) (int_range 5 60))
    (fun (seed, steps) ->
      let rng = Ccdb_util.Rng.create ~seed in
      let q = Mvq.create () in
      let next = ref 0 in
      let pending = ref [] in
      let ok = ref true in
      for _ = 1 to steps do
        (match Ccdb_util.Rng.int rng 4 with
         | 0 ->
           incr next;
           let ts = max 1 (!next - Ccdb_util.Rng.int rng 4) in
           ignore (Mvq.read q ~txn:!next ~ts)
         | 1 ->
           incr next;
           let ts = max 1 (!next - Ccdb_util.Rng.int rng 4) in
           (match Mvq.prewrite q ~txn:!next ~ts with
            | Mvq.W_accepted -> pending := !next :: !pending
            | Mvq.W_rejected -> ())
         | 2 ->
           (match !pending with
            | [] -> ()
            | w :: rest ->
              pending := rest;
              if Ccdb_util.Rng.bool rng then Mvq.commit_write q ~txn:w ~value:w
              else Mvq.abort q ~txn:w)
         | _ -> ignore (Mvq.drain_reads q));
        (* version chain sorted by ts *)
        let rec sorted = function
          | (a, _, _) :: ((b, _, _) :: _ as rest) -> a <= b && sorted rest
          | [ _ ] | [] -> true
        in
        if not (sorted (Mvq.versions q)) then ok := false
      done;
      (* commit everything left, then every parked read must resolve *)
      List.iter (fun w -> Mvq.commit_write q ~txn:w ~value:w) !pending;
      ignore (Mvq.drain_reads q);
      (match Mvq.read q ~txn:999999 ~ts:1000000 with
       | Mvq.Value _ -> ()
       | Mvq.Wait -> ok := false);
      !ok)

(* --- strict differential: unified(all-2PL) equals pure 2PL --------------------- *)

let test_differential_2pl_exact () =
  (* on a jitter-free network both implementations make identical scheduling
     decisions, so even the serialization order must match *)
  let run mode =
    let sites = 3 and items = 8 in
    let catalog = Ccdb_storage.Catalog.create ~items ~sites ~replication:2 in
    let net = { Ccdb_sim.Net.default_config with jitter = 0. } in
    let rt = Rt.create ~seed:5 ~net_config:net ~catalog () in
    let submit =
      match mode with
      | `Pure ->
        let s = Two_pl.create rt in
        fun txn -> Two_pl.submit s txn
      | `Unified ->
        let s = Core.Unified_system.create rt in
        fun txn -> Core.Unified_system.submit s txn
    in
    let rng = Ccdb_util.Rng.create ~seed:17 in
    for i = 1 to 40 do
      let n_access = 1 + Ccdb_util.Rng.int rng 3 in
      let itemset = Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items in
      let reads, writes = List.partition (fun _ -> Ccdb_util.Rng.bool rng) itemset in
      let reads, writes = if writes = [] then (writes, reads) else (reads, writes) in
      let txn =
        mk_txn ~site:(i mod 3) ~reads ~writes
          ~compute:(float_of_int (1 + (i mod 7))) i
      in
      let delay = float_of_int (i * 13 mod 190) in
      ignore
        (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
             submit txn))
    done;
    Rt.quiesce rt;
    let order =
      Ccdb_serial.Check.serialization_order
        (Ccdb_storage.Store.logs (Rt.store rt))
    in
    ((Rt.counters rt).committed, (Rt.counters rt).deadlock_aborts, order)
  in
  let pc, pd, porder = run `Pure in
  let uc, ud, uorder = run `Unified in
  check Alcotest.int "same commits" pc uc;
  check Alcotest.int "same deadlocks" pd ud;
  check Alcotest.bool "orders exist" true (porder <> None && uorder <> None);
  check (Alcotest.option (Alcotest.list Alcotest.int))
    "identical serialization order" porder uorder

let suites =
  suites
  @ [ ( "protocols.random_state_machines",
        [ prop_to_queue_random_ops; prop_pa_queue_random_ops;
          prop_mvto_queue_random_ops ] );
      ( "protocols.differential",
        [ Alcotest.test_case "unified(2PL) == pure 2PL" `Quick test_differential_2pl_exact ] ) ]
