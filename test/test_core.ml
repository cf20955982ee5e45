(* Tests for the unified concurrency control system (lib/core): the
   semi-lock queue state machine and the full unified system. *)

module Q = Core.Semi_lock_queue
module U = Core.Unified_system
module Rt = Ccdb_protocols.Runtime

let check = Alcotest.check

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let two_pl = Ccdb_model.Protocol.Two_pl
let t_o = Ccdb_model.Protocol.T_o
let pa = Ccdb_model.Protocol.Pa
let read = Ccdb_model.Op.Read
let write = Ccdb_model.Op.Write

let req ?(epoch = 0) ?(site = 0) q ~txn ~protocol ~ts ~op =
  Q.request q ~txn ~site ~protocol ~ts ~epoch ~op

(* The entries the queue's last operation reported, in order. *)
let reported q = List.init (Q.reports q) (Q.report q)

let grants ?(now = 0.) q =
  Q.grant_ready q ~now;
  reported q

let grant_txns q = List.map (fun (e : Q.entry) -> e.txn) (grants q)

(* --- Semi_lock_queue: precedence assignment ----------------------------- *)

let test_q_2pl_fcfs () =
  let q = Q.create () in
  check Alcotest.bool "a" true (req q ~txn:1 ~protocol:two_pl ~ts:None ~op:write = Q.Accepted);
  check Alcotest.bool "b" true (req q ~txn:2 ~protocol:two_pl ~ts:None ~op:write = Q.Accepted);
  check (Alcotest.list Alcotest.int) "first granted" [ 1 ] (grant_txns q);
  ignore (Q.release q ~txn:1);
  check (Alcotest.list Alcotest.int) "second granted" [ 2 ] (grant_txns q)

let test_q_2pl_inherits_max_ts () =
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:t_o ~ts:(Some 10) ~op:write);
  ignore (req q ~txn:2 ~protocol:two_pl ~ts:None ~op:write);
  (* 2PL entry must sit after the T/O entry: same ts 10, 2PL loses the tie *)
  let entries = Q.entries q in
  check (Alcotest.list Alcotest.int) "order" [ 1; 2 ]
    (List.map (fun (e : Q.entry) -> e.txn) entries);
  check Alcotest.int "inherited ts" 10
    (List.nth entries 1).Q.prec.Ccdb_model.Precedence.ts

let test_q_to_reject_behind_granted_2pl () =
  (* a granted 2PL write raises the write high-water mark for T/O *)
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:t_o ~ts:(Some 10) ~op:write);
  ignore (grant_txns q);
  ignore (Q.release q ~txn:1);
  ignore (req q ~txn:2 ~protocol:two_pl ~ts:None ~op:write);
  ignore (grant_txns q);
  (* T/O read at ts 10: the 2PL write holds precedence ts 10 and wins the
     tie, so the read arrives out of order *)
  check Alcotest.bool "tie rejects" true
    (req q ~txn:3 ~protocol:t_o ~ts:(Some 10) ~op:read = Q.Rejected);
  check Alcotest.bool "bigger ts fine" true
    (req q ~txn:4 ~protocol:t_o ~ts:(Some 11) ~op:read = Q.Accepted)

(* --- Semi_lock_queue: semi-lock grant rules ------------------------------ *)

let test_q_srl_blocks_2pl_write () =
  (* the crux of the section 4.2 example: a granted T/O read must act as a
     lock towards 2PL *)
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:t_o ~ts:(Some 1) ~op:read);
  check (Alcotest.list Alcotest.int) "SRL granted" [ 1 ] (grant_txns q);
  ignore (req q ~txn:2 ~protocol:two_pl ~ts:None ~op:write);
  check (Alcotest.list Alcotest.int) "2PL write waits on SRL" [] (grant_txns q);
  ignore (Q.release q ~txn:1);
  check (Alcotest.list Alcotest.int) "after release" [ 2 ] (grant_txns q)

let test_q_srl_does_not_block_to_write () =
  (* ...but T/O concurrency is preserved: a T/O write passes the SRL with a
     pre-scheduled grant *)
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:t_o ~ts:(Some 1) ~op:read);
  ignore (grant_txns q);
  ignore (req q ~txn:2 ~protocol:t_o ~ts:(Some 2) ~op:write);
  let grants = grants q in
  check Alcotest.int "granted" 1 (List.length grants);
  let g = List.hd grants in
  check Alcotest.int "txn" 2 g.Q.txn;
  check Alcotest.string "pre-scheduled" "pre-scheduled"
    (Ccdb_model.Lock.schedule_to_string g.Q.schedule)

let test_q_full_lock_mode_blocks () =
  (* ablation: with semi-locks off the same T/O write waits *)
  let q = Q.create ~semi_locks:false () in
  ignore (req q ~txn:1 ~protocol:t_o ~ts:(Some 1) ~op:read);
  ignore (grant_txns q);
  ignore (req q ~txn:2 ~protocol:t_o ~ts:(Some 2) ~op:write);
  check (Alcotest.list Alcotest.int) "blocked in full-lock mode" []
    (grant_txns q)

let test_q_promotion_on_release () =
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:t_o ~ts:(Some 1) ~op:read);
  ignore (grant_txns q);
  ignore (req q ~txn:2 ~protocol:t_o ~ts:(Some 2) ~op:write);
  ignore (grant_txns q);
  (* releasing the SRL promotes the pre-scheduled WL to normal *)
  match Q.release q ~txn:1 with
  | exception Not_found -> Alcotest.fail "expected release"
  | _ ->
    let promoted = reported q in
    check (Alcotest.list Alcotest.int) "promoted" [ 2 ]
      (List.map (fun (e : Q.entry) -> e.txn) promoted);
    check Alcotest.string "now normal" "normal"
      (Ccdb_model.Lock.schedule_to_string (List.hd promoted).Q.schedule)

let test_q_swl_blocks_pa_read_not_to_read () =
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:t_o ~ts:(Some 1) ~op:write);
  ignore (grant_txns q);
  (match Q.transform q ~txn:1 with
   | e ->
     check Alcotest.bool "now SWL" true
       (e.Q.lock = Some Ccdb_model.Lock.Swl)
   | exception Not_found -> Alcotest.fail "expected entry");
  (* a T/O read with bigger ts passes the SWL (pre-scheduled)... *)
  ignore (req q ~txn:2 ~protocol:t_o ~ts:(Some 2) ~op:read);
  let grants = grants q in
  check (Alcotest.list Alcotest.int) "T/O read passes" [ 2 ]
    (List.map (fun (e : Q.entry) -> e.txn) grants);
  check Alcotest.string "pre-scheduled" "pre-scheduled"
    (Ccdb_model.Lock.schedule_to_string (List.hd grants).Q.schedule);
  (* ...but a PA read waits for the SWL to be released *)
  ignore (req q ~txn:3 ~protocol:pa ~ts:(Some 3) ~op:read);
  check (Alcotest.list Alcotest.int) "PA read waits" [] (grant_txns q)

let test_q_pa_backoff_and_update () =
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:t_o ~ts:(Some 10) ~op:write);
  ignore (grant_txns q);
  (match req q ~txn:2 ~protocol:pa ~ts:(Some 1) ~op:write with
   | Q.Backoff ts' -> check Alcotest.int "TS' = 1 + 2*8" 17 ts'
   | Q.Accepted | Q.Rejected -> Alcotest.fail "expected backoff");
  (* blocked entry stalls the frontier for a later 2PL request *)
  ignore (req q ~txn:3 ~protocol:two_pl ~ts:None ~op:read);
  ignore (Q.release q ~txn:1);
  check (Alcotest.list Alcotest.int) "stalled" [] (grant_txns q);
  check Alcotest.bool "update" true (Q.update_ts q ~txn:2 ~ts:17 = `Moved);
  check (Alcotest.list Alcotest.int) "unblocked, FCFS order" [ 2 ] (grant_txns q)

let test_q_hwm_includes_granted () =
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:pa ~ts:(Some 7) ~op:read);
  ignore (grant_txns q);
  check Alcotest.int "r_ts" 7 (Q.r_ts q);
  check Alcotest.int "w_ts" (-1) (Q.w_ts q);
  (* abort drops the contribution (nothing was implemented) *)
  ignore (Q.abort q ~txn:1);
  check Alcotest.int "r_ts back" (-1) (Q.r_ts q)

(* The [(waiter, holder)] edges the queue streams, as a list. *)
let q_edges q =
  let edges = ref [] in
  Q.iter_waits_for q (fun waiter holder -> edges := (waiter, holder) :: !edges);
  !edges

let test_q_waits_for_edges () =
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:two_pl ~ts:None ~op:write);
  ignore (grant_txns q);
  ignore (req q ~txn:2 ~protocol:two_pl ~ts:None ~op:write);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "edge" [ (2, 1) ] (q_edges q)

(* --- Unified system ------------------------------------------------------- *)

let make_runtime ?(seed = 42) ?(sites = 2) ?(items = 4) ?(replication = 1)
    ?faults () =
  let catalog = Ccdb_storage.Catalog.create ~items ~sites ~replication in
  Rt.create ~seed ?faults ~net_config:Ccdb_sim.Net.default_config ~catalog ()

let mk_txn ?(site = 0) ?(reads = []) ?(writes = []) ?(compute = 1.0)
    ?(protocol = two_pl) id =
  Ccdb_model.Txn.make ~id ~site ~read_set:reads ~write_set:writes
    ~compute_time:compute ~protocol

let assert_serializable rt =
  let logs = Ccdb_storage.Store.logs (Rt.store rt) in
  if not (Ccdb_serial.Check.conflict_serializable logs) then
    Alcotest.fail "execution not conflict serializable";
  if not (Ccdb_serial.Check.replica_consistent (Rt.store rt)) then
    Alcotest.fail "replicas inconsistent"

let test_u_single_txn_each_protocol () =
  List.iter
    (fun protocol ->
      let rt = make_runtime () in
      let sys = U.create rt in
      U.submit sys (mk_txn ~reads:[ 0 ] ~writes:[ 1 ] ~protocol 1);
      Rt.quiesce rt;
      check Alcotest.int
        (Ccdb_model.Protocol.to_string protocol ^ " committed")
        1 (Rt.counters rt).committed;
      assert_serializable rt)
    Ccdb_model.Protocol.all

let test_u_paper_example () =
  (* Section 4.2: t1: r(x) w(y), t2: r(y) w(z), t3: r(z) w(x); t1 t2 are T/O,
     t3 is 2PL.  The unified system must produce a serializable execution no
     matter how the messages interleave.  Run it under several seeds. *)
  for seed = 1 to 20 do
    let rt = make_runtime ~seed ~sites:3 ~items:3 ~replication:1 () in
    let sys = U.create rt in
    let x = 0 and y = 1 and z = 2 in
    U.submit sys (mk_txn ~site:0 ~reads:[ x ] ~writes:[ y ] ~protocol:t_o 1);
    U.submit sys (mk_txn ~site:1 ~reads:[ y ] ~writes:[ z ] ~protocol:t_o 2);
    U.submit sys (mk_txn ~site:2 ~reads:[ z ] ~writes:[ x ] ~protocol:two_pl 3);
    Rt.quiesce rt;
    check Alcotest.int "all committed" 3 (Rt.counters rt).committed;
    assert_serializable rt
  done

let test_u_mixed_contention () =
  let rt = make_runtime ~sites:3 ~items:2 ~replication:1 () in
  let sys = U.create rt in
  let protocols = [| two_pl; t_o; pa |] in
  for i = 1 to 15 do
    U.submit sys
      (mk_txn ~site:(i mod 3) ~writes:[ i mod 2 ]
         ~protocol:protocols.(i mod 3) i)
  done;
  Rt.quiesce rt;
  check Alcotest.int "all committed" 15 (Rt.counters rt).committed;
  assert_serializable rt

let test_u_deadlock_only_2pl_victims () =
  (* deadlock-prone 2PL workload: crossing multi-item writes *)
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let sys = U.create rt in
  U.submit sys (mk_txn ~site:0 ~writes:[ 0; 1 ] ~protocol:two_pl 1);
  U.submit sys (mk_txn ~site:1 ~writes:[ 0; 1 ] ~protocol:two_pl 2);
  Rt.quiesce rt;
  check Alcotest.int "both committed" 2 (Rt.counters rt).committed;
  check Alcotest.bool "deadlock broken" true
    ((Rt.counters rt).deadlock_aborts >= 1);
  assert_serializable rt

let test_u_to_draining_releases_eventually () =
  (* a T/O write passing a T/O read produces a pre-scheduled grant; the
     writer must drain (transform, then release) and the system must empty *)
  let rt = make_runtime ~sites:2 ~items:1 ~replication:1 () in
  let sys = U.create rt in
  U.submit sys (mk_txn ~site:0 ~reads:[ 0 ] ~compute:50. ~protocol:t_o 1);
  U.submit sys (mk_txn ~site:1 ~writes:[ 0 ] ~compute:1. ~protocol:t_o 2);
  Rt.quiesce rt;
  check Alcotest.int "both committed" 2 (Rt.counters rt).committed;
  check Alcotest.int "nothing draining" 0 (U.draining sys);
  assert_serializable rt

let test_u_full_lock_ablation_still_correct () =
  let config = { U.default_config with semi_locks = false } in
  let rt = make_runtime ~sites:3 ~items:3 ~replication:1 () in
  let sys = U.create ~config rt in
  let protocols = [| two_pl; t_o; pa |] in
  for i = 1 to 12 do
    U.submit sys
      (mk_txn ~site:(i mod 3) ~reads:[ i mod 3 ] ~writes:[ (i + 1) mod 3 ]
         ~protocol:protocols.(i mod 3) i)
  done;
  Rt.quiesce rt;
  check Alcotest.int "all committed" 12 (Rt.counters rt).committed;
  assert_serializable rt

let random_mixed_workload ~seed ~sites ~items ~n rt sys =
  let rng = Ccdb_util.Rng.create ~seed:(seed + 31337) in
  for i = 1 to n do
    let site = Ccdb_util.Rng.int rng sites in
    let n_access = 1 + Ccdb_util.Rng.int rng 3 in
    let itemset = Ccdb_util.Rng.sample_distinct rng ~n:n_access ~universe:items in
    let reads, writes = List.partition (fun _ -> Ccdb_util.Rng.bool rng) itemset in
    let reads, writes = if writes = [] then (writes, reads) else (reads, writes) in
    let protocol =
      match Ccdb_util.Rng.int rng 3 with
      | 0 -> two_pl
      | 1 -> t_o
      | _ -> pa
    in
    let txn =
      mk_txn ~site ~reads ~writes ~compute:(Ccdb_util.Rng.float rng 5.)
        ~protocol i
    in
    let delay = Ccdb_util.Rng.float rng 300. in
    ignore
      (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
           U.submit sys txn))
  done

(* Theorem 2: every mixed-protocol execution is conflict serializable. *)
let prop_u_theorem2 =
  qtest ~count:25 "unified: Theorem 2 on random mixed workloads"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let sites = 3 and items = 6 and n = 30 in
      let rt = make_runtime ~seed ~sites ~items ~replication:2 () in
      let sys = U.create rt in
      random_mixed_workload ~seed ~sites ~items ~n rt sys;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && U.draining sys = 0
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt))
      && Ccdb_serial.Check.replica_consistent (Rt.store rt))

(* Corollary 1: a PA-only unified run never restarts. *)
let prop_u_corollary1 =
  qtest ~count:10 "unified: PA-only runs are restart-free"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let sites = 3 and items = 4 and n = 25 in
      let rt = make_runtime ~seed ~sites ~items ~replication:1 () in
      let sys = U.create rt in
      let rng = Ccdb_util.Rng.create ~seed in
      for i = 1 to n do
        let site = Ccdb_util.Rng.int rng sites in
        let item = Ccdb_util.Rng.int rng items in
        let txn = mk_txn ~site ~writes:[ item ] ~protocol:pa i in
        let delay = Ccdb_util.Rng.float rng 100. in
        ignore
          (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
               U.submit sys txn))
      done;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && (Rt.counters rt).restarts = 0
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt)))

(* T/O-only unified runs never deadlock (only 2PL can block the system,
   Theorem 3). *)
let prop_u_to_only_no_deadlock =
  qtest ~count:10 "unified: T/O-only runs never deadlock"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let sites = 3 and items = 4 and n = 25 in
      let rt = make_runtime ~seed ~sites ~items ~replication:1 () in
      let sys = U.create rt in
      let rng = Ccdb_util.Rng.create ~seed in
      for i = 1 to n do
        let site = Ccdb_util.Rng.int rng sites in
        let item = Ccdb_util.Rng.int rng items in
        let txn =
          mk_txn ~site ~reads:[ (item + 1) mod items ] ~writes:[ item ]
            ~protocol:t_o i
        in
        let delay = Ccdb_util.Rng.float rng 100. in
        ignore
          (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
               U.submit sys txn))
      done;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && (Rt.counters rt).deadlock_aborts = 0
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt)))

let test_u_payload_rmw () =
  let rt = make_runtime () in
  let sys = U.create rt in
  let incr_by amount read = [ (0, read 0 + amount) ] in
  U.submit sys ~payload:(incr_by 5) (mk_txn ~site:0 ~writes:[ 0 ] ~protocol:two_pl 1);
  U.submit sys ~payload:(incr_by 7) (mk_txn ~site:1 ~writes:[ 0 ] ~protocol:t_o 2);
  U.submit sys ~payload:(incr_by 9) (mk_txn ~site:0 ~writes:[ 0 ] ~protocol:pa 3);
  Rt.quiesce rt;
  let site = List.hd (Ccdb_storage.Catalog.copies (Rt.catalog rt) 0) in
  check Alcotest.int "all increments survive" 21
    (Ccdb_storage.Store.read (Rt.store rt) ~item:0 ~site);
  assert_serializable rt

(* A request -> grant -> release cycle allocates the request's entry and
   its precedence and nothing else: no list cell, closure, [Some] cell or
   result list.  A T/O entry with its timestamped precedence is 13 + 6
   words, a 2PL one 13 + 5.  The parent of this queue, which rebuilt its
   entry list per operation and returned grants and promotions as lists,
   allocated 139 and 79 words per cycle here.  The [Some] carrying the
   T/O timestamp is built once, outside the measured loop. *)
let test_q_cycle_allocates_only_the_entry () =
  let words cycle =
    for i = 1 to 100 do
      cycle i
    done;
    let before = Gc.minor_words () in
    for i = 101 to 10_100 do
      cycle i
    done;
    (Gc.minor_words () -. before) /. 10_000.
  in
  (* behind eight granted PA reads, as bench/main.ml's cycle *)
  let q = Q.create () in
  for i = 1 to 8 do
    ignore (req q ~txn:(1_000_000 + i) ~protocol:pa ~ts:(Some i) ~op:read)
  done;
  Q.grant_ready q ~now:0.;
  let ts = Some 100 in
  let to_cycle txn =
    ignore (req q ~txn ~protocol:t_o ~ts ~op:read);
    Q.grant_ready q ~now:1.;
    ignore (Q.release q ~txn : Q.entry)
  in
  check (Alcotest.float 0.) "T/O read behind eight readers" 19.
    (words to_cycle);
  let q = Q.create () in
  let two_pl_cycle txn =
    ignore (req q ~txn ~protocol:two_pl ~ts:None ~op:write);
    Q.grant_ready q ~now:1.;
    ignore (Q.release q ~txn : Q.entry)
  in
  check (Alcotest.float 0.) "2PL write on an empty queue" 18.
    (words two_pl_cycle)

let suites =
  [ ( "core.semi_lock_queue",
      [ Alcotest.test_case "2PL FCFS" `Quick test_q_2pl_fcfs;
        Alcotest.test_case "2PL inherits max ts" `Quick test_q_2pl_inherits_max_ts;
        Alcotest.test_case "T/O tie rejects behind 2PL" `Quick
          test_q_to_reject_behind_granted_2pl;
        Alcotest.test_case "SRL blocks 2PL write" `Quick test_q_srl_blocks_2pl_write;
        Alcotest.test_case "SRL passes T/O write" `Quick test_q_srl_does_not_block_to_write;
        Alcotest.test_case "full-lock mode blocks" `Quick test_q_full_lock_mode_blocks;
        Alcotest.test_case "promotion on release" `Quick test_q_promotion_on_release;
        Alcotest.test_case "SWL semantics" `Quick test_q_swl_blocks_pa_read_not_to_read;
        Alcotest.test_case "PA backoff + update" `Quick test_q_pa_backoff_and_update;
        Alcotest.test_case "hwm includes granted" `Quick test_q_hwm_includes_granted;
        Alcotest.test_case "waits_for" `Quick test_q_waits_for_edges;
        Alcotest.test_case "a cycle allocates only its entry" `Quick
          test_q_cycle_allocates_only_the_entry ] );
    ( "core.unified",
      [ Alcotest.test_case "single txn per protocol" `Quick test_u_single_txn_each_protocol;
        Alcotest.test_case "paper example (sec 4.2)" `Quick test_u_paper_example;
        Alcotest.test_case "mixed contention" `Quick test_u_mixed_contention;
        Alcotest.test_case "deadlock, 2PL victims" `Quick test_u_deadlock_only_2pl_victims;
        Alcotest.test_case "T/O draining" `Quick test_u_to_draining_releases_eventually;
        Alcotest.test_case "full-lock ablation" `Quick test_u_full_lock_ablation_still_correct;
        Alcotest.test_case "payload rmw" `Quick test_u_payload_rmw;
        prop_u_theorem2;
        prop_u_corollary1;
        prop_u_to_only_no_deadlock ] ) ]

(* --- unified system with edge-chasing detection ------------------------------ *)

let edge_chasing_config =
  { U.default_config with
    detection = Ccdb_protocols.Deadlock.Edge_chasing { probe_delay = 60. } }

let test_u_edge_chasing_mixed () =
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let sys = U.create ~config:edge_chasing_config rt in
  U.submit sys (mk_txn ~site:0 ~writes:[ 0; 1 ] ~protocol:two_pl 1);
  U.submit sys (mk_txn ~site:1 ~writes:[ 0; 1 ] ~protocol:two_pl 2);
  U.submit sys (mk_txn ~site:0 ~writes:[ 0 ] ~protocol:t_o 3);
  U.submit sys (mk_txn ~site:1 ~writes:[ 1 ] ~protocol:pa 4);
  Rt.quiesce rt;
  check Alcotest.int "all committed" 4 (Rt.counters rt).committed;
  check Alcotest.bool "deadlock broken by probes" true
    ((Rt.counters rt).deadlock_aborts >= 1);
  assert_serializable rt

let prop_u_edge_chasing_theorem2 =
  qtest ~count:10 "unified + edge-chasing: Theorem 2 holds"
    QCheck.(int_range 0 50_000)
    (fun seed ->
      let sites = 3 and items = 5 and n = 25 in
      let rt = make_runtime ~seed ~sites ~items ~replication:1 () in
      let sys = U.create ~config:edge_chasing_config rt in
      random_mixed_workload ~seed ~sites ~items ~n rt sys;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt)))

let suites =
  suites
  @ [ ( "core.unified.edge_chasing",
        [ Alcotest.test_case "mixed deadlock via probes" `Quick test_u_edge_chasing_mixed;
          prop_u_edge_chasing_theorem2 ] ) ]

(* --- correctness under network degradation ----------------------------------- *)

(* A fault-plan link that delays a transmission with probability [p] by an
   exponential extra delay of mean [mean] (the plan's [delay=PxM]); the
   reliable transport keeps per-channel FIFO, so only timing changes. *)
let spike p mean =
  { Ccdb_sim.Fault_plan.reliable_link with delay_prob = p; delay_mean = mean }

let prop_u_serializable_under_delay_spikes =
  qtest ~count:10 "unified: Theorem 2 survives delay spikes"
    QCheck.(int_range 0 50_000)
    (fun seed ->
      let sites = 3 and items = 5 and n = 25 in
      (* spikes of six network hops on the whole network, plus one
         flapping site whose links spike twice as often *)
      let flapping = seed mod sites in
      let links =
        List.concat_map
          (fun other ->
            if other = flapping then []
            else
              [ ((flapping, other), spike 0.6 40.);
                ((other, flapping), spike 0.6 40.) ])
          (List.init sites Fun.id)
      in
      let faults =
        Ccdb_sim.Fault_plan.make ~seed ~default_link:(spike 0.3 60.) ~links ()
      in
      let rt = make_runtime ~seed ~sites ~items ~replication:2 ~faults () in
      let sys = U.create rt in
      random_mixed_workload ~seed ~sites ~items ~n rt sys;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt))
      && Ccdb_serial.Check.replica_consistent (Rt.store rt))

let prop_pure_systems_survive_spikes =
  qtest ~count:6 "pure systems survive delay spikes"
    QCheck.(int_range 0 50_000)
    (fun seed ->
      List.for_all
        (fun make_system ->
          let faults =
            Ccdb_sim.Fault_plan.make ~seed ~default_link:(spike 0.5 80.) ()
          in
          let rt =
            make_runtime ~seed ~sites:3 ~items:5 ~replication:1 ~faults ()
          in
          let submit = make_system rt in
          let rng = Ccdb_util.Rng.create ~seed:(seed + 17) in
          for i = 1 to 15 do
            let txn =
              mk_txn ~site:(Ccdb_util.Rng.int rng 3)
                ~writes:[ Ccdb_util.Rng.int rng 5 ]
                ~reads:[ Ccdb_util.Rng.int rng 5 ]
                ~compute:(Ccdb_util.Rng.float rng 5.) i
            in
            let delay = Ccdb_util.Rng.float rng 200. in
            ignore
              (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
                   submit txn))
          done;
          Rt.quiesce rt;
          (Rt.counters rt).committed = 15
          && Ccdb_serial.Check.conflict_serializable
               (Ccdb_storage.Store.logs (Rt.store rt)))
        [ (fun rt ->
            let s = Ccdb_protocols.Two_pl_system.create rt in
            fun txn -> Ccdb_protocols.Two_pl_system.submit s txn);
          (fun rt ->
            let s = Ccdb_protocols.To_system.create rt in
            fun txn -> Ccdb_protocols.To_system.submit s txn);
          (fun rt ->
            let s = Ccdb_protocols.Pa_system.create rt in
            fun txn -> Ccdb_protocols.Pa_system.submit s txn) ])

let suites =
  suites
  @ [ ( "core.failure_injection",
        [ prop_u_serializable_under_delay_spikes;
          prop_pure_systems_survive_spikes ] ) ]

(* --- Semi_lock_queue: randomized invariant checking -------------------------- *)

(* Drive a queue with a random command sequence and check structural
   invariants after every step:
   - a transaction has at most one entry;
   - at most one plain WL is held at any time;
   - an RL never coexists with any WL or SWL (lock-compatibility closure);
   - grants come out in precedence order;
   - released high-water marks never decrease. *)

let q_invariants q =
  let entries = Q.entries q in
  let held =
    List.filter_map (fun (e : Q.entry) -> Option.map (fun m -> (e, m)) e.lock)
      entries
  in
  let count p = List.length (List.filter p held) in
  let txns = List.map (fun (e : Q.entry) -> e.txn) entries in
  List.length txns = List.length (List.sort_uniq Int.compare txns)
  && count (fun (_, m) -> Ccdb_model.Lock.equal m Ccdb_model.Lock.Wl) <= 1
  && not
       (List.exists (fun (_, m) -> Ccdb_model.Lock.equal m Ccdb_model.Lock.Rl) held
        && List.exists (fun (_, m) -> Ccdb_model.Lock.is_write_mode m) held)

let prop_q_random_ops =
  qtest ~count:300 "semi-lock queue: invariants under random command sequences"
    QCheck.(pair (int_range 0 100_000) (int_range 5 60))
    (fun (seed, steps) ->
      let rng = Ccdb_util.Rng.create ~seed in
      let q = Q.create ~semi_locks:(Ccdb_util.Rng.bool rng) () in
      let next_txn = ref 0 in
      let live = ref [] in (* txns with an entry *)
      let ts_source = ref 0 in
      let hwm_r = ref (-1) and hwm_w = ref (-1) in
      let ok = ref true in
      let step () =
        (match Ccdb_util.Rng.int rng 6 with
         | 0 | 1 ->
           (* new request *)
           incr next_txn;
           let txn = !next_txn in
           let protocol =
             match Ccdb_util.Rng.int rng 3 with
             | 0 -> two_pl
             | 1 -> t_o
             | _ -> pa
           in
           let op = if Ccdb_util.Rng.bool rng then read else write in
           let ts =
             match protocol with
             | Ccdb_model.Protocol.Two_pl -> None
             | _ ->
               incr ts_source;
               (* sometimes deliberately stale *)
               Some (max 1 (!ts_source - Ccdb_util.Rng.int rng 4))
           in
           (match
              Q.request q ~txn ~site:(Ccdb_util.Rng.int rng 3) ~protocol ~ts
                ~epoch:0 ~op
            with
            | Q.Accepted | Q.Backoff _ -> live := txn :: !live
            | Q.Rejected -> ()
            | exception Invalid_argument _ -> ok := false)
         | 2 ->
           (* grants must come out in precedence order *)
           let grants = grants ~now:1. q in
           let rec sorted = function
             | (a : Q.entry) :: (b :: _ as rest) ->
               Ccdb_model.Precedence.compare a.prec b.prec < 0
               && sorted rest
             | [ _ ] | [] -> true
           in
           if not (sorted grants) then ok := false
         | 3 ->
           (* release someone granted *)
           (match
              List.filter_map
                (fun (e : Q.entry) -> if e.lock <> None then Some e.txn else None)
                (Q.entries q)
            with
            | [] -> ()
            | granted ->
              let victim = List.nth granted (Ccdb_util.Rng.int rng (List.length granted)) in
              ignore (Q.release q ~txn:victim : Q.entry);
              live := List.filter (( <> ) victim) !live)
         | 4 ->
           (* abort someone *)
           (match !live with
            | [] -> ()
            | l ->
              let victim = List.nth l (Ccdb_util.Rng.int rng (List.length l)) in
              (try ignore (Q.abort q ~txn:victim : Q.entry)
               with Not_found -> ());
              live := List.filter (( <> ) victim) !live)
         | _ ->
           (* update a blocked PA entry to a big fresh timestamp *)
           (match
              List.find_opt (fun (e : Q.entry) -> e.blocked) (Q.entries q)
            with
            | Some e ->
              incr ts_source;
              ts_source := !ts_source + 10;
              ignore (Q.update_ts q ~txn:e.txn ~ts:!ts_source)
            | None -> ()));
        (* invariants *)
        if not (q_invariants q) then ok := false;
        let r = max (-1) !hwm_r and w = max (-1) !hwm_w in
        ignore r; ignore w;
        (* released floors are monotone: probe via r_ts/w_ts after draining
           grants (they include granted entries, so only check >= -1) *)
        if Q.r_ts q < -1 || Q.w_ts q < -1 then ok := false
      in
      for _ = 1 to steps do
        step ()
      done;
      !ok)

(* The list the queue returned before it streamed its edges, kept as the
   reference for [iter_waits_for]. *)
let q_waits_for_reference q =
  let entries = Q.entries q in
  let edges = ref [] in
  let rec scan earlier = function
    | [] -> ()
    | (e : Q.entry) :: rest ->
      if Option.is_none e.lock && not e.blocked then
        List.iter
          (fun (e' : Q.entry) ->
            if e'.txn <> e.txn then begin
              let conflicting = Ccdb_model.Op.conflicts e'.op e.op in
              let frontier = Option.is_none e'.lock in
              if conflicting || frontier then edges := (e.txn, e'.txn) :: !edges
            end)
          earlier;
      scan (e :: earlier) rest
  in
  scan [] entries;
  List.iter
    (fun (e : Q.entry) ->
      if
        Option.is_some e.lock
        && Ccdb_model.Lock.schedule_equal e.schedule
             Ccdb_model.Lock.Pre_scheduled
      then
        List.iter
          (fun (e' : Q.entry) ->
            match e'.lock, e.lock with
            | Some m', Some m
              when e'.txn <> e.txn && e'.grant_seq >= 0
                   && e'.grant_seq < e.grant_seq
                   && Ccdb_model.Lock.conflicts m' m ->
              edges := (e.txn, e'.txn) :: !edges
            | _, _ -> ())
          entries)
    entries;
  !edges

(* Random request / grant / update_ts / transform / release / abort /
   wipe sequences, with and without semi-locks: after every step the
   streamed edges are the reference's, as a multiset.  Transformed locks
   and T/O grants under them make pre-scheduled waits. *)
let prop_q_streams_reference_edges =
  qtest ~count:300 "semi-lock queue: iter_waits_for streams the list reference"
    QCheck.(pair (int_range 0 100_000) (int_range 5 80))
    (fun (seed, steps) ->
      let rng = Ccdb_util.Rng.create ~seed in
      let q = Q.create ~semi_locks:(Ccdb_util.Rng.int rng 4 > 0) () in
      let next_txn = ref 0 and ts_source = ref 0 in
      let pick pred =
        match List.filter pred (Q.entries q) with
        | [] -> None
        | l -> Some (List.nth l (Ccdb_util.Rng.int rng (List.length l))).Q.txn
      in
      let ok = ref true in
      for _ = 1 to steps do
        (match Ccdb_util.Rng.int rng 10 with
         | 0 | 1 | 2 ->
           incr next_txn;
           let protocol =
             match Ccdb_util.Rng.int rng 3 with
             | 0 -> two_pl
             | 1 -> t_o
             | _ -> pa
           in
           let ts =
             if Ccdb_model.Protocol.equal protocol two_pl then None
             else begin
               incr ts_source;
               (* sometimes stale, so that PA backs off and T/O is refused *)
               Some (max 1 (!ts_source - Ccdb_util.Rng.int rng 4))
             end
           in
           let op = if Ccdb_util.Rng.bool rng then read else write in
           ignore
             (Q.request q ~txn:!next_txn ~site:(Ccdb_util.Rng.int rng 3)
                ~protocol ~ts ~epoch:0 ~op)
         | 3 | 4 -> Q.grant_ready q ~now:1.
         | 5 ->
           (match
              pick (fun e -> Ccdb_model.Protocol.equal e.Q.protocol pa)
            with
            | Some txn ->
              ts_source := !ts_source + 5;
              ignore (Q.update_ts q ~txn ~ts:!ts_source)
            | None -> ())
         | 6 ->
           (match pick (fun e -> Option.is_some e.Q.lock) with
            | Some txn -> ignore (Q.transform q ~txn : Q.entry)
            | None -> ())
         | 7 -> (
           match pick (fun e -> Option.is_some e.Q.lock) with
           | Some txn -> ignore (Q.release q ~txn : Q.entry)
           | None -> ())
         | 8 -> (
           match pick (fun _ -> true) with
           | Some txn -> ignore (Q.abort q ~txn : Q.entry)
           | None -> ())
         | _ -> if Ccdb_util.Rng.int rng 3 = 0 then ignore (Q.wipe_volatile q));
        if
          List.sort compare (q_edges q)
          <> List.sort compare (q_waits_for_reference q)
        then ok := false
      done;
      !ok)

let suites =
  suites
  @ [ ( "core.semi_lock_queue.random",
        [ prop_q_random_ops; prop_q_streams_reference_edges ] ) ]

(* --- protocol re-selection on restart (future-work item 4) ------------------- *)

let test_u_reselect_switches_protocol () =
  (* force a deadlock between two 2PL transactions; the reselect hook sends
     every restarted transaction to PA, so the victim's commit must carry
     protocol PA and nothing can deadlock twice *)
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let switched = ref false in
  Rt.subscribe rt (function
    | Rt.Txn_committed { txn; restarts; _ } ->
      if restarts > 0 && Ccdb_model.Protocol.equal txn.protocol pa then
        switched := true
    | _ -> ());
  let sys = U.create ~reselect:(fun _ -> pa) rt in
  U.submit sys (mk_txn ~site:0 ~writes:[ 0; 1 ] ~protocol:two_pl 1);
  U.submit sys (mk_txn ~site:1 ~writes:[ 0; 1 ] ~protocol:two_pl 2);
  Rt.quiesce rt;
  check Alcotest.int "both committed" 2 (Rt.counters rt).committed;
  check Alcotest.bool "one deadlock" true ((Rt.counters rt).deadlock_aborts >= 1);
  check Alcotest.bool "victim finished under PA" true !switched;
  assert_serializable rt

let prop_u_reselect_serializable =
  qtest ~count:15 "unified + reselection: Theorem 2 still holds"
    QCheck.(int_range 0 50_000)
    (fun seed ->
      let sites = 3 and items = 5 and n = 25 in
      let rt = make_runtime ~seed ~sites ~items ~replication:1 () in
      (* rotate the protocol on every restart: maximum churn *)
      let next = function
        | Ccdb_model.Protocol.Two_pl -> t_o
        | Ccdb_model.Protocol.T_o -> pa
        | Ccdb_model.Protocol.Pa -> two_pl
      in
      let sys =
        U.create ~reselect:(fun txn -> next txn.Ccdb_model.Txn.protocol) rt
      in
      random_mixed_workload ~seed ~sites ~items ~n rt sys;
      Rt.quiesce rt;
      (Rt.counters rt).committed = n
      && Ccdb_serial.Check.conflict_serializable
           (Ccdb_storage.Store.logs (Rt.store rt))
      && Ccdb_serial.Check.replica_consistent (Rt.store rt))

let test_dynamic_reselect_config () =
  let rt = make_runtime ~sites:2 ~items:2 ~replication:1 () in
  let config =
    { Core.Dynamic_cc.default_config with reselect_on_restart = true }
  in
  let sys = Core.Dynamic_cc.create ~config rt in
  for i = 1 to 10 do
    Core.Dynamic_cc.submit sys (mk_txn ~site:(i mod 2) ~writes:[ 0; 1 ] i)
  done;
  Rt.quiesce rt;
  check Alcotest.int "all committed" 10 (Rt.counters rt).committed;
  assert_serializable rt

let suites =
  suites
  @ [ ( "core.reselection",
        [ Alcotest.test_case "victim switches protocol" `Quick test_u_reselect_switches_protocol;
          Alcotest.test_case "dynamic config" `Quick test_dynamic_reselect_config;
          prop_u_reselect_serializable ] ) ]

(* --- regression: deadlocks through draining transactions ----------------------- *)

(* Two real bugs found by the randomized Theorem-2 properties, pinned here:
   (1) a deadlock cycle can run THROUGH a draining T/O transaction (its
       pre-scheduled grant is a wait the detector must see);
   (2) detector stop/start used to leave multiple tick chains alive, and a
       stale scan could abort the second member of a half-broken cycle —
       alternating victims forever. *)

let run_mixed_seed ~reselect seed =
  let sites = 3 and items = 5 and n = 25 in
  let rt = make_runtime ~seed ~sites ~items ~replication:1 () in
  let hook =
    if reselect then
      Some
        (fun txn ->
          match txn.Ccdb_model.Txn.protocol with
          | Ccdb_model.Protocol.Two_pl -> t_o
          | Ccdb_model.Protocol.T_o -> pa
          | Ccdb_model.Protocol.Pa -> two_pl)
    else None
  in
  let sys = U.create ?reselect:hook rt in
  random_mixed_workload ~seed ~sites ~items ~n rt sys;
  Rt.quiesce ~max_events:5_000_000 rt;
  check Alcotest.int "all committed" n (Rt.counters rt).committed;
  assert_serializable rt

let test_regression_draining_deadlock () = run_mixed_seed ~reselect:true 1050
let test_regression_draining_deadlock2 () = run_mixed_seed ~reselect:true 1760
let test_regression_victim_churn () = run_mixed_seed ~reselect:false 667

let test_q_waits_for_prescheduled_edge () =
  (* the unit-level shape of regression (1): a pre-scheduled WL waits on the
     SRL that blocks it, and the edge must be visible *)
  let q = Q.create () in
  ignore (req q ~txn:1 ~protocol:t_o ~ts:(Some 1) ~op:read);
  ignore (grant_txns q);
  ignore (req q ~txn:2 ~protocol:t_o ~ts:(Some 2) ~op:write);
  ignore (grant_txns q);
  (* txn 2 holds a pre-scheduled WL under txn 1's SRL *)
  check Alcotest.bool "pre-scheduled wait edge" true
    (List.mem (2, 1) (q_edges q))

let suites =
  suites
  @ [ ( "core.regressions",
        [ Alcotest.test_case "deadlock through draining txn" `Quick
            test_regression_draining_deadlock;
          Alcotest.test_case "deadlock through draining txn (2)" `Quick
            test_regression_draining_deadlock2;
          Alcotest.test_case "victim churn" `Quick test_regression_victim_churn;
          Alcotest.test_case "pre-scheduled wait edge" `Quick
            test_q_waits_for_prescheduled_edge ] ) ]

(* --- Theorem 3: a blocked system points at a 2PL transaction ------------------- *)

let prop_u_theorem3 =
  qtest ~count:40 "Theorem 3: smallest blocked precedence is 2PL's"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      (* detection effectively disabled so deadlocks persist; run past any
         transient and inspect whatever is still blocked *)
      let sites = 3 and items = 4 and n = 20 in
      let rt = make_runtime ~seed ~sites ~items ~replication:1 () in
      let config =
        { U.default_config with
          detection =
            Ccdb_protocols.Deadlock.Centralized { interval = 1e8 } }
      in
      let sys = U.create ~config rt in
      random_mixed_workload ~seed ~sites ~items ~n rt sys;
      Ccdb_sim.Engine.run ~until:1e6 (Rt.engine rt);
      if (Rt.counters rt).committed = n then true
      else begin
        (* a genuinely blocked system (quiescent but uncommitted work): the
           smallest unimplemented precedence belongs to a 2PL transaction *)
        match U.unimplemented_requests sys with
        | (_, protocol) :: _ ->
          Ccdb_model.Protocol.equal protocol Ccdb_model.Protocol.Two_pl
        | [] -> false
      end)

let suites =
  suites @ [ ("core.theorem3", [ prop_u_theorem3 ]) ]
