(* The invariant analyzer, two ways:

   - as an oracle: every driver mode, traced end to end, must audit clean
     (zero error-severity findings);
   - as a detector: hand-built corrupt traces seeded with specific
     violations must each produce the expected finding. *)

module Rt = Ccdb_protocols.Runtime
module An = Ccdb_analysis
module D = Ccdb_harness.Driver
module G = Ccdb_workload.Generator
module L = Ccdb_model.Lock
module P = Ccdb_model.Protocol
module Op = Ccdb_model.Op

let check = Alcotest.check

let checks_of report =
  List.map (fun (f : An.Finding.t) -> f.check) (An.Report.findings report)

let error_checks report =
  List.map (fun (f : An.Finding.t) -> f.check) (An.Report.errors report)

let has_error report name = List.mem name (error_checks report)

let analyze events = An.Analyzer.analyze (Array.of_list events)

let mk_txn ?(protocol = P.Two_pl) id =
  Ccdb_model.Txn.make ~id ~site:0 ~read_set:[] ~write_set:[ 0 ]
    ~compute_time:1. ~protocol

(* ------------------------------------------------- oracle over the modes *)

let small_setup = { D.default_setup with sites = 3; items = 12; replication = 2 }

let spec =
  { G.default with
    arrival_rate = 0.08;
    size_min = 1;
    size_max = 3;
    protocol_mix = [ (P.Two_pl, 1.); (P.T_o, 1.); (P.Pa, 1.) ] }

let test_all_modes_audit_clean () =
  List.iter
    (fun mode ->
      (* with the store checks on, the audit's Theorem 2 verdict is
         cross-checked against the log scan — a divergence is itself an
         error finding *)
      let r = D.run ~setup:small_setup ~n_txns:80 ~audit:true mode spec in
      let report = Option.get r.audit in
      let name = D.mode_name mode in
      check Alcotest.(list string) (name ^ " audits clean") []
        (error_checks report))
    D.modes

let test_audit_off_by_default () =
  let r = D.run ~setup:small_setup ~n_txns:10 (D.Pure P.T_o) spec in
  check Alcotest.bool "no report without ~audit" true (r.audit = None)

(* ------------------------------------------- the Theorem 2 cross-check *)

(* The log scan's verdict against the report's: agreement leaves the
   report as it is, either disagreement adds one audit.divergence error. *)
let test_cross_check_verdicts () =
  let clean = An.Report.make ~events_scanned:7 [] in
  let flagged =
    An.Report.make ~events_scanned:7
      [ An.Finding.make ~txns:[ 1; 2 ]
          ~check:An.Theorem_audit.not_serializable "cycle" ]
  in
  let unchanged label ~serializable report =
    let out = An.Theorem_audit.cross_check ~serializable report in
    check Alcotest.(list string) (label ^ ": same findings")
      (checks_of report) (checks_of out);
    check Alcotest.int (label ^ ": same events scanned")
      (An.Report.events_scanned report) (An.Report.events_scanned out)
  in
  let diverges label ~serializable report =
    let out = An.Theorem_audit.cross_check ~serializable report in
    check Alcotest.(list string) (label ^ ": one divergence added")
      (List.sort compare ("audit.divergence" :: checks_of report))
      (List.sort compare (checks_of out));
    check Alcotest.bool (label ^ ": the divergence is an error") true
      (has_error out "audit.divergence");
    check Alcotest.int (label ^ ": same events scanned")
      (An.Report.events_scanned report) (An.Report.events_scanned out)
  in
  unchanged "both serializable" ~serializable:true clean;
  unchanged "both not serializable" ~serializable:false flagged;
  diverges "only the audit flags" ~serializable:true flagged;
  diverges "only the log scan flags" ~serializable:false clean

(* A real violation through the driver: after the workload, two
   transaction ids it never used implement a read/write cycle over two
   copies, which the runtime mirrors as Op_implemented events.  Both
   verdicts must see it, so there is no divergence. *)
let test_cross_check_sees_a_cycle () =
  let inject rt =
    let store = Rt.store rt in
    let catalog = Rt.catalog rt in
    let site item = List.hd (Ccdb_storage.Catalog.copies catalog item) in
    let a = (0, site 0) and b = (1, site 1) in
    let t1 = 1_000_001 and t2 = 1_000_002 in
    let read (item, site) txn =
      Ccdb_storage.Store.log_read store ~item ~site ~txn ~at:(Rt.now rt)
    and write (item, site) txn =
      Ccdb_storage.Store.apply_write store ~item ~site ~txn ~value:txn
        ~at:(Rt.now rt)
    in
    read a t1;
    write a t2;
    read b t2;
    write b t1
  in
  let r =
    D.run ~setup:small_setup ~n_txns:20 ~audit:true
      ~observer:(fun rt ->
        ignore
          (Ccdb_sim.Engine.schedule_at (Rt.engine rt) ~at:1e6 (fun () ->
               inject rt)))
      D.Unified spec
  in
  let report = Option.get r.audit in
  check Alcotest.bool "the log scan finds the cycle" false
    r.summary.serializable;
  check Alcotest.bool "the audit finds the cycle" true
    (has_error report An.Theorem_audit.not_serializable);
  check Alcotest.bool "the verdicts agree" false
    (List.mem "audit.divergence" (checks_of report))

(* -------------------------------------------------- hand-built raw traces *)

let grant ?(txn = 1) ?(protocol = P.Two_pl) ?(op = Op.Write) ?(item = 0)
    ?(site = 0) ?(mode = Some L.Wl) ?(schedule = L.Normal) ?ts ~at () =
  Rt.Lock_granted { txn; protocol; op; item; site; mode; schedule; ts; at }

let release ?(txn = 1) ?(protocol = P.Two_pl) ?(op = Op.Write) ?(item = 0)
    ?(site = 0) ?(granted_at = 0.) ?(aborted = false) ?ts ~at () =
  Rt.Lock_released { txn; protocol; op; item; site; granted_at; at; aborted; ts }

let request ?(txn = 1) ?(protocol = P.T_o) ?(op = Op.Read) ?(item = 0)
    ?(site = 0) ?(origin = 0) ?ts ~outcome ~at () =
  Rt.Lock_requested { txn; protocol; op; item; site; origin; ts; outcome; at }

let test_legal_trace_is_clean () =
  (* one strict-2PL write: grant, commit, then release *)
  let report =
    analyze
      [ grant ~at:1. ();
        Rt.Txn_committed
          { txn = mk_txn 1; submitted_at = 0.; executed_at = 2.;
            restarts = 0 };
        release ~at:3. () ]
  in
  check Alcotest.bool "clean" true (An.Report.is_clean report);
  check Alcotest.(list string) "no findings at all" [] (checks_of report)

let test_detects_incompatible_coheld_locks () =
  (* two plain write locks on the same copy, both Normal: forbidden by the
     section 4.2 compatibility matrix *)
  let report =
    analyze [ grant ~txn:1 ~at:1. (); grant ~txn:2 ~at:2. () ]
  in
  check Alcotest.bool "lock.conflict reported" true
    (has_error report "lock.conflict")

let test_allows_pre_scheduled_over_semi () =
  (* rule 2: a pre-scheduled grant over a held semi-lock is legal ... *)
  let coheld =
    [ grant ~txn:1 ~protocol:P.T_o ~mode:(Some L.Wl) ~ts:5 ~at:1. ();
      (* rule 4: the executed write turns its lock into a semi-lock *)
      Rt.Lock_transformed { txn = 1; item = 0; site = 0; mode = L.Swl; at = 2. };
      grant ~txn:2 ~protocol:P.T_o ~op:Op.Read ~mode:(Some L.Rl)
        ~schedule:L.Pre_scheduled ~ts:7 ~at:3. () ]
  in
  let report =
    analyze
      (coheld
      @ [ release ~txn:1 ~protocol:P.T_o ~ts:5 ~at:3. ();
          Rt.Lock_promoted { txn = 2; item = 0; site = 0; at = 4. };
          release ~txn:2 ~protocol:P.T_o ~op:Op.Read ~ts:7 ~at:5. () ])
  in
  check Alcotest.(list string) "promoted run is clean" []
    (error_checks report);
  (* ... but it must be promoted before the trace ends *)
  let unpromoted = analyze coheld in
  check Alcotest.bool "lock.never-promoted reported" true
    (has_error unpromoted "lock.never-promoted")

(* E1 write order around a withdrawn T/O read.  T/O txn 2 reads at ts 758
   (implemented at grant); when it restarts, the store discards that read
   and the queue forgets its timestamp, so an older T/O write (ts 757) may
   be admitted and implemented after it.  The write-order check must
   withdraw the read too; a read that was not discarded, or whose
   transaction committed, still orders the write. *)
let test_discarded_read_leaves_write_order () =
  let read_ts = 758 and write_ts = 757 in
  let read_then ~committed ~discarded =
    [ request ~txn:2 ~ts:read_ts ~outcome:Rt.Req_admitted ~at:1. ();
      grant ~txn:2 ~protocol:P.T_o ~op:Op.Read ~mode:(Some L.Rl) ~ts:read_ts
        ~at:2. () ]
    @ (if discarded then
         [ Rt.Reads_discarded
             { txn = 2; item = 0; site = 0; removed = 1; at = 3. } ]
       else [])
    @ (if committed then
         [ Rt.Txn_committed
             { txn = mk_txn ~protocol:P.T_o 2; submitted_at = 0.;
               executed_at = 3.; restarts = 0 } ]
       else [])
    @ [ release ~txn:2 ~protocol:P.T_o ~op:Op.Read ~aborted:(not committed)
          ~ts:read_ts ~at:4. ();
        request ~txn:1 ~op:Op.Write ~ts:write_ts ~outcome:Rt.Req_admitted
          ~at:5. ();
        grant ~txn:1 ~protocol:P.T_o ~ts:write_ts ~at:6. ();
        Rt.Lock_transformed
          { txn = 1; item = 0; site = 0; mode = L.Swl; at = 7. } ]
  in
  let write_order events =
    List.exists
      (fun (f : An.Finding.t) -> f.check = "prec.e1-write-order")
      (An.Report.findings (analyze events))
  in
  check Alcotest.bool "discarded read withdrawn" false
    (write_order (read_then ~committed:false ~discarded:true));
  check Alcotest.bool "aborted but not discarded" true
    (write_order (read_then ~committed:false ~discarded:false));
  check Alcotest.bool "committed read is final" true
    (write_order (read_then ~committed:true ~discarded:false))

let test_detects_release_before_commit () =
  let report = analyze [ grant ~at:1. (); release ~at:2. () ] in
  check Alcotest.bool "lock.release-before-commit reported" true
    (has_error report "lock.release-before-commit")

let test_detects_pa_restart () =
  let report =
    analyze
      [ Rt.Txn_restarted
          { txn = mk_txn ~protocol:P.Pa 7; reason = Rt.Deadlock_victim;
            at = 1. } ]
  in
  check Alcotest.bool "thm.pa-restarted reported" true
    (has_error report "thm.pa-restarted")

let test_detects_bad_rejection () =
  (* a T/O read rejected even though its timestamp clears the floor *)
  let report =
    analyze [ request ~ts:10 ~outcome:Rt.Req_rejected ~at:1. () ]
  in
  check Alcotest.bool "prec.bad-rejection reported" true
    (has_error report "prec.bad-rejection")

let test_detects_grant_order_violation () =
  (* E2: t2 (ts 9) granted a lock while t1 (ts 5) still waits *)
  let report =
    analyze
      [ request ~txn:1 ~ts:5 ~outcome:Rt.Req_admitted ~at:1. ();
        request ~txn:2 ~ts:9 ~outcome:Rt.Req_admitted ~at:2. ();
        grant ~txn:2 ~protocol:P.T_o ~op:Op.Read ~mode:(Some L.Rl) ~ts:9
          ~at:3. () ]
  in
  check Alcotest.bool "prec.grant-order reported" true
    (has_error report "prec.grant-order")

let test_detects_non_2pl_victim () =
  let report =
    analyze
      [ request ~txn:1 ~ts:5 ~outcome:Rt.Req_admitted ~at:1. ();
        request ~txn:2 ~ts:9 ~outcome:Rt.Req_admitted ~at:2. ();
        Rt.Deadlock_detected { cycle = [ 1; 2 ]; victim = Some 1; at = 3. } ]
  in
  check Alcotest.bool "thm.victim-not-2pl reported" true
    (has_error report "thm.victim-not-2pl");
  check Alcotest.bool "thm.cycle-without-2pl reported" true
    (has_error report "thm.cycle-without-2pl")

(* One trace that trips all four audits: the lock and precedence audits
   at one event (index 4), the lock audit twice there, then the theorem
   and consensus audits, and the end-of-trace checks of the lock,
   theorem and consensus audits (two participants left in doubt).  [Stream] numbers the events and
   collects every finding through one sink; the report's (check, event
   index, txns) list is pinned as it was when each audit kept its own
   counter and findings buffer. *)
let test_report_order_pinned () =
  let report =
    analyze
      [ request ~txn:1 ~op:Op.Write ~ts:5 ~outcome:Rt.Req_admitted ~at:1. ();
        request ~txn:2 ~op:Op.Write ~ts:9 ~outcome:Rt.Req_admitted ~at:2. ();
        grant ~txn:2 ~protocol:P.T_o ~ts:9 ~at:3. ();
        grant ~txn:8 ~op:Op.Read ~mode:(Some L.Rl) ~at:4. ();
        grant ~txn:3 ~protocol:P.T_o ~ts:7 ~at:5. ();
        Rt.Txn_restarted
          { txn = mk_txn ~protocol:P.Pa 4; reason = Rt.Deadlock_victim;
            at = 6. };
        Rt.Deadlock_detected { cycle = [ 1; 2 ]; victim = None; at = 7. };
        Rt.Prepared { txn = 9; site = 0; round = 0; at = 8. };
        Rt.Prepared { txn = 5; site = 1; round = 0; at = 8. };
        Rt.Decision_logged
          { txn = 6; site = 0; round = 0; commit = true; at = 9. };
        Rt.Decision_logged
          { txn = 6; site = 1; round = 0; commit = false; at = 10. };
        Rt.Acceptor_promised
          { txn = 7; site = 0; round = 0; ballot = 5; at = 11. };
        Rt.Acceptor_accepted
          { txn = 7; site = 0; round = 0; instance = 0; ballot = 3;
            prepared = true; at = 12. } ]
  in
  check Alcotest.int "events scanned" 13 (An.Report.events_scanned report);
  check
    Alcotest.(list (triple string (option int) (list int)))
    "findings in report order"
    [ ("prec.grant-order", Some 2, [ 2; 1 ]);
      ("lock.conflict", Some 3, [ 2; 8 ]);
      ("lock.conflict", Some 4, [ 8; 3 ]);
      ("lock.conflict", Some 4, [ 2; 3 ]);
      ("prec.grant-order", Some 4, [ 3; 1 ]);
      ("thm.pa-restarted", Some 5, [ 4 ]);
      ("consensus.split-decision", Some 10, [ 6 ]);
      ("consensus.ballot-regression", Some 12, [ 7 ]);
      ("consensus.blocking-window", None, [ 5 ]);
      ("consensus.blocking-window", None, [ 9 ]);
      ("thm.partial-commit", None, [ 6 ]);
      ("lock.leaked", Some 13, [ 3 ]);
      ("lock.leaked", Some 13, [ 8 ]);
      ("lock.leaked", Some 13, [ 2 ]);
      ("thm.cycle-no-victim", Some 6, [ 1; 2 ]) ]
    (List.map
       (fun (f : An.Finding.t) -> (f.check, f.event_index, f.txns))
       (An.Report.findings report))

(* ------------------------------------------ seeded-corruption witnesses *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Build a store + matching event stream the way the runtime does: store
   observers synthesize the Op_implemented events.  The corruption: the
   same two writes land in opposite orders on the two copies of item 0,
   injecting the cycle 1 -> 2 (copy (0,0)) / 2 -> 1 (copy (0,1)). *)
let test_not_serializable_witness () =
  let catalog = Ccdb_storage.Catalog.create ~items:1 ~sites:2 ~replication:2 in
  let store = Ccdb_storage.Store.create catalog in
  let events = ref [] in
  Ccdb_storage.Store.on_append store (fun ~item ~site entry ->
      events :=
        Rt.Op_implemented
          { txn = entry.txn; op = entry.kind; item; site; at = entry.at }
        :: !events);
  Ccdb_storage.Store.apply_write store ~item:0 ~site:0 ~txn:1 ~value:1 ~at:1.;
  Ccdb_storage.Store.apply_write store ~item:0 ~site:0 ~txn:2 ~value:2 ~at:2.;
  Ccdb_storage.Store.apply_write store ~item:0 ~site:1 ~txn:2 ~value:2 ~at:3.;
  Ccdb_storage.Store.apply_write store ~item:0 ~site:1 ~txn:1 ~value:1 ~at:4.;
  let events = Array.of_list (List.rev !events) in
  let assert_witness label report =
    match
      List.filter
        (fun (f : An.Finding.t) -> f.check = "thm.not-serializable")
        (An.Report.findings report)
    with
    | [ f ] ->
      check Alcotest.(list int) (label ^ ": witness txns") [ 1; 2 ]
        (List.sort compare f.txns);
      (match f.cycle with
       | [] -> Alcotest.failf "%s: witness cycle is empty" label
       | (first : Ccdb_serial.Incremental.edge) :: _ as cycle ->
         List.iter
           (fun (e : Ccdb_serial.Incremental.edge) ->
             check Alcotest.int (label ^ ": witness names item 0") 0
               e.prov.item;
             check Alcotest.bool (label ^ ": witness edge is injected") true
               ((e.src, e.dst) = (1, 2) || (e.src, e.dst) = (2, 1)))
           cycle;
         let rec chained = function
           | [ (last : Ccdb_serial.Incremental.edge) ] -> last.dst = first.src
           | a :: (b :: _ as rest) ->
             a.Ccdb_serial.Incremental.dst = b.Ccdb_serial.Incremental.src
             && chained rest
           | [] -> false
         in
         check Alcotest.bool (label ^ ": witness is a closed chain") true
           (chained cycle));
      let rendered = Format.asprintf "%a" An.Finding.pp f in
      check Alcotest.bool (label ^ ": pp renders the witness") true
        (contains_sub rendered "witness:")
    | l ->
      Alcotest.failf "%s: expected one thm.not-serializable, got %d" label
        (List.length l)
  in
  assert_witness "batch" (An.Analyzer.analyze ~store events);
  assert_witness "stream" (An.Analyzer.analyze_stream ~store events)

(* ------------------------------------- differential batch-vs-stream fuzz *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Random raw scripts: arbitrary reads/writes/discards/commits over a
   2-item, 2-site store, including asymmetric single-copy writes and
   mid-trace read withdrawals.  The store observers synthesize the event
   stream exactly as the runtime does. *)
type raw_action =
  | Do_read of int * int * int  (* txn, item, site *)
  | Do_write of int * int * int
  | Do_discard of int * int * int
  | Do_ignore of int * int * int (* a write the Thomas Write Rule drops *)
  | Do_commit of int

let raw_script_gen =
  let open QCheck.Gen in
  let txn = int_range 1 5 and item = int_range 0 1 and site = int_range 0 1 in
  let action =
    frequency
      [ (4, map3 (fun t i s -> Do_read (t, i, s)) txn item site);
        (4, map3 (fun t i s -> Do_write (t, i, s)) txn item site);
        (1, map3 (fun t i s -> Do_discard (t, i, s)) txn item site);
        (1, map (fun t -> Do_commit t) txn) ]
  in
  list_size (int_range 0 40) action

let instrument store =
  let events = ref [] in
  Ccdb_storage.Store.on_append store (fun ~item ~site entry ->
      events :=
        Rt.Op_implemented
          { txn = entry.txn; op = entry.kind; item; site; at = entry.at }
        :: !events);
  Ccdb_storage.Store.on_discard store (fun ~item ~site ~txn ~removed ->
      events := Rt.Reads_discarded { txn; item; site; removed; at = 0. } :: !events);
  events

let commit_event ~id ~read_set ~write_set ~at =
  let txn =
    Ccdb_model.Txn.make ~id ~site:0 ~read_set ~write_set ~compute_time:1.
      ~protocol:(List.nth P.all (id mod List.length P.all))
  in
  Rt.Txn_committed { txn; submitted_at = 0.; executed_at = at; restarts = 0 }

let replay_raw
    ?(catalog = Ccdb_storage.Catalog.create ~items:2 ~sites:2 ~replication:2)
    script =
  let store = Ccdb_storage.Store.create catalog in
  let events = instrument store in
  let committed = Hashtbl.create 8 in
  let reads = Hashtbl.create 8 and writes = Hashtbl.create 8 in
  let record tbl t i =
    let cur = Option.value ~default:[] (Hashtbl.find_opt tbl t) in
    if not (List.mem i cur) then Hashtbl.replace tbl t (i :: cur)
  in
  let items_of tbl t =
    List.sort compare (Option.value ~default:[] (Hashtbl.find_opt tbl t))
  in
  let clock = ref 0. in
  let tick () =
    clock := !clock +. 1.;
    !clock
  in
  List.iter
    (fun action ->
      let live t = not (Hashtbl.mem committed t) in
      match action with
      | Do_read (t, i, s) when live t ->
        Ccdb_storage.Store.log_read store ~item:i ~site:s ~txn:t ~at:(tick ());
        record reads t i
      | Do_write (t, i, s) when live t ->
        Ccdb_storage.Store.apply_write store ~item:i ~site:s ~txn:t ~value:t
          ~at:(tick ());
        record writes t i
      | Do_discard (t, i, s) when live t ->
        Ccdb_storage.Store.discard_reads store ~item:i ~site:s ~txn:t
      | Do_ignore (t, i, s) when live t ->
        events :=
          request ~txn:t ~op:Op.Write ~item:i ~site:s ~ts:t
            ~outcome:Rt.Req_ignored ~at:(tick ()) ()
          :: !events;
        record writes t i
      | Do_commit t when live t ->
        Hashtbl.replace committed t ();
        (* Txn.make rejects empty access sets; a do-nothing transaction
           just vanishes *)
        let read_set = items_of reads t and write_set = items_of writes t in
        if read_set <> [] || write_set <> [] then
          events :=
            commit_event ~id:t ~read_set ~write_set ~at:!clock :: !events
      | Do_read _ | Do_write _ | Do_discard _ | Do_ignore _ | Do_commit _ ->
        ())
    script;
  (store, Array.of_list (List.rev !events))

let prop_stream_matches_batch_raw =
  qtest ~count:1000 "stream = batch on random raw traces"
    (QCheck.make raw_script_gen)
    (fun script ->
      let store, events = replay_raw script in
      let batch = An.Analyzer.analyze ~store events in
      let stream = An.Analyzer.analyze_stream ~store events in
      An.Analyzer.diff ~batch ~stream = [])

(* Well-formed scripts: each transaction reads each item at most once (one
   copy), writes each item at most once (all copies, as write-all replica
   control does), then either commits with a truthful read/write-set —
   enabling committed-prefix GC — or aborts, withdrawing its reads. *)
type wf_op = W_read of int * int | W_write of int

type wf_txn = { wt_id : int; wt_ops : wf_op list; wt_commits : bool }

let wf_script_gen =
  let open QCheck.Gen in
  let wf_txn_gen id =
    let* r0 = bool in
    let* r1 = bool in
    let* s0 = int_range 0 1 in
    let* s1 = int_range 0 1 in
    let* w0 = bool in
    let* w1 = bool in
    let ops =
      (if r0 then [ W_read (0, s0) ] else [])
      @ (if r1 then [ W_read (1, s1) ] else [])
      @ (if w0 then [ W_write 0 ] else [])
      @ (if w1 then [ W_write 1 ] else [])
    in
    let* ops = shuffle_l ops in
    let* wt_commits = bool in
    return { wt_id = id; wt_ops = ops; wt_commits }
  in
  let* n = int_range 1 5 in
  let rec gen_txns i acc =
    if i > n then return (List.rev acc)
    else
      let* t = wf_txn_gen i in
      gen_txns (i + 1) (t :: acc)
  in
  let* txns = gen_txns 1 [] in
  (* one slot per op plus a fate slot; a shuffle of the slot multiset is a
     fair interleaving that preserves each transaction's own op order *)
  let slots =
    List.concat_map
      (fun t -> List.init (List.length t.wt_ops + 1) (fun _ -> t.wt_id))
      txns
  in
  let* order = shuffle_l slots in
  return (txns, order)

let replay_wf (txns, order) =
  let catalog = Ccdb_storage.Catalog.create ~items:2 ~sites:2 ~replication:2 in
  let store = Ccdb_storage.Store.create catalog in
  let events = instrument store in
  let queues = Hashtbl.create 8 in
  List.iter (fun t -> Hashtbl.replace queues t.wt_id (ref t.wt_ops, t)) txns;
  let clock = ref 0. in
  let tick () =
    clock := !clock +. 1.;
    !clock
  in
  List.iter
    (fun id ->
      let q, t = Hashtbl.find queues id in
      match !q with
      | W_read (item, site) :: rest ->
        q := rest;
        Ccdb_storage.Store.log_read store ~item ~site ~txn:id ~at:(tick ())
      | W_write item :: rest ->
        q := rest;
        List.iter
          (fun site ->
            Ccdb_storage.Store.apply_write store ~item ~site ~txn:id ~value:id
              ~at:(tick ()))
          (Ccdb_storage.Catalog.copies catalog item)
      | [] ->
        if t.wt_commits && t.wt_ops <> [] then
          let read_set =
            List.filter_map
              (function W_read (i, _) -> Some i | W_write _ -> None)
              t.wt_ops
          in
          let write_set =
            List.filter_map
              (function W_write i -> Some i | W_read _ -> None)
              t.wt_ops
          in
          events :=
            commit_event ~id ~read_set:(List.sort compare read_set)
              ~write_set:(List.sort compare write_set) ~at:!clock
            :: !events
        else
          List.iter
            (fun (item, site) ->
              Ccdb_storage.Store.discard_reads store ~item ~site ~txn:id)
            (Ccdb_storage.Catalog.all_copies catalog))
    order;
  (store, catalog, Array.of_list (List.rev !events))

let prop_stream_matches_batch_wf =
  qtest ~count:1000 "stream = batch with prefix GC on well-formed traces"
    (QCheck.make wf_script_gen)
    (fun script ->
      let store, catalog, events = replay_wf script in
      let batch = An.Analyzer.analyze ~store events in
      let stream = An.Analyzer.analyze_stream ~store ~catalog events in
      An.Analyzer.diff ~batch ~stream = [])

(* ------------------------------------------- durability against its spec *)

(* Batch and stream share [Theorem_audit.finish], so diffing them cannot
   catch a wrong durability check.  Seeded cases and a property
   against the original log scan pin it on their own. *)

let durability_lost findings =
  List.filter_map
    (fun (f : An.Finding.t) ->
      match f.check, f.txns, f.copy with
      | "thm.durability-lost", [ txn ], Some (item, site) ->
        Some (txn, item, site)
      | _ -> None)
    findings

let test_durability_reference () =
  let case label ~expect steps =
    let catalog =
      Ccdb_storage.Catalog.create ~items:1 ~sites:2 ~replication:2
    in
    let store = Ccdb_storage.Store.create catalog in
    let events = instrument store in
    List.iter (fun step -> step store events) steps;
    let events = Array.of_list (List.rev !events) in
    List.iter
      (fun (engine, report) ->
        check
          Alcotest.(list (triple int int int))
          (Printf.sprintf "%s (%s)" label engine)
          expect
          (durability_lost (An.Report.findings report)))
      [ ("batch", An.Analyzer.analyze ~store events);
        ("stream", An.Analyzer.analyze_stream ~store events) ]
  in
  let write ~txn ~site store _ =
    Ccdb_storage.Store.apply_write store ~item:0 ~site ~txn ~value:txn
      ~at:(float_of_int txn)
  in
  let ignored ~txn ~site _ events =
    events :=
      request ~txn ~op:Op.Write ~site ~ts:txn ~outcome:Rt.Req_ignored ~at:5. ()
      :: !events
  in
  let commit ~txn _ events =
    events :=
      commit_event ~id:txn ~read_set:[] ~write_set:[ 0 ] ~at:10. :: !events
  in
  case "write missing from one copy" ~expect:[ (1, 0, 1) ]
    [ write ~txn:2 ~site:0; write ~txn:2 ~site:1; write ~txn:1 ~site:0;
      write ~txn:3 ~site:1; write ~txn:3 ~site:0; commit ~txn:1;
      commit ~txn:2; commit ~txn:3 ];
  case "write on every copy" ~expect:[]
    [ write ~txn:1 ~site:0; write ~txn:1 ~site:1; commit ~txn:1 ];
  case "Thomas-Write-Rule drop" ~expect:[]
    [ write ~txn:1 ~site:0; ignored ~txn:1 ~site:1; commit ~txn:1 ];
  case "uncommitted partial write" ~expect:[]
    [ write ~txn:1 ~site:0; write ~txn:1 ~site:1; commit ~txn:1;
      write ~txn:2 ~site:0 ]

(* The durability check as first written, kept as its executable spec:
   each catalog copy of each committed write, unless the Thomas Write Rule
   dropped it there, must show the write somewhere in the copy's whole
   log.  Its generic tables see the audit's own operations, so they
   iterate, and report, in the audit's order. *)
let durability_spec store events =
  let committed = Hashtbl.create 64 and dropped = Hashtbl.create 16 in
  Array.iter
    (function
      | Rt.Txn_committed { txn; _ } ->
        Hashtbl.replace committed txn.Ccdb_model.Txn.id txn
      | Rt.Lock_requested { txn; item; site; outcome = Rt.Req_ignored; _ } ->
        Hashtbl.replace dropped (txn, item, site) ()
      | _ -> ())
    events;
  let catalog = Ccdb_storage.Store.catalog store in
  let lost = ref [] in
  Hashtbl.iter
    (fun id (txn : Ccdb_model.Txn.t) ->
      List.iter
        (fun item ->
          List.iter
            (fun site ->
              if
                (not (Hashtbl.mem dropped (id, item, site)))
                && not
                     (List.exists
                        (fun (e : Ccdb_storage.Store.log_entry) ->
                          e.txn = id && e.kind = Op.Write)
                        (Ccdb_storage.Store.log store ~item ~site))
              then lost := (id, item, site) :: !lost)
            (Ccdb_storage.Catalog.copies catalog item))
        txn.write_set)
    committed;
  List.rev !lost

(* Raw scripts over three items with two copies each on three sites, so
   copy ids and sites differ; writes land on one copy at a time and some
   are dropped by the Thomas Write Rule. *)
let durability_script_gen =
  let open QCheck.Gen in
  let on_copy f =
    map3
      (fun t i k -> f t i ((i + k) mod 3))
      (int_range 1 6) (int_range 0 2) (int_range 0 1)
  in
  let action =
    frequency
      [ (3, on_copy (fun t i s -> Do_read (t, i, s)));
        (5, on_copy (fun t i s -> Do_write (t, i, s)));
        (1, on_copy (fun t i s -> Do_discard (t, i, s)));
        (2, on_copy (fun t i s -> Do_ignore (t, i, s)));
        (2, map (fun t -> Do_commit t) (int_range 1 6)) ]
  in
  list_size (int_range 0 60) action

let prop_durability_matches_spec =
  qtest ~count:1000 "durability check = full log scan on random raw traces"
    (QCheck.make durability_script_gen)
    (fun script ->
      let catalog =
        Ccdb_storage.Catalog.create ~items:3 ~sites:3 ~replication:2
      in
      let store, events = replay_raw ~catalog script in
      durability_lost (An.Report.findings (An.Analyzer.analyze ~store events))
      = durability_spec store events)

let suites =
  [ ( "analysis",
      [ Alcotest.test_case "all modes audit clean" `Slow
          test_all_modes_audit_clean;
        Alcotest.test_case "audit off by default" `Quick
          test_audit_off_by_default;
        Alcotest.test_case "cross-check verdicts" `Quick
          test_cross_check_verdicts;
        Alcotest.test_case "cross-check sees a cycle" `Quick
          test_cross_check_sees_a_cycle;
        Alcotest.test_case "legal trace is clean" `Quick
          test_legal_trace_is_clean;
        Alcotest.test_case "co-held conflicting locks" `Quick
          test_detects_incompatible_coheld_locks;
        Alcotest.test_case "pre-scheduled over semi" `Quick
          test_allows_pre_scheduled_over_semi;
        Alcotest.test_case "release before commit" `Quick
          test_detects_release_before_commit;
        Alcotest.test_case "discarded read leaves write order" `Quick
          test_discarded_read_leaves_write_order;
        Alcotest.test_case "PA restart" `Quick test_detects_pa_restart;
        Alcotest.test_case "bad T/O rejection" `Quick
          test_detects_bad_rejection;
        Alcotest.test_case "grant-order violation" `Quick
          test_detects_grant_order_violation;
        Alcotest.test_case "non-2PL deadlock victim" `Quick
          test_detects_non_2pl_victim;
        Alcotest.test_case "not-serializable witness" `Quick
          test_not_serializable_witness;
        Alcotest.test_case "report order pinned" `Quick
          test_report_order_pinned ] );
    ( "analysis.differential",
      [ prop_stream_matches_batch_raw; prop_stream_matches_batch_wf ] );
    ( "analysis.durability",
      [ Alcotest.test_case "reference cases" `Quick test_durability_reference;
        prop_durability_matches_spec ] ) ]
