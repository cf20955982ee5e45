(* Tests for Ccdb_model: Protocol, Op, Timestamp, Precedence, Lock, Txn. *)

let check = Alcotest.check

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Protocol ------------------------------------------------------------ *)

let test_protocol_strings () =
  List.iter
    (fun p ->
      check Alcotest.bool "roundtrip" true
        (match Ccdb_model.Protocol.of_string (Ccdb_model.Protocol.to_string p) with
         | Some p' -> Ccdb_model.Protocol.equal p p'
         | None -> false))
    Ccdb_model.Protocol.all;
  check Alcotest.bool "unknown" true
    (Ccdb_model.Protocol.of_string "nope" = None)

let test_protocol_compare_total () =
  let ps = Ccdb_model.Protocol.all in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c = Ccdb_model.Protocol.compare a b in
          if Ccdb_model.Protocol.equal a b then
            check Alcotest.int "refl" 0 c
          else if c = 0 then Alcotest.fail "distinct but equal")
        ps)
    ps

(* --- Op ------------------------------------------------------------------ *)

let test_op_conflicts () =
  let open Ccdb_model.Op in
  check Alcotest.bool "rr" false (conflicts Read Read);
  check Alcotest.bool "rw" true (conflicts Read Write);
  check Alcotest.bool "wr" true (conflicts Write Read);
  check Alcotest.bool "ww" true (conflicts Write Write)

(* --- Timestamp ------------------------------------------------------------ *)

let test_ts_source_monotone () =
  let src = Ccdb_model.Timestamp.Source.create () in
  let a = Ccdb_model.Timestamp.Source.next src in
  let b = Ccdb_model.Timestamp.Source.next src in
  check Alcotest.bool "increasing" true (b > a);
  check Alcotest.int "current is the last handed out" b
    (Ccdb_model.Timestamp.Source.current src)

let test_tuple_backoff_basic () =
  let tuple = Ccdb_model.Timestamp.Tuple.make ~ts:10 ~interval:7 in
  (* late w.r.t. floor 30: smallest 10 + 7k > 30 is 31 (k=3) *)
  check Alcotest.int "backoff" 31
    (Ccdb_model.Timestamp.Tuple.backoff tuple ~floor:30)

let test_tuple_backoff_exact_floor () =
  let tuple = Ccdb_model.Timestamp.Tuple.make ~ts:10 ~interval:5 in
  (* floor = 10: k = 1 gives 15 *)
  check Alcotest.int "at floor" 15
    (Ccdb_model.Timestamp.Tuple.backoff tuple ~floor:10)

let test_tuple_invalid () =
  Alcotest.check_raises "interval" (Invalid_argument "Timestamp.Tuple.make: interval <= 0")
    (fun () -> ignore (Ccdb_model.Timestamp.Tuple.make ~ts:1 ~interval:0))

let prop_backoff_clears_floor =
  qtest "backoff clears floor with minimal k"
    QCheck.(triple (int_range 0 1000) (int_range 1 50) (int_range 0 2000))
    (fun (ts, interval, floor) ->
      let tuple = Ccdb_model.Timestamp.Tuple.make ~ts ~interval in
      let ts' = Ccdb_model.Timestamp.Tuple.backoff tuple ~floor in
      ts' > floor
      && (ts' - ts) mod interval = 0
      && ts' - interval <= max floor ts)

(* --- Precedence ------------------------------------------------------------ *)

let prec_gen =
  let open QCheck.Gen in
  let timestamped =
    map3
      (fun ts site txn -> Ccdb_model.Precedence.timestamped ~ts ~site ~txn)
      (int_range 0 20) (int_range 0 5) (int_range 0 50)
  in
  let queue_local =
    map2
      (fun ts arrival -> Ccdb_model.Precedence.queue_local ~ts ~arrival)
      (int_range 0 20) (int_range 0 50)
  in
  oneof [ timestamped; queue_local ]

let prec_arb =
  QCheck.make prec_gen ~print:(fun p -> Format.asprintf "%a" Ccdb_model.Precedence.pp p)

let prop_prec_antisym =
  qtest "precedence: antisymmetric" QCheck.(pair prec_arb prec_arb)
    (fun (a, b) ->
      let c1 = Ccdb_model.Precedence.compare a b in
      let c2 = Ccdb_model.Precedence.compare b a in
      (c1 = 0 && c2 = 0) || (c1 < 0 && c2 > 0) || (c1 > 0 && c2 < 0))

let prop_prec_transitive =
  qtest "precedence: transitive" QCheck.(triple prec_arb prec_arb prec_arb)
    (fun (a, b, c) ->
      let ( <= ) x y = Ccdb_model.Precedence.compare x y <= 0 in
      not (a <= b && b <= c) || a <= c)

let test_prec_ts_dominates () =
  let a = Ccdb_model.Precedence.timestamped ~ts:1 ~site:9 ~txn:9 in
  let b = Ccdb_model.Precedence.queue_local ~ts:2 ~arrival:0 in
  check Alcotest.bool "smaller ts first" true
    (Ccdb_model.Precedence.compare a b < 0)

let test_prec_2pl_biggest_site () =
  (* rule 2: on equal timestamps a 2PL request sorts after any timestamped *)
  let ts' = Ccdb_model.Precedence.timestamped ~ts:5 ~site:99 ~txn:1 in
  let pl = Ccdb_model.Precedence.queue_local ~ts:5 ~arrival:0 in
  check Alcotest.bool "2PL last" true (Ccdb_model.Precedence.compare ts' pl < 0)

let test_prec_site_then_txn () =
  let a = Ccdb_model.Precedence.timestamped ~ts:5 ~site:1 ~txn:9 in
  let b = Ccdb_model.Precedence.timestamped ~ts:5 ~site:2 ~txn:1 in
  check Alcotest.bool "site breaks tie" true (Ccdb_model.Precedence.compare a b < 0);
  let c = Ccdb_model.Precedence.timestamped ~ts:5 ~site:1 ~txn:3 in
  check Alcotest.bool "txn id breaks tie" true (Ccdb_model.Precedence.compare c a < 0)

let test_prec_2pl_arrival_order () =
  let a = Ccdb_model.Precedence.queue_local ~ts:5 ~arrival:0 in
  let b = Ccdb_model.Precedence.queue_local ~ts:5 ~arrival:1 in
  check Alcotest.bool "fcfs" true (Ccdb_model.Precedence.compare a b < 0)

let test_prec_is_two_pl () =
  check Alcotest.bool "queue local" true
    (Ccdb_model.Precedence.is_two_pl (Ccdb_model.Precedence.queue_local ~ts:1 ~arrival:0));
  check Alcotest.bool "timestamped" false
    (Ccdb_model.Precedence.is_two_pl (Ccdb_model.Precedence.timestamped ~ts:1 ~site:0 ~txn:0))

(* --- Lock ------------------------------------------------------------------ *)

let test_lock_conflicts () =
  let open Ccdb_model.Lock in
  let modes = [ Rl; Wl; Srl; Swl ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expected = is_write_mode a || is_write_mode b in
          check Alcotest.bool
            (to_string a ^ "-" ^ to_string b)
            expected (conflicts a b))
        modes)
    modes

let test_lock_to_semi () =
  let open Ccdb_model.Lock in
  check Alcotest.bool "rl" true (equal (to_semi Rl) Srl);
  check Alcotest.bool "wl" true (equal (to_semi Wl) Swl);
  check Alcotest.bool "srl" true (equal (to_semi Srl) Srl);
  check Alcotest.bool "swl" true (equal (to_semi Swl) Swl)

(* --- Txn ------------------------------------------------------------------ *)

let mk_txn ?(id = 1) ?(site = 0) ?(reads = [ 1 ]) ?(writes = [ 2 ])
    ?(protocol = Ccdb_model.Protocol.Two_pl) () =
  Ccdb_model.Txn.make ~id ~site ~read_set:reads ~write_set:writes
    ~compute_time:1.0 ~protocol

let test_txn_normalises () =
  let t = mk_txn ~reads:[ 3; 1; 1; 2 ] ~writes:[ 2; 2; 5 ] () in
  check (Alcotest.list Alcotest.int) "reads sorted, minus writes" [ 1; 3 ]
    t.read_set;
  check (Alcotest.list Alcotest.int) "writes" [ 2; 5 ] t.write_set;
  check Alcotest.int "size" 4 (Ccdb_model.Txn.size t)

let test_txn_accesses () =
  let t = mk_txn ~reads:[ 1 ] ~writes:[ 2 ] () in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "accesses"
    [ (1, false); (2, true) ]
    (List.map
       (fun (i, k) -> (i, Ccdb_model.Op.equal k Ccdb_model.Op.Write))
       (Ccdb_model.Txn.accesses t))

let test_txn_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Txn.make: empty access sets")
    (fun () -> ignore (mk_txn ~reads:[] ~writes:[] ()));
  Alcotest.check_raises "negative item" (Invalid_argument "Txn.make: negative item id")
    (fun () -> ignore (mk_txn ~reads:[ -1 ] ()));
  Alcotest.check_raises "both sets same item collapses"
    (Invalid_argument "Txn.make: empty access sets") (fun () ->
      (* read of an item also written collapses into the write; with no other
         accesses the transaction is write-only, not empty *)
      ignore (mk_txn ~reads:[] ~writes:[] ()))

let test_txn_read_write_overlap () =
  let t = mk_txn ~reads:[ 7 ] ~writes:[ 7 ] () in
  check (Alcotest.list Alcotest.int) "read absorbed" [] t.read_set;
  check (Alcotest.list Alcotest.int) "write kept" [ 7 ] t.write_set

let suites =
  [ ( "model.protocol",
      [ Alcotest.test_case "string roundtrip" `Quick test_protocol_strings;
        Alcotest.test_case "compare total" `Quick test_protocol_compare_total ] );
    ("model.op", [ Alcotest.test_case "conflicts" `Quick test_op_conflicts ]);
    ( "model.timestamp",
      [ Alcotest.test_case "source monotone" `Quick test_ts_source_monotone;
        Alcotest.test_case "backoff basic" `Quick test_tuple_backoff_basic;
        Alcotest.test_case "backoff at floor" `Quick test_tuple_backoff_exact_floor;
        Alcotest.test_case "invalid tuple" `Quick test_tuple_invalid;
        prop_backoff_clears_floor ] );
    ( "model.precedence",
      [ Alcotest.test_case "ts dominates" `Quick test_prec_ts_dominates;
        Alcotest.test_case "2PL biggest site" `Quick test_prec_2pl_biggest_site;
        Alcotest.test_case "site then txn" `Quick test_prec_site_then_txn;
        Alcotest.test_case "2PL arrival order" `Quick test_prec_2pl_arrival_order;
        Alcotest.test_case "is_two_pl" `Quick test_prec_is_two_pl;
        prop_prec_antisym;
        prop_prec_transitive ] );
    ( "model.lock",
      [ Alcotest.test_case "conflict matrix" `Quick test_lock_conflicts;
        Alcotest.test_case "to_semi" `Quick test_lock_to_semi ] );
    ( "model.txn",
      [ Alcotest.test_case "normalises" `Quick test_txn_normalises;
        Alcotest.test_case "accesses" `Quick test_txn_accesses;
        Alcotest.test_case "invalid" `Quick test_txn_invalid;
        Alcotest.test_case "read/write overlap" `Quick test_txn_read_write_overlap ] ) ]
