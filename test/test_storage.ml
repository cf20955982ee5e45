(* Tests for Ccdb_storage: Catalog, Copy_table, Store and Wal. *)

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Catalog ------------------------------------------------------------ *)

let test_catalog_shape () =
  let c = Ccdb_storage.Catalog.create ~items:10 ~sites:4 ~replication:2 in
  check Alcotest.int "items" 10 (Ccdb_storage.Catalog.items c);
  check Alcotest.int "sites" 4 (Ccdb_storage.Catalog.sites c);
  for item = 0 to 9 do
    let copies = Ccdb_storage.Catalog.copies c item in
    check Alcotest.int "replication" 2 (List.length copies);
    check
      (Alcotest.list Alcotest.int)
      "sorted distinct" copies
      (List.sort_uniq Int.compare copies)
  done

let test_catalog_full_replication () =
  let c = Ccdb_storage.Catalog.create ~items:3 ~sites:3 ~replication:3 in
  for item = 0 to 2 do
    check (Alcotest.list Alcotest.int) "all sites" [ 0; 1; 2 ]
      (Ccdb_storage.Catalog.copies c item)
  done

let test_catalog_read_site_local () =
  let c = Ccdb_storage.Catalog.create ~items:8 ~sites:4 ~replication:2 in
  for item = 0 to 7 do
    List.iter
      (fun site ->
        check Alcotest.int "prefers local copy" site
          (Ccdb_storage.Catalog.read_site c ~preferred:site item))
      (Ccdb_storage.Catalog.copies c item)
  done

let test_catalog_read_site_remote () =
  let c = Ccdb_storage.Catalog.create ~items:8 ~sites:4 ~replication:1 in
  for item = 0 to 7 do
    for site = 0 to 3 do
      let rs = Ccdb_storage.Catalog.read_site c ~preferred:site item in
      check Alcotest.bool "holds a copy" true
        (Ccdb_storage.Catalog.has_copy c ~item ~site:rs)
    done
  done

let test_catalog_invalid () =
  Alcotest.check_raises "replication too big"
    (Invalid_argument "Catalog.create: replication out of range") (fun () ->
      ignore (Ccdb_storage.Catalog.create ~items:1 ~sites:2 ~replication:3))

let prop_catalog_all_copies =
  qtest "catalog: all_copies consistent with copies"
    QCheck.(triple (int_range 1 20) (int_range 1 6) (int_range 1 6))
    (fun (items, sites, repl) ->
      let repl = min repl sites in
      let c = Ccdb_storage.Catalog.create ~items ~sites ~replication:repl in
      let all = Ccdb_storage.Catalog.all_copies c in
      List.length all = items * repl
      && List.for_all
           (fun (item, site) -> Ccdb_storage.Catalog.has_copy c ~item ~site)
           all)

(* The catalog's footprint against the read-one / write-all definition
   the systems used to spell out inline: the same (item, site, op) list in
   the same order, and the read and write copies are its two halves. *)
let prop_footprint =
  qtest "catalog: footprint is read-one / write-all, in order"
    QCheck.(
      pair
        (triple (int_range 1 20) (int_range 1 6) (int_range 1 6))
        (triple small_nat (small_list small_nat) (small_list small_nat)))
    (fun ((items, sites, repl), (home, reads, writes)) ->
      let module C = Ccdb_storage.Catalog in
      let module Op = Ccdb_model.Op in
      let repl = min repl sites in
      let c = C.create ~items ~sites ~replication:repl in
      let site = home mod sites in
      let read_set = List.map (fun i -> i mod items) reads in
      let write_set = List.map (fun i -> i mod items) writes in
      let reference =
        List.map
          (fun item -> (item, C.read_site c ~preferred:site item, Op.Read))
          read_set
        @ List.concat_map
            (fun item ->
              List.map (fun s -> (item, s, Op.Write)) (C.copies c item))
            write_set
      in
      let half op =
        List.filter_map
          (fun (i, s, o) -> if Op.equal o op then Some (i, s) else None)
          reference
      in
      C.footprint c ~site ~read_set ~write_set = reference
      && C.read_copies c ~site read_set = half Op.Read
      && C.write_copies c write_set = half Op.Write)

let is_copy c ~item ~site =
  List.exists
    (fun (i, s) -> i = item && s = site)
    (Ccdb_storage.Catalog.all_copies c)

let prop_copy_ids =
  qtest "catalog: copy ids number the copies densely, reject the rest"
    QCheck.(triple (int_range 1 30) (int_range 1 7) (int_range 1 7))
    (fun (items, sites, repl) ->
      let repl = min repl sites in
      let c = Ccdb_storage.Catalog.create ~items ~sites ~replication:repl in
      let n = items * repl in
      let seen = Array.make n false in
      let dense =
        Ccdb_storage.Catalog.copy_count c = n
        && List.for_all
             (fun (item, site) ->
               let id = Ccdb_storage.Catalog.copy_id c ~item ~site in
               let fresh = id >= 0 && id < n && not seen.(id) in
               if fresh then seen.(id) <- true;
               fresh
               && id / repl = item
               && Ccdb_storage.Catalog.copy_site c id = site)
             (Ccdb_storage.Catalog.all_copies c)
        && Array.for_all Fun.id seen
      in
      (* every pair in and just around the grid: out-of-range items and
         sites, and in-range sites holding no copy of the item, raise *)
      let rejects_the_rest =
        List.for_all
          (fun item ->
            List.for_all
              (fun site ->
                let raised =
                  match Ccdb_storage.Catalog.copy_id c ~item ~site with
                  | _ -> false
                  | exception Invalid_argument _ -> true
                in
                raised = not (is_copy c ~item ~site))
              (List.init (sites + 2) (fun s -> s - 1)))
          (List.init (items + 2) (fun i -> i - 1))
      in
      dense && rejects_the_rest)

(* --- Copy_table --------------------------------------------------------- *)

let no_copy = Invalid_argument "Catalog.copy_id: no such physical copy"

let test_copy_table_lazy () =
  (* item 1 of 4 sites at replication 2 has its copies at sites 1 and 2 *)
  let c = Ccdb_storage.Catalog.create ~items:6 ~sites:4 ~replication:2 in
  let made = ref 0 in
  let t =
    Ccdb_storage.Copy_table.create c (fun () ->
        incr made;
        ref 0)
  in
  check Alcotest.int "nothing before first use" 0 !made;
  Ccdb_storage.Copy_table.get t ~item:1 ~site:2 := 5;
  check Alcotest.int "one value per copy" 5
    !(Ccdb_storage.Copy_table.get t ~item:1 ~site:2);
  check Alcotest.int "created once" 1 !made;
  check Alcotest.bool "find sees it" true
    (Option.is_some (Ccdb_storage.Copy_table.find t ~item:1 ~site:2));
  check Alcotest.bool "find never creates" true
    (Option.is_none (Ccdb_storage.Copy_table.find t ~item:1 ~site:1));
  List.iter
    (fun (item, site) ->
      Alcotest.check_raises "get on a non-copy" no_copy (fun () ->
          ignore (Ccdb_storage.Copy_table.get t ~item ~site));
      Alcotest.check_raises "find on a non-copy" no_copy (fun () ->
          ignore (Ccdb_storage.Copy_table.find t ~item ~site)))
    [ (1, 0); (1, 3); (6, 0); (-1, 1); (0, 4); (0, -1) ];
  check Alcotest.int "a non-copy never creates" 1 !made

let prop_copy_table_order =
  qtest "copy table: iter_site and fold visit copies in item order"
    QCheck.(triple (int_range 1 30) (int_range 1 7) (int_range 1 7))
    (fun (items, sites, repl) ->
      let repl = min repl sites in
      let c = Ccdb_storage.Catalog.create ~items ~sites ~replication:repl in
      let t = Ccdb_storage.Copy_table.create c (fun () -> ()) in
      (* create every other copy, newest items first *)
      let created =
        List.filteri
          (fun i _ -> i mod 2 = 0)
          (Ccdb_storage.Catalog.all_copies c)
      in
      List.iter
        (fun (item, site) -> Ccdb_storage.Copy_table.get t ~item ~site)
        (List.rev created);
      let per_site_ok =
        List.for_all
          (fun site ->
            let seen = ref [] in
            Ccdb_storage.Copy_table.iter_site t site (fun item () ->
                seen := item :: !seen);
            List.rev !seen
            = List.filter_map
                (fun (i, s) -> if s = site then Some i else None)
                created)
          (List.init sites Fun.id)
      in
      let folded =
        Ccdb_storage.Copy_table.fold
          (fun ~item ~site () acc -> (item, site) :: acc)
          t []
      in
      per_site_ok
      && List.sort compare folded = created
      && List.map fst (List.rev folded) = List.map fst created)

(* --- Store -------------------------------------------------------------- *)

let make_store () =
  let c = Ccdb_storage.Catalog.create ~items:4 ~sites:2 ~replication:2 in
  Ccdb_storage.Store.create c

(* The transactions of a copy's logged writes, oldest first. *)
let writers s ~item ~site =
  List.filter_map
    (fun (e : Ccdb_storage.Store.log_entry) ->
      match e.kind with
      | Ccdb_model.Op.Write -> Some e.txn
      | Ccdb_model.Op.Read -> None)
    (Ccdb_storage.Store.log s ~item ~site)

let test_store_initial () =
  let s = make_store () in
  check Alcotest.int "initial value" 0 (Ccdb_storage.Store.read s ~item:0 ~site:0);
  check Alcotest.int "no log" 0
    (List.length (Ccdb_storage.Store.log s ~item:0 ~site:0))

let test_store_write_read () =
  let s = make_store () in
  Ccdb_storage.Store.log_read s ~item:1 ~site:0 ~txn:3 ~at:0.5;
  Ccdb_storage.Store.apply_write s ~item:1 ~site:0 ~txn:7 ~value:42 ~at:1.0;
  Ccdb_storage.Store.log_read s ~item:1 ~site:0 ~txn:8 ~at:1.5;
  check Alcotest.int "value" 42 (Ccdb_storage.Store.read s ~item:1 ~site:0);
  check (Alcotest.list Alcotest.int) "writer" [ 7 ] (writers s ~item:1 ~site:0);
  (* the other copy is untouched: writes are per physical copy *)
  check Alcotest.int "other copy" 0 (Ccdb_storage.Store.read s ~item:1 ~site:1)

let test_store_log_order () =
  let s = make_store () in
  Ccdb_storage.Store.log_read s ~item:2 ~site:0 ~txn:1 ~at:1.0;
  Ccdb_storage.Store.apply_write s ~item:2 ~site:0 ~txn:2 ~value:5 ~at:2.0;
  Ccdb_storage.Store.log_read s ~item:2 ~site:0 ~txn:3 ~at:3.0;
  let log = Ccdb_storage.Store.log s ~item:2 ~site:0 in
  check (Alcotest.list Alcotest.int) "txn order" [ 1; 2; 3 ]
    (List.map (fun (e : Ccdb_storage.Store.log_entry) -> e.txn) log);
  check (Alcotest.list Alcotest.bool) "kinds" [ false; true; false ]
    (List.map
       (fun (e : Ccdb_storage.Store.log_entry) ->
         Ccdb_model.Op.equal e.kind Ccdb_model.Op.Write)
       log)

(* The store keeps no earlier value: the copy's log orders its writes. *)
let test_store_versions () =
  let s = make_store () in
  Ccdb_storage.Store.apply_write s ~item:0 ~site:1 ~txn:1 ~value:10 ~at:1.0;
  Ccdb_storage.Store.apply_write s ~item:0 ~site:1 ~txn:2 ~value:20 ~at:2.0;
  check Alcotest.int "latest value" 20 (Ccdb_storage.Store.read s ~item:0 ~site:1);
  check (Alcotest.list Alcotest.int) "writers in order" [ 1; 2 ]
    (writers s ~item:0 ~site:1);
  check (Alcotest.list (Alcotest.float 1e-9)) "write instants" [ 1.0; 2.0 ]
    (List.map
       (fun (e : Ccdb_storage.Store.log_entry) -> e.at)
       (Ccdb_storage.Store.log s ~item:0 ~site:1))

(* A write retains what a read does: one log entry, no second record. *)
let test_store_write_footprint () =
  let growth op =
    let s = make_store () in
    let before = Obj.reachable_words (Obj.repr s) in
    for i = 1 to 1000 do
      op s ~txn:i ~at:(float_of_int i)
    done;
    Obj.reachable_words (Obj.repr s) - before
  in
  let writes =
    growth (fun s ~txn ~at ->
        Ccdb_storage.Store.apply_write s ~item:0 ~site:0 ~txn ~value:txn ~at)
  in
  let reads =
    growth (fun s ~txn ~at ->
        Ccdb_storage.Store.log_read s ~item:0 ~site:0 ~txn ~at)
  in
  if writes > reads then
    Alcotest.failf "1000 writes retain %d words, 1000 reads %d" writes reads

let test_store_missing_copy () =
  let c = Ccdb_storage.Catalog.create ~items:2 ~sites:3 ~replication:1 in
  let s = Ccdb_storage.Store.create c in
  let copies = Ccdb_storage.Catalog.copies c 0 in
  let absent = List.find (fun site -> not (List.mem site copies)) [ 0; 1; 2 ] in
  Alcotest.check_raises "no copy" (Invalid_argument "Store: no such physical copy")
    (fun () -> ignore (Ccdb_storage.Store.read s ~item:0 ~site:absent))

let test_store_write_missing_copy () =
  let c = Ccdb_storage.Catalog.create ~items:2 ~sites:3 ~replication:1 in
  let s = Ccdb_storage.Store.create c in
  let no_copy = Invalid_argument "Store: no such physical copy" in
  (* item 0's only copy is at site 0 *)
  Alcotest.check_raises "write to a non-copy" no_copy (fun () ->
      Ccdb_storage.Store.apply_write s ~item:0 ~site:1 ~txn:1 ~value:1 ~at:1.);
  Alcotest.check_raises "logged read of a non-copy" no_copy (fun () ->
      Ccdb_storage.Store.log_read s ~item:0 ~site:2 ~txn:1 ~at:1.);
  Alcotest.check_raises "out-of-range item" no_copy (fun () ->
      Ccdb_storage.Store.apply_write s ~item:2 ~site:0 ~txn:1 ~value:1 ~at:1.);
  check Alcotest.int "the real copy is untouched" 0
    (Ccdb_storage.Store.read s ~item:0 ~site:0)

let test_store_logs_cover_all_copies () =
  let s = make_store () in
  let logs = Ccdb_storage.Store.logs s in
  check Alcotest.int "one log per copy" 8 (List.length logs)

(* --- Wal ------------------------------------------------------------------ *)

module Wal = Ccdb_storage.Wal

let prewrite ~item ~value =
  { Wal.item; op = Ccdb_model.Op.Write; value = Some value; attempt = 0;
    granted_at = float_of_int item }

(* One site's log, written by hand: lock grants, three commit rounds and a
   Paxos acceptor's promises and accepts, interleaved as a site writes
   them. *)
let test_wal_replay () =
  let w = Wal.create ~sites:2 in
  let a1 = prewrite ~item:4 ~value:40 and a2 = prewrite ~item:5 ~value:50 in
  let accept ~txn ~instance ~ballot ~prepared ~home ~psites =
    Wal.Acceptor_accept { txn; round = 0; instance; ballot; prepared; home; psites }
  in
  List.iteri
    (fun i r -> Wal.append w ~site:0 ~at:(float_of_int i) r)
    [ Wal.Grant { txn = 1; item = 0; op = Ccdb_model.Op.Read; ts = None };
      Wal.Admit { txn = 2; item = 1; op = Ccdb_model.Op.Write; ts = 9 };
      Wal.Grant { txn = 2; item = 1; op = Ccdb_model.Op.Write; ts = Some 9 };
      Wal.Grant { txn = 3; item = 2; op = Ccdb_model.Op.Write; ts = Some 4 };
      Wal.Release { txn = 1; item = 0; op = Ccdb_model.Op.Read; aborted = false };
      (* a decided round *)
      Wal.Prewrite { txn = 10; round = 0; action = a1 };
      Wal.Vote { txn = 10; round = 0; coordinator = 1 };
      (* an undecided round, its prewrites split by another record *)
      Wal.Prewrite { txn = 11; round = 1; action = a2 };
      Wal.Acceptor_promise { txn = 20; round = 0; ballot = 3 };
      Wal.Prewrite { txn = 11; round = 1; action = a1 };
      Wal.Vote { txn = 11; round = 1; coordinator = 0 };
      Wal.Revoke { txn = 3; item = 2 };
      Wal.Decision { txn = 10; round = 0; commit = true };
      (* a round whose transaction was applied here *)
      Wal.Prewrite { txn = 12; round = 2; action = a2 };
      Wal.Vote { txn = 12; round = 2; coordinator = 1 };
      Wal.Applied { txn = 12; round = 2 };
      Wal.Decision { txn = 13; round = 0; commit = false };
      Wal.Acceptor_promise { txn = 21; round = 0; ballot = 1 };
      Wal.Acceptor_promise { txn = 20; round = 0; ballot = 5 };
      Wal.Acceptor_promise { txn = 20; round = 0; ballot = 4 };
      accept ~txn:20 ~instance:1 ~ballot:5 ~prepared:true ~home:0 ~psites:[ 1; 2 ];
      accept ~txn:21 ~instance:0 ~ballot:1 ~prepared:true ~home:1 ~psites:[ 0 ];
      accept ~txn:20 ~instance:2 ~ballot:5 ~prepared:false ~home:0
        ~psites:[ 1; 2 ];
      accept ~txn:20 ~instance:1 ~ballot:7 ~prepared:false ~home:2
        ~psites:[ 2; 1 ];
      accept ~txn:20 ~instance:1 ~ballot:6 ~prepared:true ~home:0
        ~psites:[ 1; 2 ] ];
  let r = Wal.replay w ~site:0 in
  check Alcotest.int "live grants: three granted, one released, one revoked"
    1 r.live_grants;
  check Alcotest.bool "in doubt: only the undecided, unapplied round" true
    (r.in_doubt = [ (11, 1, [ a2; a1 ]) ]);
  check
    Alcotest.(list (triple int int bool))
    "decisions, oldest first"
    [ (10, 0, true); (13, 0, false) ]
    r.decided;
  check
    Alcotest.(list (pair (pair int int) int))
    "highest promise per round, first-seen order"
    [ ((20, 0), 5); ((21, 0), 1) ]
    r.promised;
  check
    Alcotest.(list (pair (triple int int int) (pair int bool)))
    "highest-ballot accept per instance, first-seen order"
    [ ((20, 0, 1), (7, false)); ((21, 0, 0), (1, true)); ((20, 0, 2), (5, false)) ]
    r.accepted;
  check
    Alcotest.(list (pair (pair int int) (pair int (list int))))
    "home and participants from each round's first accept"
    [ ((20, 0), (0, [ 1; 2 ])); ((21, 0), (1, [ 0 ])) ]
    r.acc_meta;
  check Alcotest.bool "replaying twice gives the same summary" true
    (Wal.replay w ~site:0 = r);
  let empty = Wal.replay w ~site:1 in
  check Alcotest.bool "an empty log replays to nothing" true
    (empty.live_grants = 0 && empty.in_doubt = [] && empty.decided = []
     && empty.promised = [] && empty.accepted = [] && empty.acc_meta = [])

let suites =
  [ ( "storage.catalog",
      [ Alcotest.test_case "shape" `Quick test_catalog_shape;
        Alcotest.test_case "full replication" `Quick test_catalog_full_replication;
        Alcotest.test_case "read_site local" `Quick test_catalog_read_site_local;
        Alcotest.test_case "read_site remote" `Quick test_catalog_read_site_remote;
        Alcotest.test_case "invalid" `Quick test_catalog_invalid;
        prop_catalog_all_copies;
        prop_copy_ids;
        prop_footprint ] );
    ( "storage.copy_table",
      [ Alcotest.test_case "lazy, raises on a non-copy" `Quick
          test_copy_table_lazy;
        prop_copy_table_order ] );
    ( "storage.store",
      [ Alcotest.test_case "initial" `Quick test_store_initial;
        Alcotest.test_case "write/read" `Quick test_store_write_read;
        Alcotest.test_case "log order" `Quick test_store_log_order;
        Alcotest.test_case "versions" `Quick test_store_versions;
        Alcotest.test_case "a write retains what a read does" `Quick
          test_store_write_footprint;
        Alcotest.test_case "missing copy" `Quick test_store_missing_copy;
        Alcotest.test_case "write to a missing copy" `Quick
          test_store_write_missing_copy;
        Alcotest.test_case "logs per copy" `Quick test_store_logs_cover_all_copies ] );
    ("storage.wal", [ Alcotest.test_case "replay" `Quick test_wal_replay ]) ]
