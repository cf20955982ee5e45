(* Tests for Ccdb_storage: Catalog and Store. *)

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

let test_store_initial () =
  let s = make_store () in
  check Alcotest.int "initial value" 0 (Ccdb_storage.Store.read s ~item:0 ~site:0);
  check Alcotest.int "initial writer" (-1)
    (Ccdb_storage.Store.writer_of s ~item:0 ~site:0);
  check Alcotest.int "no log" 0
    (List.length (Ccdb_storage.Store.log s ~item:0 ~site:0))

let test_store_write_read () =
  let s = make_store () in
  Ccdb_storage.Store.apply_write s ~item:1 ~site:0 ~txn:7 ~value:42 ~at:1.0;
  check Alcotest.int "value" 42 (Ccdb_storage.Store.read s ~item:1 ~site:0);
  check Alcotest.int "writer" 7 (Ccdb_storage.Store.writer_of s ~item:1 ~site:0);
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

let test_store_versions () =
  let s = make_store () in
  Ccdb_storage.Store.apply_write s ~item:0 ~site:1 ~txn:1 ~value:10 ~at:1.0;
  Ccdb_storage.Store.apply_write s ~item:0 ~site:1 ~txn:2 ~value:20 ~at:2.0;
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int (Alcotest.float 1e-9)))
    "history"
    [ (-1, 0, 0.); (1, 10, 1.0); (2, 20, 2.0) ]
    (Ccdb_storage.Store.versions s ~item:0 ~site:1)

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
        Alcotest.test_case "missing copy" `Quick test_store_missing_copy;
        Alcotest.test_case "write to a missing copy" `Quick
          test_store_write_missing_copy;
        Alcotest.test_case "logs per copy" `Quick test_store_logs_cover_all_copies ] ) ]
