(* Tests for Ccdb_serial: conflict graphs and serializability checks. *)

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let entry txn kind at : Ccdb_storage.Store.log_entry = { txn; kind; at }
let r txn at = entry txn Ccdb_model.Op.Read at
let w txn at = entry txn Ccdb_model.Op.Write at

(* --- Conflict_graph ------------------------------------------------------ *)

(* The executable specification of [Ccdb_serial.Conflict_graph]: a plain
   set-based implementation.  The library's int-array version must agree
   with it on every query, down to the exact cycle witness the deadlock
   detector picks its victim from. *)
module Reference = struct
  module Imap = Map.Make (Int)
  module Iset = Set.Make (Int)

  module Edge_set = Set.Make (struct
    type t = int * int

    let compare = compare
  end)

  type t = {
    node_set : Iset.t;
    edge_set : Edge_set.t;
    succ : Iset.t Imap.t;
  }

  let build node_set edge_set =
    let succ =
      Edge_set.fold
        (fun (a, b) acc ->
          let cur = Option.value ~default:Iset.empty (Imap.find_opt a acc) in
          Imap.add a (Iset.add b cur) acc)
        edge_set Imap.empty
    in
    { node_set; edge_set; succ }

  let of_edges ~nodes ~edges =
    let node_set =
      List.fold_left
        (fun acc (a, b) -> Iset.add a (Iset.add b acc))
        (Iset.of_list nodes) edges
    in
    let edge_set =
      List.fold_left
        (fun acc (a, b) -> if a = b then acc else Edge_set.add (a, b) acc)
        Edge_set.empty edges
    in
    build node_set edge_set

  let of_logs logs =
    let nodes = ref Iset.empty in
    let edges = ref Edge_set.empty in
    let scan_log entries =
      let rec loop earlier = function
        | [] -> ()
        | (e : Ccdb_storage.Store.log_entry) :: rest ->
          nodes := Iset.add e.txn !nodes;
          List.iter
            (fun (e' : Ccdb_storage.Store.log_entry) ->
              if e'.txn <> e.txn && Ccdb_model.Op.conflicts e'.kind e.kind then
                edges := Edge_set.add (e'.txn, e.txn) !edges)
            earlier;
          loop (e :: earlier) rest
      in
      loop [] entries
    in
    List.iter (fun (_copy, entries) -> scan_log entries) logs;
    build !nodes !edges

  let nodes t = Iset.elements t.node_set
  let edges t = Edge_set.elements t.edge_set

  let successors t n =
    Option.value ~default:Iset.empty (Imap.find_opt n t.succ)

  let find_cycle t =
    let state = Hashtbl.create 64 in
    let cycle = ref None in
    let rec visit path n =
      match Hashtbl.find_opt state n with
      | Some 2 -> ()
      | Some 1 ->
        if !cycle = None then begin
          let rec take acc = function
            | [] -> acc
            | x :: rest -> if x = n then x :: acc else take (x :: acc) rest
          in
          cycle := Some (take [] path)
        end
      | Some _ | None ->
        Hashtbl.replace state n 1;
        Iset.iter
          (fun m -> if !cycle = None then visit (n :: path) m)
          (successors t n);
        Hashtbl.replace state n 2
    in
    Iset.iter (fun n -> if !cycle = None then visit [] n) t.node_set;
    !cycle

  let has_cycle t = Option.is_some (find_cycle t)

  let topological_order t =
    let indeg = Hashtbl.create 64 in
    Iset.iter (fun n -> Hashtbl.replace indeg n 0) t.node_set;
    Edge_set.iter
      (fun (_, b) ->
        Hashtbl.replace indeg b
          (1 + Option.value ~default:0 (Hashtbl.find_opt indeg b)))
      t.edge_set;
    let frontier = ref Iset.empty in
    Hashtbl.iter
      (fun n d -> if d = 0 then frontier := Iset.add n !frontier)
      indeg;
    let order = ref [] in
    let count = ref 0 in
    while not (Iset.is_empty !frontier) do
      let n = Iset.min_elt !frontier in
      frontier := Iset.remove n !frontier;
      order := n :: !order;
      incr count;
      Iset.iter
        (fun m ->
          let d = Hashtbl.find indeg m - 1 in
          Hashtbl.replace indeg m d;
          if d = 0 then frontier := Iset.add m !frontier)
        (successors t n)
    done;
    if !count = Iset.cardinal t.node_set then Some (List.rev !order) else None
end

let test_graph_edges_from_log () =
  (* log on one copy: r1 w2 r3  =>  1->2 (rw), 2->3 (wr) *)
  let logs = [ ((0, 0), [ r 1 1.; w 2 2.; r 3 3. ]) ] in
  let g = Ccdb_serial.Conflict_graph.of_logs logs in
  check (Alcotest.list Alcotest.int) "nodes" [ 1; 2; 3 ]
    (Ccdb_serial.Conflict_graph.nodes g);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "edges"
    [ (1, 2); (2, 3) ]
    (Ccdb_serial.Conflict_graph.edges g)

let test_graph_reads_dont_conflict () =
  let logs = [ ((0, 0), [ r 1 1.; r 2 2.; r 3 3. ]) ] in
  let g = Ccdb_serial.Conflict_graph.of_logs logs in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "no edges" []
    (Ccdb_serial.Conflict_graph.edges g)

let test_graph_same_txn_no_self_edge () =
  let logs = [ ((0, 0), [ w 1 1.; w 1 2. ]) ] in
  let g = Ccdb_serial.Conflict_graph.of_logs logs in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "no self" []
    (Ccdb_serial.Conflict_graph.edges g)

let test_graph_acyclic () =
  let g =
    Ccdb_serial.Conflict_graph.of_edges ~nodes:[ 1; 2; 3 ]
      ~edges:[ (1, 2); (2, 3); (1, 3) ]
  in
  check Alcotest.bool "acyclic" false (Ccdb_serial.Conflict_graph.has_cycle g);
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "topo" (Some [ 1; 2; 3 ])
    (Ccdb_serial.Conflict_graph.topological_order g)

let test_graph_cycle () =
  let g =
    Ccdb_serial.Conflict_graph.of_edges ~nodes:[]
      ~edges:[ (1, 2); (2, 3); (3, 1) ]
  in
  check Alcotest.bool "cyclic" true (Ccdb_serial.Conflict_graph.has_cycle g);
  check (Alcotest.option (Alcotest.list Alcotest.int)) "no topo" None
    (Ccdb_serial.Conflict_graph.topological_order g);
  match Ccdb_serial.Conflict_graph.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
    check Alcotest.int "cycle length" 3 (List.length cycle);
    (* each consecutive pair (and the wrap-around) is an edge *)
    let edges = Ccdb_serial.Conflict_graph.edges g in
    let pairs =
      match cycle with
      | [] -> []
      | first :: _ ->
        let rec pair_up = function
          | [ last ] -> [ (last, first) ]
          | a :: (b :: _ as rest) -> (a, b) :: pair_up rest
          | [] -> []
        in
        pair_up cycle
    in
    List.iter
      (fun p ->
        check Alcotest.bool "cycle edge exists" true (List.mem p edges))
      pairs

let test_graph_two_cycles () =
  let g =
    Ccdb_serial.Conflict_graph.of_edges ~nodes:[]
      ~edges:[ (1, 2); (2, 1); (3, 4); (4, 3) ]
  in
  check Alcotest.bool "cyclic" true (Ccdb_serial.Conflict_graph.has_cycle g)

let test_graph_isolated_node () =
  let g = Ccdb_serial.Conflict_graph.of_edges ~nodes:[ 9 ] ~edges:[] in
  check (Alcotest.list Alcotest.int) "node" [ 9 ]
    (Ccdb_serial.Conflict_graph.nodes g);
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "topo" (Some [ 9 ])
    (Ccdb_serial.Conflict_graph.topological_order g)

(* Differential check against [Reference].  Ids come mostly from a small
   pool, so repeated edges, self-loops, shared endpoints and cycles are
   common, with some at the extremes of the int range (negative, and at or
   past 2^31) and some drawn from the whole range. *)
let graph_id_gen =
  QCheck.Gen.(
    frequency
      [ (8, int_range 0 7);
        ( 2,
          oneofl
            [ min_int; -(1 lsl 40); -3; -1; 1 lsl 31; (1 lsl 31) + 5;
              1 lsl 40; max_int ] );
        (1, int) ])

let graph_input_gen =
  QCheck.Gen.(
    frequency
      [ (1, return ([], []));
        ( 12,
          pair
            (list_size (int_range 0 4) graph_id_gen)
            (list_size (int_range 0 40) (pair graph_id_gen graph_id_gen)) ) ])

let print_graph_input =
  QCheck.Print.(pair (list int) (list (pair int int)))

let graph_log_gen =
  let open QCheck.Gen in
  let kind =
    map
      (fun is_w -> if is_w then Ccdb_model.Op.Write else Ccdb_model.Op.Read)
      bool
  in
  let log i entries =
    ((i, 0), List.mapi (fun j (txn, k) -> entry txn k (float_of_int j)) entries)
  in
  map (List.mapi log)
    (list_size (int_range 0 4)
       (list_size (int_range 0 10) (pair graph_id_gen kind)))

let print_graph_logs logs =
  QCheck.Print.(list (list (pair int string)))
    (List.map
       (fun (_, entries) ->
         List.map
           (fun (e : Ccdb_storage.Store.log_entry) ->
             (e.txn, Ccdb_model.Op.to_string e.kind))
           entries)
       logs)

let agrees_with_reference g r =
  let module G = Ccdb_serial.Conflict_graph in
  G.nodes g = Reference.nodes r
  && G.edges g = Reference.edges r
  && G.has_cycle g = Reference.has_cycle r
  && G.find_cycle g = Reference.find_cycle r
  && G.topological_order g = Reference.topological_order r

let prop_of_edges_matches_reference =
  qtest ~count:1500 "of_edges agrees with the set-based reference"
    (QCheck.make ~print:print_graph_input graph_input_gen)
    (fun (nodes, edges) ->
      agrees_with_reference
        (Ccdb_serial.Conflict_graph.of_edges ~nodes ~edges)
        (Reference.of_edges ~nodes ~edges))

(* One builder serves every case, as the deadlock detector's serves every
   scan: [clear] must leave no node, number or edge of an earlier case
   behind, and [graph] must leave the builder as it was. *)
let prop_builder_reused_matches_reference =
  let module B = Ccdb_serial.Conflict_graph.Builder in
  let b = B.create () in
  qtest ~count:1500 "one reused Builder agrees with the set-based reference"
    (QCheck.make ~print:print_graph_input graph_input_gen)
    (fun (nodes, edges) ->
      B.clear b;
      List.iter (B.add_node b) nodes;
      List.iter (fun (x, y) -> B.add b x y) edges;
      let r = Reference.of_edges ~nodes ~edges in
      agrees_with_reference (B.graph b) r && agrees_with_reference (B.graph b) r)

let prop_of_logs_matches_reference =
  qtest ~count:1000 "of_logs agrees with the set-based reference"
    (QCheck.make ~print:print_graph_logs graph_log_gen)
    (fun logs ->
      agrees_with_reference
        (Ccdb_serial.Conflict_graph.of_logs logs)
        (Reference.of_logs logs))

(* One long log: enough repeated conflicts to make [of_logs] deduplicate
   its edge buffer several times over. *)
let test_graph_long_log_matches_reference () =
  let logs =
    List.init 3 (fun c ->
        ( (c, 0),
          List.init 300 (fun j ->
              let txn = ((j * 7) + c) mod 23 in
              if j mod 3 = 0 then w txn (float_of_int j)
              else r txn (float_of_int j)) ))
  in
  check Alcotest.bool "agrees" true
    (agrees_with_reference
       (Ccdb_serial.Conflict_graph.of_logs logs)
       (Reference.of_logs logs))

(* --- Check ---------------------------------------------------------------- *)

let test_check_serializable () =
  (* classic non-serializable interleaving on two items:
     x: w1 r2 ; y: w2 r1  =>  1->2 and 2->1 *)
  let bad = [ ((0, 0), [ w 1 1.; r 2 2. ]); ((1, 0), [ w 2 1.; r 1 2. ]) ] in
  check Alcotest.bool "cyclic execution" false
    (Ccdb_serial.Check.conflict_serializable bad);
  check Alcotest.bool "witness" true
    (Ccdb_serial.Check.violation_witness bad <> None);
  let good = [ ((0, 0), [ w 1 1.; r 2 2. ]); ((1, 0), [ w 1 1.; r 2 2. ]) ] in
  check Alcotest.bool "serializable" true
    (Ccdb_serial.Check.conflict_serializable good);
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "order" (Some [ 1; 2 ])
    (Ccdb_serial.Check.serialization_order good)

let test_brute_force_agrees_on_examples () =
  let bad = [ ((0, 0), [ w 1 1.; r 2 2. ]); ((1, 0), [ w 2 1.; r 1 2. ]) ] in
  check (Alcotest.option Alcotest.bool) "bad" (Some false)
    (Ccdb_serial.Check.brute_force_serializable bad);
  let good = [ ((0, 0), [ w 1 1.; w 2 2.; w 3 3. ]) ] in
  check (Alcotest.option Alcotest.bool) "good" (Some true)
    (Ccdb_serial.Check.brute_force_serializable good)

let test_brute_force_gives_up () =
  let logs =
    [ ((0, 0), List.init 9 (fun i -> w (i + 1) (float_of_int i))) ]
  in
  check (Alcotest.option Alcotest.bool) "too many" None
    (Ccdb_serial.Check.brute_force_serializable logs)

(* random small logs: checker agrees with the brute-force oracle *)
let random_logs_gen =
  let open QCheck.Gen in
  let entry_gen =
    map2
      (fun txn is_w ->
        (txn, if is_w then Ccdb_model.Op.Write else Ccdb_model.Op.Read))
      (int_range 1 5) bool
  in
  let log_gen = list_size (int_range 0 8) entry_gen in
  map
    (fun logs ->
      List.mapi
        (fun i entries ->
          ( (i, 0),
            List.mapi (fun j (txn, kind) -> entry txn kind (float_of_int j)) entries ))
        logs)
    (list_size (int_range 1 3) log_gen)

let prop_checker_matches_brute_force =
  qtest ~count:500 "checker agrees with brute force"
    (QCheck.make random_logs_gen)
    (fun logs ->
      match Ccdb_serial.Check.brute_force_serializable logs with
      | None -> true
      | Some expected -> Ccdb_serial.Check.conflict_serializable logs = expected)

let prop_topo_respects_edges =
  qtest ~count:500 "topological order respects every conflict edge"
    (QCheck.make random_logs_gen)
    (fun logs ->
      let g = Ccdb_serial.Conflict_graph.of_logs logs in
      match Ccdb_serial.Conflict_graph.topological_order g with
      | None -> Ccdb_serial.Conflict_graph.has_cycle g
      | Some order ->
        let pos = Hashtbl.create 8 in
        List.iteri (fun i t -> Hashtbl.replace pos t i) order;
        List.for_all
          (fun (a, b) -> Hashtbl.find pos a < Hashtbl.find pos b)
          (Ccdb_serial.Conflict_graph.edges g))

(* --- Incremental ---------------------------------------------------------- *)

module Inc = Ccdb_serial.Incremental

let prov : Inc.provenance =
  { item = 0; site = 0; from_op = Ccdb_model.Op.Write;
    to_op = Ccdb_model.Op.Write }

let test_incremental_park_and_dissolve () =
  let g = Inc.create () in
  check Alcotest.bool "1->2 ok" true (Inc.add_edge g ~src:1 ~dst:2 ~prov = None);
  check Alcotest.bool "2->3 ok" true (Inc.add_edge g ~src:2 ~dst:3 ~prov = None);
  check Alcotest.bool "3->1 parked" true
    (Inc.add_edge g ~src:3 ~dst:1 ~prov <> None);
  check Alcotest.int "two live edges" 2 (Inc.live_edges g);
  check Alcotest.int "one parked edge" 1 (Inc.deferred_edges g);
  (* withdrawing 1->2 dissolves the only cycle the parked edge closed *)
  Inc.remove_edge g ~src:1 ~dst:2;
  check Alcotest.bool "acyclic after removal" true (Inc.check_deferred g = None)

let test_incremental_witness_chain () =
  let g = Inc.create () in
  ignore (Inc.add_edge g ~src:1 ~dst:2 ~prov);
  ignore (Inc.add_edge g ~src:2 ~dst:3 ~prov);
  match Inc.add_edge g ~src:3 ~dst:1 ~prov with
  | None -> Alcotest.fail "expected a cycle witness"
  | Some w ->
    check Alcotest.int "witness length" 3 (List.length w);
    let first = List.hd w in
    check Alcotest.int "offending src" 3 first.Inc.src;
    check Alcotest.int "offending dst" 1 first.Inc.dst;
    let rec chained = function
      | [ (last : Inc.edge) ] -> last.dst = first.Inc.src
      | a :: (b :: _ as rest) -> a.Inc.dst = b.Inc.src && chained rest
      | [] -> false
    in
    check Alcotest.bool "witness is a closed chain" true (chained w)

let test_incremental_refcount () =
  let g = Inc.create () in
  ignore (Inc.add_edge g ~src:1 ~dst:2 ~prov);
  ignore (Inc.add_edge g ~src:1 ~dst:2 ~prov);
  Inc.remove_edge g ~src:1 ~dst:2;
  check Alcotest.int "second instance survives" 1 (Inc.live_edges g);
  Inc.remove_edge g ~src:1 ~dst:2;
  check Alcotest.int "both instances gone" 0 (Inc.live_edges g);
  (* removing an unknown edge is a no-op *)
  Inc.remove_edge g ~src:7 ~dst:8;
  check Alcotest.bool "still acyclic" true (Inc.check_deferred g = None)

let test_incremental_gc () =
  let g = Inc.create () in
  ignore (Inc.add_edge g ~src:1 ~dst:2 ~prov);
  ignore (Inc.add_edge g ~src:2 ~dst:3 ~prov);
  Inc.retire g 1;
  check Alcotest.int "source collected immediately" 1 (Inc.collected g);
  Inc.retire g 3;
  check Alcotest.int "3 has a live in-edge, stays" 1 (Inc.collected g);
  Inc.retire g 2;
  (* 1's collection dropped 1->2, so 2 collects, which drops 2->3 and
     cascades into the already-retired 3 *)
  check Alcotest.int "cascade collects everything" 3 (Inc.collected g);
  check Alcotest.int "no live nodes" 0 (Inc.live_nodes g);
  check Alcotest.int "no live edges" 0 (Inc.live_edges g)

let random_edge_pairs_gen =
  QCheck.Gen.(list_size (int_range 0 30) (pair (int_range 1 6) (int_range 1 6)))

let batch_of_pairs pairs =
  let edges =
    List.sort_uniq compare (List.filter (fun (a, b) -> a <> b) pairs)
  in
  Ccdb_serial.Conflict_graph.of_edges ~nodes:[] ~edges

let prop_incremental_matches_batch =
  qtest ~count:500 "incremental verdict matches batch has_cycle"
    (QCheck.make random_edge_pairs_gen)
    (fun pairs ->
      let g = Inc.create () in
      List.iter
        (fun (src, dst) -> ignore (Inc.add_edge g ~src ~dst ~prov))
        pairs;
      Inc.check_deferred g <> None
      = Ccdb_serial.Conflict_graph.has_cycle (batch_of_pairs pairs))

let prop_incremental_witness_closed =
  qtest ~count:500 "every parked-cycle witness is a closed chain"
    (QCheck.make random_edge_pairs_gen)
    (fun pairs ->
      let g = Inc.create () in
      List.for_all
        (fun (src, dst) ->
          match Inc.add_edge g ~src ~dst ~prov with
          | None -> true
          | Some [] -> false
          | Some ((first : Inc.edge) :: _ as w) ->
            first.src = src && first.dst = dst
            &&
            let rec chained = function
              | [ (last : Inc.edge) ] -> last.dst = first.src
              | a :: (b :: _ as rest) -> a.Inc.dst = b.Inc.src && chained rest
              | [] -> false
            in
            chained w)
        pairs)

(* add/remove interleavings: the final verdict must match a batch check of
   the surviving edge multiset, mirrored in a plain hash table *)
let random_edge_ops_gen =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (triple bool (int_range 1 6) (int_range 1 6)))

let prop_incremental_remove_matches_batch =
  qtest ~count:500 "add/remove interleavings match batch on survivors"
    (QCheck.make random_edge_ops_gen)
    (fun ops ->
      let g = Inc.create () in
      let mirror = Hashtbl.create 16 in
      let count k = Option.value ~default:0 (Hashtbl.find_opt mirror k) in
      List.iter
        (fun (is_add, src, dst) ->
          if is_add then begin
            ignore (Inc.add_edge g ~src ~dst ~prov);
            if src <> dst then
              Hashtbl.replace mirror (src, dst) (count (src, dst) + 1)
          end
          else begin
            Inc.remove_edge g ~src ~dst;
            let c = count (src, dst) in
            if c > 0 then Hashtbl.replace mirror (src, dst) (c - 1)
          end)
        ops;
      let survivors =
        Hashtbl.fold (fun k c acc -> if c > 0 then k :: acc else acc) mirror []
      in
      Inc.check_deferred g <> None
      = Ccdb_serial.Conflict_graph.has_cycle (batch_of_pairs survivors))

let test_replica_consistent () =
  let c = Ccdb_storage.Catalog.create ~items:1 ~sites:2 ~replication:2 in
  let s = Ccdb_storage.Store.create c in
  check Alcotest.bool "initially consistent" true
    (Ccdb_serial.Check.replica_consistent s);
  Ccdb_storage.Store.apply_write s ~item:0 ~site:0 ~txn:1 ~value:5 ~at:1.;
  check Alcotest.bool "half-written" false
    (Ccdb_serial.Check.replica_consistent s);
  Ccdb_storage.Store.apply_write s ~item:0 ~site:1 ~txn:1 ~value:5 ~at:2.;
  check Alcotest.bool "both copies" true
    (Ccdb_serial.Check.replica_consistent s)

let test_replica_order_violation () =
  let c = Ccdb_storage.Catalog.create ~items:1 ~sites:2 ~replication:2 in
  let s = Ccdb_storage.Store.create c in
  Ccdb_storage.Store.apply_write s ~item:0 ~site:0 ~txn:1 ~value:1 ~at:1.;
  Ccdb_storage.Store.apply_write s ~item:0 ~site:0 ~txn:2 ~value:2 ~at:2.;
  Ccdb_storage.Store.apply_write s ~item:0 ~site:1 ~txn:2 ~value:2 ~at:1.;
  Ccdb_storage.Store.apply_write s ~item:0 ~site:1 ~txn:1 ~value:1 ~at:2.;
  (* same writes, opposite order, different final values *)
  check Alcotest.bool "order violation" false
    (Ccdb_serial.Check.replica_consistent s)

let suites =
  [ ( "serial.graph",
      [ Alcotest.test_case "edges from log" `Quick test_graph_edges_from_log;
        Alcotest.test_case "reads don't conflict" `Quick test_graph_reads_dont_conflict;
        Alcotest.test_case "no self edges" `Quick test_graph_same_txn_no_self_edge;
        Alcotest.test_case "acyclic" `Quick test_graph_acyclic;
        Alcotest.test_case "cycle witness" `Quick test_graph_cycle;
        Alcotest.test_case "two cycles" `Quick test_graph_two_cycles;
        Alcotest.test_case "isolated node" `Quick test_graph_isolated_node;
        Alcotest.test_case "long log matches reference" `Quick
          test_graph_long_log_matches_reference;
        prop_of_edges_matches_reference;
        prop_builder_reused_matches_reference;
        prop_of_logs_matches_reference ] );
    ( "serial.check",
      [ Alcotest.test_case "serializable verdicts" `Quick test_check_serializable;
        Alcotest.test_case "brute force examples" `Quick test_brute_force_agrees_on_examples;
        Alcotest.test_case "brute force gives up" `Quick test_brute_force_gives_up;
        Alcotest.test_case "replica consistency" `Quick test_replica_consistent;
        Alcotest.test_case "replica order violation" `Quick test_replica_order_violation;
        prop_checker_matches_brute_force;
        prop_topo_respects_edges ] );
    ( "serial.incremental",
      [ Alcotest.test_case "park and dissolve" `Quick
          test_incremental_park_and_dissolve;
        Alcotest.test_case "witness chain" `Quick test_incremental_witness_chain;
        Alcotest.test_case "edge refcount" `Quick test_incremental_refcount;
        Alcotest.test_case "committed-prefix GC" `Quick test_incremental_gc;
        prop_incremental_matches_batch;
        prop_incremental_witness_closed;
        prop_incremental_remove_matches_batch ] ) ]
