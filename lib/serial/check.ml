type logs = (Ccdb_storage.Store.copy * Ccdb_storage.Store.log_entry list) list

let conflict_serializable logs =
  not (Conflict_graph.has_cycle (Conflict_graph.of_logs logs))

let serialization_order logs =
  Conflict_graph.topological_order (Conflict_graph.of_logs logs)

let violation_witness logs =
  Conflict_graph.find_cycle (Conflict_graph.of_logs logs)

(* Decorate a witness cycle with provenance: for each consecutive pair
   (including the wrap-around), the first copy/log position where the
   conflict materializes. *)
let witness_detail logs cycle =
  let find_edge a b =
    let rec scan_copy = function
      | [] -> None
      | ((item, site), entries) :: rest ->
        let rec scan = function
          | [] -> None
          | (e : Ccdb_storage.Store.log_entry) :: tail when e.txn = a -> (
            match
              List.find_opt
                (fun (e' : Ccdb_storage.Store.log_entry) ->
                  e'.txn = b
                  && not
                       (Ccdb_model.Op.equal e.kind Ccdb_model.Op.Read
                       && Ccdb_model.Op.equal e'.kind Ccdb_model.Op.Read))
                tail
            with
            | Some e' ->
              Some
                { Incremental.src = a; dst = b;
                  prov =
                    { Incremental.item; site; from_op = e.kind;
                      to_op = e'.kind } }
            | None -> scan tail)
          | _ :: tail -> scan tail
        in
        (match scan entries with
         | Some e -> Some e
         | None -> scan_copy rest)
    in
    scan_copy logs
  in
  match cycle with
  | [] -> []
  | first :: _ ->
    let rec pairs = function
      | [] -> []
      | [ last ] -> [ (last, first) ]
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    in
    List.filter_map (fun (a, b) -> find_edge a b) (pairs cycle)

(* Ordered conflicting pairs (ti, tj): ti's op precedes tj's conflicting op
   in some log. *)
let conflict_pairs logs =
  let g = Conflict_graph.of_logs logs in
  Conflict_graph.edges g

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun perm -> x :: perm) (permutations rest))
      l

let brute_force_serializable logs =
  let g = Conflict_graph.of_logs logs in
  let txns = Conflict_graph.nodes g in
  if List.length txns > 8 then None
  else begin
    let pairs = conflict_pairs logs in
    let respects perm =
      let pos = Hashtbl.create 16 in
      List.iteri (fun i t -> Hashtbl.replace pos t i) perm;
      List.for_all
        (fun (a, b) -> Hashtbl.find pos a < Hashtbl.find pos b)
        pairs
    in
    Some (List.exists respects (permutations txns))
  end

let replica_consistent store =
  let catalog = Ccdb_storage.Store.catalog store in
  let items = Ccdb_storage.Catalog.items catalog in
  let write_sequence item site =
    Ccdb_storage.Store.log store ~item ~site
    |> List.filter_map (fun (e : Ccdb_storage.Store.log_entry) ->
           match e.kind with
           | Ccdb_model.Op.Write -> Some e.txn
           | Ccdb_model.Op.Read -> None)
  in
  let item_ok item =
    match Ccdb_storage.Catalog.copies catalog item with
    | [] -> true
    | first :: rest ->
      let ref_seq = write_sequence item first in
      let ref_val = Ccdb_storage.Store.read store ~item ~site:first in
      List.for_all
        (fun site ->
          write_sequence item site = ref_seq
          && Ccdb_storage.Store.read store ~item ~site = ref_val)
        rest
  in
  let rec all_items i = i >= items || (item_ok i && all_items (i + 1)) in
  all_items 0
