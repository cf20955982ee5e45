type t = {
  items : int;
  sites : int;
  replication : int;
  placement : int list array; (* item -> sorted sites *)
  first_site : int array; (* item -> site of its copy 0, [item mod sites] *)
  copy_sites : int array; (* copy id -> site *)
}

let create ~items ~sites ~replication =
  if items <= 0 then invalid_arg "Catalog.create: items <= 0";
  if sites <= 0 then invalid_arg "Catalog.create: sites <= 0";
  if replication <= 0 || replication > sites then
    invalid_arg "Catalog.create: replication out of range";
  let placement =
    Array.init items (fun item ->
        List.init replication (fun k -> (item + k) mod sites)
        |> List.sort_uniq Int.compare)
  in
  let first_site = Array.init items (fun item -> item mod sites) in
  let copy_sites =
    Array.init (items * replication) (fun id ->
        (first_site.(id / replication) + (id mod replication)) mod sites)
  in
  { items; sites; replication; placement; first_site; copy_sites }

let items t = t.items
let sites t = t.sites
let replication t = t.replication

let copies t item =
  if item < 0 || item >= t.items then invalid_arg "Catalog.copies: bad item";
  t.placement.(item)

let copy_count t = t.items * t.replication

(* The [k]-th copy of [item] (k < replication) sits at site
   [(item + k) mod sites], so a site holds a copy exactly when
   [(site - item) mod sites < replication], and [item * replication + k]
   numbers the copies densely.  -1 marks a non-copy.  Both residues are
   tabled at [create] ([first_site], [copy_sites]: items and copies, never
   items times sites), so a lookup divides nothing. *)
let copy_index t ~item ~site =
  if item < 0 || item >= t.items || site < 0 || site >= t.sites then -1
  else begin
    let k = site - t.first_site.(item) in
    let k = if k < 0 then k + t.sites else k in
    if k < t.replication then (item * t.replication) + k else -1
  end

let copy_id t ~item ~site =
  let id = copy_index t ~item ~site in
  if id < 0 then invalid_arg "Catalog.copy_id: no such physical copy";
  id

let copy_site t id = t.copy_sites.(id)

let has_copy t ~item ~site =
  if item < 0 || item >= t.items then invalid_arg "Catalog.copies: bad item";
  copy_index t ~item ~site >= 0

let read_site t ~preferred item =
  let sites = copies t item in
  if copy_index t ~item ~site:preferred >= 0 then preferred
  else
    (* first copy at or after [preferred], cyclically *)
    match List.find_opt (fun s -> s > preferred) sites with
    | Some s -> s
    | None -> List.hd sites

let read_copies t ~site read_set =
  List.map (fun item -> (item, read_site t ~preferred:site item)) read_set

let write_copies t write_set =
  List.concat_map
    (fun item -> List.map (fun s -> (item, s)) (copies t item))
    write_set

let footprint t ~site ~read_set ~write_set =
  let reads =
    List.map
      (fun item -> (item, read_site t ~preferred:site item, Ccdb_model.Op.Read))
      read_set
  in
  let writes =
    List.concat_map
      (fun item ->
        List.map (fun s -> (item, s, Ccdb_model.Op.Write)) (copies t item))
      write_set
  in
  reads @ writes

let all_copies t =
  List.concat
    (List.init t.items (fun item ->
         List.map (fun site -> (item, site)) t.placement.(item)))
