type 'a t = {
  catalog : Catalog.t;
  make : unit -> 'a;
  slots : 'a option array; (* by copy id *)
}

let create catalog make =
  { catalog; make; slots = Array.make (Catalog.copy_count catalog) None }

let find t ~item ~site = t.slots.(Catalog.copy_id t.catalog ~item ~site)

let get t ~item ~site =
  let id = Catalog.copy_id t.catalog ~item ~site in
  match t.slots.(id) with
  | Some x -> x
  | None ->
    let x = t.make () in
    t.slots.(id) <- Some x;
    x

let fold f t acc =
  let acc = ref acc in
  let r = Catalog.replication t.catalog in
  for item = 0 to Catalog.items t.catalog - 1 do
    for id = item * r to (item * r) + r - 1 do
      match t.slots.(id) with
      | Some x -> acc := f ~item ~site:(Catalog.copy_site t.catalog id) x !acc
      | None -> ()
    done
  done;
  !acc

(* The items with a copy at [site] are those congruent to [site - k]
   modulo [sites] for some copy index [k < replication]: walk them block
   of [sites] items by block, each block's residues in ascending order. *)
let iter_site t site f =
  let c = t.catalog in
  let items = Catalog.items c and sites = Catalog.sites c in
  let r = Catalog.replication c in
  if site < 0 || site >= sites then
    invalid_arg "Copy_table.iter_site: bad site";
  let residue k = (((site - k) mod sites) + sites) mod sites in
  let ks =
    List.sort
      (fun a b -> Int.compare (residue a) (residue b))
      (List.init r Fun.id)
  in
  let base = ref 0 in
  while !base < items do
    List.iter
      (fun k ->
        let item = !base + residue k in
        if item < items then
          match t.slots.((item * r) + k) with
          | Some x -> f item x
          | None -> ())
      ks;
    base := !base + sites
  done
