type copy = int * int

type log_entry = { txn : int; kind : Ccdb_model.Op.kind; at : float }

type cell = {
  mutable value : int;
  mutable log : log_entry list; (* newest first *)
}

(* Cells are created on a copy's first write or logged read; a copy never
   touched reads as the initial version, so a huge catalog costs nothing
   until its copies are used. *)
type t = {
  catalog : Catalog.t;
  cells : cell Copy_table.t;
  mutable append_obs : (item:int -> site:int -> log_entry -> unit) list;
      (* newest first *)
  mutable discard_obs :
    (item:int -> site:int -> txn:int -> removed:int -> unit) list;
}

let create catalog =
  { catalog;
    cells = Copy_table.create catalog (fun () -> { value = 0; log = [] });
    append_obs = []; discard_obs = [] }

let on_append t f = t.append_obs <- f :: t.append_obs
let on_discard t f = t.discard_obs <- f :: t.discard_obs

let catalog t = t.catalog

let no_copy () = invalid_arg "Store: no such physical copy"

let cell t ~item ~site =
  match Copy_table.get t.cells ~item ~site with
  | c -> c
  | exception Invalid_argument _ -> no_copy ()

let find_cell t ~item ~site =
  match Copy_table.find t.cells ~item ~site with
  | c -> c
  | exception Invalid_argument _ -> no_copy ()

let read t ~item ~site =
  match find_cell t ~item ~site with Some c -> c.value | None -> 0

(* Calls each observer in turn, with no closure or copy pair per append. *)
let rec notify_append ~item ~site entry = function
  | [] -> ()
  | f :: rest ->
    f ~item ~site entry;
    notify_append ~item ~site entry rest

let apply_write t ~item ~site ~txn ~value ~at =
  let c = cell t ~item ~site in
  c.value <- value;
  let entry = { txn; kind = Ccdb_model.Op.Write; at } in
  c.log <- entry :: c.log;
  notify_append ~item ~site entry t.append_obs

let log_read t ~item ~site ~txn ~at =
  let c = cell t ~item ~site in
  let entry = { txn; kind = Ccdb_model.Op.Read; at } in
  c.log <- entry :: c.log;
  notify_append ~item ~site entry t.append_obs

let discard_reads t ~item ~site ~txn =
  match find_cell t ~item ~site with
  | None -> ()
  | Some c ->
    let before = List.length c.log in
    c.log <-
      List.filter
        (fun e ->
          not
            (e.txn = txn
             && match e.kind with
                | Ccdb_model.Op.Read -> true
                | Ccdb_model.Op.Write -> false))
        c.log;
    let removed = before - List.length c.log in
    if removed > 0 then
      List.iter (fun f -> f ~item ~site ~txn ~removed) t.discard_obs

let log t ~item ~site =
  match find_cell t ~item ~site with Some c -> List.rev c.log | None -> []

let logs t =
  Catalog.all_copies t.catalog
  |> List.map (fun (item, site) -> ((item, site), log t ~item ~site))
