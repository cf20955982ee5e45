type t = {
  id : int;
  site : int;
  read_set : int list;
  write_set : int list;
  compute_time : float;
  protocol : Protocol.t;
}

let normalise items = List.sort_uniq Int.compare items

let make ~id ~site ~read_set ~write_set ~compute_time ~protocol =
  if compute_time < 0. then invalid_arg "Txn.make: negative compute_time";
  let write_set = normalise write_set in
  let read_set =
    List.filter (fun i -> not (List.mem i write_set)) (normalise read_set)
  in
  if read_set = [] && write_set = [] then
    invalid_arg "Txn.make: empty access sets";
  List.iter
    (fun i -> if i < 0 then invalid_arg "Txn.make: negative item id")
    (read_set @ write_set);
  { id; site; read_set; write_set; compute_time; protocol }

let size t = List.length t.read_set + List.length t.write_set

let accesses t =
  List.map (fun i -> (i, Op.Read)) t.read_set
  @ List.map (fun i -> (i, Op.Write)) t.write_set

let pp ppf t =
  let pp_items = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') Format.pp_print_int in
  Format.fprintf ppf "t%d@@s%d[%a] r{%a} w{%a}" t.id t.site Protocol.pp
    t.protocol pp_items t.read_set pp_items t.write_set
