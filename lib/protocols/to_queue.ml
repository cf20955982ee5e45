type verdict = Accepted | Rejected | Ignored

type performed = {
  txn : int;
  ts : int;
  op : Ccdb_model.Op.kind;
  value : int option;
}

type entry = {
  e_txn : int;
  e_ts : int;
  e_op : Ccdb_model.Op.kind;
  mutable e_value : int option; (* committed value of a prewrite *)
}

(* The [index] is only looked up, never iterated, so the key is its own
   hash. *)
module Index = Ccdb_util.Lookup_tbl.Int

(* The [(txn, op)] index mirrors the pending list: the duplicate-request
   guard, [commit_write] and [abort] become hash probes instead of scans of
   every pending entry.  At most one entry per key exists (the guard
   enforces it), so plain add/remove keeps the two in sync.  [key] packs
   [(txn, op)] into one int. *)
type t = {
  thomas_write_rule : bool;
  mutable entries : entry list; (* pending only, sorted by timestamp *)
  index : entry Index.t;
  mutable r_ts : int;
  mutable w_ts : int;
}

let create ?(thomas_write_rule = false) () =
  { thomas_write_rule; entries = []; index = Index.create 16;
    r_ts = -1; w_ts = -1 }

let key txn (op : Ccdb_model.Op.kind) =
  (2 * txn) + match op with Ccdb_model.Op.Read -> 0 | Ccdb_model.Op.Write -> 1

let r_ts t = t.r_ts
let w_ts t = t.w_ts

let insert_sorted entries e =
  let rec go = function
    | [] -> [ e ]
    | x :: rest -> if e.e_ts < x.e_ts then e :: x :: rest else x :: go rest
  in
  go entries

let request t ~txn ~ts ~op =
  if Index.mem t.index (key txn op) then
    invalid_arg "To_queue.request: duplicate request";
  let verdict =
    match op with
    | Ccdb_model.Op.Read -> if ts <= t.w_ts then Rejected else Accepted
    | Ccdb_model.Op.Write ->
      if ts <= t.r_ts then Rejected
      else if ts <= t.w_ts then
        if t.thomas_write_rule then Ignored else Rejected
      else Accepted
  in
  if verdict <> Accepted then verdict
  else begin
    let e = { e_txn = txn; e_ts = ts; e_op = op; e_value = None } in
    t.entries <- insert_sorted t.entries e;
    Index.add t.index (key txn op) e;
    Accepted
  end

let commit_write t ~txn ~value =
  match Index.find_opt t.index (key txn Ccdb_model.Op.Write) with
  | Some e -> e.e_value <- Some value
  | None -> ()

let abort t ~txn =
  Index.remove t.index (key txn Ccdb_model.Op.Read);
  Index.remove t.index (key txn Ccdb_model.Op.Write);
  t.entries <- List.filter (fun e -> e.e_txn <> txn) t.entries

let wipe_reads t =
  let dropped, kept =
    List.partition
      (fun e -> Ccdb_model.Op.equal e.e_op Ccdb_model.Op.Read)
      t.entries
  in
  t.entries <- kept;
  List.iter
    (fun e -> Index.remove t.index (key e.e_txn e.e_op))
    dropped;
  List.map (fun e -> e.e_txn) dropped

let perform_ready t =
  let performed = ref [] in
  (* one pass in timestamp order: an entry can perform only if nothing kept
     so far blocks it, so performing earlier entries can enable later ones
     within the same pass *)
  let rec scan kept_write kept_any = function
    | [] -> []
    | e :: rest ->
      let performable =
        match e.e_op with
        | Ccdb_model.Op.Read -> not kept_write
        | Ccdb_model.Op.Write -> (not kept_any) && Option.is_some e.e_value
      in
      if performable then begin
        (match e.e_op with
         | Ccdb_model.Op.Read -> t.r_ts <- Int.max t.r_ts e.e_ts
         | Ccdb_model.Op.Write -> t.w_ts <- Int.max t.w_ts e.e_ts);
        Index.remove t.index (key e.e_txn e.e_op);
        performed :=
          { txn = e.e_txn; ts = e.e_ts; op = e.e_op; value = e.e_value }
          :: !performed;
        scan kept_write kept_any rest
      end
      else
        e
        :: scan
             (kept_write || Ccdb_model.Op.equal e.e_op Ccdb_model.Op.Write)
             true rest
  in
  t.entries <- scan false false t.entries;
  List.rev !performed

let pending t = List.length t.entries
