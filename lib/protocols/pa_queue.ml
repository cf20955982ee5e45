type response = Accepted | Backoff of int

type entry = {
  txn : int;
  site : int;
  op : Ccdb_model.Op.kind;
  mutable ts : int;
  mutable blocked : bool;
  mutable granted : bool;
  mutable granted_at : float;
}

type t = {
  mutable entries : entry list; (* sorted by precedence *)
  mutable r_released : int;     (* high-water marks of released entries *)
  mutable w_released : int;
}

let create () = { entries = []; r_released = -1; w_released = -1 }

let precedence e = Ccdb_model.Precedence.timestamped ~ts:e.ts ~site:e.site ~txn:e.txn

let compare_entries a b = Ccdb_model.Precedence.compare (precedence a) (precedence b)

let sort t = t.entries <- List.stable_sort compare_entries t.entries

let granted_max t op =
  List.fold_left
    (fun acc e ->
      if e.granted && Ccdb_model.Op.equal e.op op then Int.max acc e.ts
      else acc)
    (-1) t.entries

let r_ts t = Int.max t.r_released (granted_max t Ccdb_model.Op.Read)
let w_ts t = Int.max t.w_released (granted_max t Ccdb_model.Op.Write)

let request t ~txn ~site ~ts ~op =
  if List.exists (fun e -> e.txn = txn) t.entries then
    invalid_arg "Pa_queue.request: duplicate request";
  let floor =
    match op with
    | Ccdb_model.Op.Read -> w_ts t
    | Ccdb_model.Op.Write -> Int.max (w_ts t) (r_ts t)
  in
  let entry =
    { txn; site; op; ts; blocked = false; granted = false;
      granted_at = 0. }
  in
  let response =
    if ts > floor then Accepted
    else begin
      let ts' = Ccdb_model.Timestamp.backoff ~ts ~floor in
      entry.ts <- ts';
      entry.blocked <- true;
      Backoff ts'
    end
  in
  t.entries <- t.entries @ [ entry ];
  sort t;
  response

let update_ts t ~txn ~ts =
  match List.find_opt (fun e -> e.txn = txn) t.entries with
  | None -> `Absent
  | Some e ->
    let revoked = e.granted in
    e.ts <- ts;
    e.blocked <- false;
    e.granted <- false;
    sort t;
    if revoked then `Revoked else `Moved

let grant_ready t ~now =
  let newly = ref [] in
  (* HD discipline: walk the queue in precedence order past granted entries;
     grant the frontier entry while the lock rules allow, stop at the first
     entry that must keep waiting. *)
  let rec scan earlier_any earlier_write = function
    | [] -> ()
    | e :: rest ->
      if e.granted then
        scan true (earlier_write || Ccdb_model.Op.equal e.op Ccdb_model.Op.Write) rest
      else if e.blocked then ()
      else begin
        let grantable =
          match e.op with
          | Ccdb_model.Op.Read -> not earlier_write
          | Ccdb_model.Op.Write -> not earlier_any
        in
        if grantable then begin
          e.granted <- true;
          e.granted_at <- now;
          newly := e :: !newly;
          scan true (earlier_write || Ccdb_model.Op.equal e.op Ccdb_model.Op.Write) rest
        end
      end
  in
  scan false false t.entries;
  List.rev !newly

let release t ~txn =
  match List.find_opt (fun e -> e.txn = txn) t.entries with
  | None -> None
  | Some e ->
    t.entries <- List.filter (fun e' -> e'.txn <> txn) t.entries;
    (match e.op with
     | Ccdb_model.Op.Read -> t.r_released <- Int.max t.r_released e.ts
     | Ccdb_model.Op.Write -> t.w_released <- Int.max t.w_released e.ts);
    Some e

let entries t = t.entries
