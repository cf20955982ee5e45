type read_result = Value of int | Wait

type write_verdict = W_accepted | W_rejected

type version = {
  v_txn : int;
  v_ts : int;
  mutable v_value : int option; (* None until committed *)
  mutable v_committed : bool;
  mutable v_max_read_ts : int;  (* largest read that observed this version *)
}

type parked = { p_txn : int; p_ts : int }

type t = {
  mutable versions : version list; (* sorted by v_ts, oldest first *)
  mutable parked : parked list;    (* reads waiting on uncommitted versions *)
}

let create () =
  { versions =
      [ { v_txn = -1; v_ts = 0; v_value = Some 0; v_committed = true;
          v_max_read_ts = -1 } ];
    parked = [] }

(* the version a read at [ts] must observe: largest v_ts <= ts *)
let governing t ~ts =
  let rec best acc = function
    | [] -> acc
    | v :: rest -> if v.v_ts <= ts then best (Some v) rest else acc
  in
  match best None t.versions with
  | Some v -> v
  | None -> assert false (* the initial version has ts 0 *)

let try_read t ~ts =
  let v = governing t ~ts in
  if v.v_committed then begin
    v.v_max_read_ts <- Int.max v.v_max_read_ts ts;
    match v.v_value with Some value -> Some value | None -> assert false
  end
  else None

let read t ~txn ~ts =
  match try_read t ~ts with
  | Some value -> Value value
  | None ->
    t.parked <- { p_txn = txn; p_ts = ts } :: t.parked;
    Wait

let prewrite t ~txn ~ts =
  (* illegal iff the previous version has been read by someone the new
     version should have served: wts_prev < ts < rts *)
  let prev = governing t ~ts in
  if prev.v_max_read_ts > ts then W_rejected
  else begin
    let v =
      { v_txn = txn; v_ts = ts; v_value = None; v_committed = false;
        v_max_read_ts = -1 }
    in
    let rec insert = function
      | [] -> [ v ]
      | x :: rest -> if x.v_ts <= v.v_ts then x :: insert rest else v :: x :: rest
    in
    t.versions <- insert t.versions;
    W_accepted
  end

let commit_write t ~txn ~value =
  List.iter
    (fun v ->
      if v.v_txn = txn && not v.v_committed then begin
        v.v_value <- Some value;
        v.v_committed <- true
      end)
    t.versions

let abort t ~txn =
  t.versions <-
    List.filter (fun v -> not (v.v_txn = txn && not v.v_committed)) t.versions;
  t.parked <- List.filter (fun p -> p.p_txn <> txn) t.parked

let wipe_parked t =
  let dropped = List.rev t.parked in
  t.parked <- [];
  List.map (fun p -> p.p_txn) dropped

let drain_reads t =
  let ready, still =
    List.partition_map
      (fun p ->
        match try_read t ~ts:p.p_ts with
        | Some value -> Either.Left (p.p_txn, p.p_ts, value)
        | None -> Either.Right p)
      t.parked
  in
  t.parked <- still;
  List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b) ready

let latest_committed t =
  List.fold_left
    (fun (ts, value) v ->
      if v.v_committed && v.v_ts >= ts then
        (v.v_ts, Option.value ~default:value v.v_value)
      else (ts, value))
    (0, 0) t.versions

let versions t = List.map (fun v -> (v.v_ts, v.v_value, v.v_committed)) t.versions
