type response = Accepted | Rejected | Backoff of int

type entry = {
  txn : int;
  site : int;
  protocol : Ccdb_model.Protocol.t;
  op : Ccdb_model.Op.kind;
  epoch : int;
  mutable prec : Ccdb_model.Precedence.t;
  mutable blocked : bool;
  mutable lock : Ccdb_model.Lock.mode option;
  mutable schedule : Ccdb_model.Lock.schedule;
  mutable grant_seq : int;
  mutable granted_at : float;
  mutable implemented : bool;
}

(* The hot paths this queue sits on run once per request, grant and release
   of every simulated lock, so none of them allocates beyond the request's
   entry:

   - [order]: the entries in precedence order in [0, size), [vacant]
     beyond.  A request shifts the entries that follow it up one place
     (it lands at or near the tail, so it shifts few or none), and a
     removal shifts the rest down: no cell is allocated.  A queue holds
     only the transactions in flight at one copy, a handful, so the
     by-txn lookups ([update_ts], [transform], [release], [abort]) scan
     it rather than keep a table;
   - [reports]: the last operation's grants or promotions, read by the
     caller before its next call; slots past [n_reports] may still hold
     entries that left, until the buffer is overwritten;
   - [n_rl]/[n_wl]/[n_srl]/[n_swl]: how many entries currently hold a lock
     of each mode.  Only ungranted entries are ever probed by
     [grant_check], and a transaction has at most one entry here, so these
     counts are exactly the "locks held by other transactions" the
     semi-lock rules test — each rule becomes a counter comparison instead
     of rebuilding the held-lock list;
   - [granted_r]/[granted_w]: cached maxima of [prec.ts] over currently
     granted reads (resp. writes), replacing the full fold the old
     [granted_max] ran on every timestamped request.  The caches grow
     monotonically at grant time and only go stale when a granted entry
     leaves without advancing the released high-water mark (an abort or a
     PA timestamp revocation) — the dirty flags force a recompute on the
     next [r_ts]/[w_ts] read, so the observable values never change. *)
type t = {
  semi_locks : bool;
  mutable order : entry array;
  mutable size : int;
  mutable reports : entry array;
  mutable n_reports : int;
  mutable max_ts_seen : int;    (* biggest timestamp ever in this queue *)
  mutable arrival_counter : int;
  mutable grant_counter : int;
  mutable r_released : int;     (* high-water marks of released entries *)
  mutable w_released : int;
  mutable n_rl : int;           (* held locks by mode *)
  mutable n_wl : int;
  mutable n_srl : int;
  mutable n_swl : int;
  mutable granted_r : int;      (* cached granted-ts maxima + dirty flags *)
  mutable granted_w : int;
  mutable granted_r_dirty : bool;
  mutable granted_w_dirty : bool;
}

(* fills the unused slots of [order] and [reports] *)
let vacant =
  { txn = -1; site = -1; protocol = Ccdb_model.Protocol.Two_pl;
    op = Ccdb_model.Op.Read; epoch = 0;
    prec = Ccdb_model.Precedence.queue_local ~ts:(-1) ~arrival:(-1);
    blocked = false; lock = None; schedule = Ccdb_model.Lock.Normal;
    grant_seq = -1; granted_at = 0.; implemented = false }

let create ?(semi_locks = true) () =
  { semi_locks; order = [||]; size = 0;
    reports = [||]; n_reports = 0; max_ts_seen = 0;
    arrival_counter = 0; grant_counter = 0; r_released = -1; w_released = -1;
    n_rl = 0; n_wl = 0; n_srl = 0; n_swl = 0;
    granted_r = -1; granted_w = -1;
    granted_r_dirty = false; granted_w_dirty = false }

let grow a =
  let a' = Array.make (Int.max 4 (2 * Array.length a)) vacant in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let compare_entries a b = Ccdb_model.Precedence.compare a.prec b.prec

(* Precedence is a total order over distinct entries (timestamp, then
   origin, then site/txn or arrival), so inserting after the last entry
   that precedes [e] reproduces exactly what appending and running
   [List.stable_sort] used to produce.  The walk starts at the tail, where
   a 2PL request always lands. *)
let insert t e =
  if t.size = Array.length t.order then t.order <- grow t.order;
  let i = ref t.size in
  while !i > 0 && compare_entries e t.order.(!i - 1) < 0 do
    t.order.(!i) <- t.order.(!i - 1);
    decr i
  done;
  t.order.(!i) <- e;
  t.size <- t.size + 1

(* The position of [txn]'s entry in [order], [size] when it has none. *)
let position t txn =
  let i = ref 0 in
  while !i < t.size && t.order.(!i).txn <> txn do
    incr i
  done;
  !i

let delete_at t i =
  let last = t.size - 1 in
  Array.blit t.order (i + 1) t.order i (last - i);
  t.order.(last) <- vacant;
  t.size <- last

let find t txn =
  let i = position t txn in
  if i = t.size then raise Not_found;
  t.order.(i)

let push_report t e =
  if t.n_reports = Array.length t.reports then t.reports <- grow t.reports;
  t.reports.(t.n_reports) <- e;
  t.n_reports <- t.n_reports + 1

let reports t = t.n_reports

let report t i =
  if i < 0 || i >= t.n_reports then invalid_arg "Semi_lock_queue.report";
  t.reports.(i)

let count_held t delta mode =
  match (mode : Ccdb_model.Lock.mode) with
  | Ccdb_model.Lock.Rl -> t.n_rl <- t.n_rl + delta
  | Ccdb_model.Lock.Wl -> t.n_wl <- t.n_wl + delta
  | Ccdb_model.Lock.Srl -> t.n_srl <- t.n_srl + delta
  | Ccdb_model.Lock.Swl -> t.n_swl <- t.n_swl + delta

(* The held-lock options, built once: taking a lock allocates nothing. *)
let some_rl = Some Ccdb_model.Lock.Rl
let some_wl = Some Ccdb_model.Lock.Wl
let some_srl = Some Ccdb_model.Lock.Srl
let some_swl = Some Ccdb_model.Lock.Swl

let held (mode : Ccdb_model.Lock.mode) =
  match mode with
  | Ccdb_model.Lock.Rl -> some_rl
  | Ccdb_model.Lock.Wl -> some_wl
  | Ccdb_model.Lock.Srl -> some_srl
  | Ccdb_model.Lock.Swl -> some_swl

let recompute_granted t op =
  let acc = ref (-1) in
  for i = 0 to t.size - 1 do
    let e = t.order.(i) in
    if Option.is_some e.lock && Ccdb_model.Op.equal e.op op then
      acc := Int.max !acc e.prec.Ccdb_model.Precedence.ts
  done;
  !acc

let r_ts t =
  if t.granted_r_dirty then begin
    t.granted_r <- recompute_granted t Ccdb_model.Op.Read;
    t.granted_r_dirty <- false
  end;
  Int.max t.r_released t.granted_r

let w_ts t =
  if t.granted_w_dirty then begin
    t.granted_w <- recompute_granted t Ccdb_model.Op.Write;
    t.granted_w_dirty <- false
  end;
  Int.max t.w_released t.granted_w

let note_granted t (e : entry) =
  let ts = e.prec.Ccdb_model.Precedence.ts in
  match e.op with
  | Ccdb_model.Op.Read ->
    if not t.granted_r_dirty then t.granted_r <- Int.max t.granted_r ts
  | Ccdb_model.Op.Write ->
    if not t.granted_w_dirty then t.granted_w <- Int.max t.granted_w ts

let note_ungranted t (e : entry) =
  (* a granted entry left without its timestamp being folded into the
     released high-water mark: the cached granted maximum may overstate *)
  match e.op with
  | Ccdb_model.Op.Read -> t.granted_r_dirty <- true
  | Ccdb_model.Op.Write -> t.granted_w_dirty <- true

let admit t ~txn ~site ~protocol ~epoch ~op prec ~blocked =
  let e =
    { txn; site; protocol; op; epoch; prec; blocked; lock = None;
      schedule = Ccdb_model.Lock.Normal; grant_seq = -1; granted_at = 0.;
      implemented = false }
  in
  insert t e

let admit_ts t ~txn ~site ~protocol ~epoch ~op ts ~blocked =
  t.max_ts_seen <- Int.max t.max_ts_seen ts;
  admit t ~txn ~site ~protocol ~epoch ~op ~blocked
    (Ccdb_model.Precedence.timestamped ~ts ~site ~txn)

let request t ~txn ~site ~protocol ~ts ~epoch ~op =
  if position t txn < t.size then
    invalid_arg "Semi_lock_queue.request: duplicate request";
  match protocol, ts with
  | Ccdb_model.Protocol.Two_pl, None ->
    (* 2PL precedence: the biggest timestamp ever seen here, tail position *)
    let prec =
      Ccdb_model.Precedence.queue_local ~ts:t.max_ts_seen
        ~arrival:t.arrival_counter
    in
    t.arrival_counter <- t.arrival_counter + 1;
    admit t ~txn ~site ~protocol ~epoch ~op prec ~blocked:false;
    Accepted
  | (Ccdb_model.Protocol.T_o | Ccdb_model.Protocol.Pa), Some ts ->
    let floor =
      match op with
      | Ccdb_model.Op.Read -> w_ts t
      | Ccdb_model.Op.Write -> Int.max (w_ts t) (r_ts t)
    in
    if ts > floor then begin
      admit_ts t ~txn ~site ~protocol ~epoch ~op ts ~blocked:false;
      Accepted
    end
    else begin
      match protocol with
      | Ccdb_model.Protocol.T_o -> Rejected
      | Ccdb_model.Protocol.Pa ->
        let ts' = Ccdb_model.Timestamp.backoff ~ts ~floor in
        admit_ts t ~txn ~site ~protocol ~epoch ~op ts' ~blocked:true;
        Backoff ts'
      | Ccdb_model.Protocol.Two_pl -> assert false
    end
  | Ccdb_model.Protocol.Two_pl, Some _ ->
    invalid_arg "Semi_lock_queue.request: 2PL requests carry no timestamp"
  | (Ccdb_model.Protocol.T_o | Ccdb_model.Protocol.Pa), None ->
    invalid_arg "Semi_lock_queue.request: timestamped protocol needs a ts"

let update_ts t ~txn ~ts =
  let i = position t txn in
  if i = t.size then `Absent
  else begin
    let e = t.order.(i) in
    let revoked = Option.is_some e.lock in
    (match e.lock with
     | Some mode ->
       count_held t (-1) mode;
       note_ungranted t e
     | None -> ());
    t.max_ts_seen <- Int.max t.max_ts_seen ts;
    delete_at t i;
    e.prec <-
      Ccdb_model.Precedence.timestamped ~ts ~site:e.site ~txn:e.txn;
    e.blocked <- false;
    e.lock <- None;
    e.schedule <- Ccdb_model.Lock.Normal;
    e.grant_seq <- -1;
    insert t e;
    if revoked then `Revoked else `Moved
  end

let lock_mode_for t (e : entry) =
  (* the lock mode this entry would be granted, per protocol and queue mode *)
  match e.protocol, e.op with
  | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Read ->
    Ccdb_model.Lock.Rl
  | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Write ->
    Ccdb_model.Lock.Wl
  | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Read ->
    if t.semi_locks then Ccdb_model.Lock.Srl else Ccdb_model.Lock.Rl
  | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Write -> Ccdb_model.Lock.Wl

(* May [e] be granted now, given the currently held locks?  Returns the
   grant's schedule when allowed.  [e] is ungranted and a transaction has
   at most one entry per queue, so the held-mode counters are exactly the
   locks held by other transactions. *)
let grant_check t (e : entry) =
  let held_any = t.n_rl + t.n_wl + t.n_srl + t.n_swl > 0 in
  let to_semi_rules =
    (* semi-lock grant rules, section 4.2 rule 2 *)
    match e.protocol, e.op with
    | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Read ->
      (* RL once no WL or SWL is held *)
      if t.n_wl + t.n_swl > 0 then None else Some Ccdb_model.Lock.Normal
    | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Write ->
      (* WL once nothing is held *)
      if held_any then None else Some Ccdb_model.Lock.Normal
    | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Read ->
      (* SRL once no plain WL is held; pre-scheduled under a held SWL *)
      if t.n_wl > 0 then None
      else if t.n_swl > 0 then Some Ccdb_model.Lock.Pre_scheduled
      else Some Ccdb_model.Lock.Normal
    | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Write ->
      (* WL once no RL and no WL held; pre-scheduled under held SRL/SWL *)
      if t.n_rl + t.n_wl > 0 then None
      else if t.n_srl + t.n_swl > 0 then Some Ccdb_model.Lock.Pre_scheduled
      else Some Ccdb_model.Lock.Normal
  in
  let full_lock_rules =
    (* the paper's simple alternative: everything locks like 2PL/PA *)
    match e.op with
    | Ccdb_model.Op.Read ->
      if t.n_wl + t.n_swl > 0 then None else Some Ccdb_model.Lock.Normal
    | Ccdb_model.Op.Write ->
      if held_any then None else Some Ccdb_model.Lock.Normal
  in
  if t.semi_locks then to_semi_rules else full_lock_rules

let grant_ready t ~now =
  t.n_reports <- 0;
  (* HD discipline: walk in precedence order past granted entries; grant the
     frontier while possible, stop at the first entry that keeps waiting. *)
  let i = ref 0 and frontier = ref true in
  while !frontier && !i < t.size do
    let e = t.order.(!i) in
    if Option.is_none e.lock then begin
      if e.blocked then frontier := false
      else
        match grant_check t e with
        | None -> frontier := false
        | Some schedule ->
          let mode = lock_mode_for t e in
          e.lock <- held mode;
          count_held t 1 mode;
          note_granted t e;
          e.schedule <- schedule;
          e.grant_seq <- t.grant_counter;
          t.grant_counter <- t.grant_counter + 1;
          e.granted_at <- now;
          push_report t e
    end;
    incr i
  done

let transform t ~txn =
  let e = find t txn in
  (match e.lock with
   | Some mode ->
     let semi = Ccdb_model.Lock.to_semi mode in
     count_held t (-1) mode;
     count_held t 1 semi;
     e.lock <- held semi
   | None -> ());
  e

(* Is a lock of another transaction that conflicts with [e]'s lock [m]
   granted before it, at position [i] or later? *)
let rec conflicting_grant_from t (e : entry) m i =
  i < t.size
  && ((let e' = t.order.(i) in
       match e'.lock with
       | Some m' ->
         e'.txn <> e.txn && e'.grant_seq >= 0 && e'.grant_seq < e.grant_seq
         && Ccdb_model.Lock.conflicts m' m
       | None -> false)
      || conflicting_grant_from t e m (i + 1))

(* Reports the pre-scheduled locks whose earlier conflicting grants are
   now all gone, and makes them normal. *)
let promote t =
  t.n_reports <- 0;
  for i = 0 to t.size - 1 do
    let e = t.order.(i) in
    match e.lock with
    | Some m
      when Ccdb_model.Lock.schedule_equal e.schedule
             Ccdb_model.Lock.Pre_scheduled
           && not (conflicting_grant_from t e m 0) ->
      e.schedule <- Ccdb_model.Lock.Normal;
      push_report t e
    | Some _ | None -> ()
  done

let remove t ~txn ~advance_hwm =
  let i = position t txn in
  if i = t.size then raise Not_found;
  let e = t.order.(i) in
  delete_at t i;
  (match e.lock with
   | Some mode ->
     count_held t (-1) mode;
     (* a release folds the departing timestamp into the released
        high-water mark below, so the cached granted maximum cannot
        overstate; an abort does not, hence the dirty flag *)
     if not advance_hwm then note_ungranted t e
   | None -> ());
  if advance_hwm then begin
    let ts = e.prec.Ccdb_model.Precedence.ts in
    match e.op with
    | Ccdb_model.Op.Read -> t.r_released <- Int.max t.r_released ts
    | Ccdb_model.Op.Write -> t.w_released <- Int.max t.w_released ts
  end;
  promote t;
  e

let release t ~txn = remove t ~txn ~advance_hwm:true
let abort t ~txn = remove t ~txn ~advance_hwm:false

let wipe_volatile t =
  (* Ungranted non-PA entries hold no locks and were never promised to
     their issuer, so they die with the site.  Granted entries (the WAL
     logged the grant) and every PA entry (the admission or back-off was
     acknowledged during negotiation — dropping one would stall the
     negotiation and force a PA restart, violating Corollary 1) survive.
     No held-mode counter or granted-ts cache changes: dropped entries are
     all ungranted. *)
  let dropped = ref [] and kept = ref 0 in
  for i = 0 to t.size - 1 do
    let e = t.order.(i) in
    if
      Option.is_none e.lock
      && not (Ccdb_model.Protocol.equal e.protocol Ccdb_model.Protocol.Pa)
    then dropped := e :: !dropped
    else begin
      t.order.(!kept) <- e;
      incr kept
    end
  done;
  Array.fill t.order !kept (t.size - !kept) vacant;
  t.size <- !kept;
  List.rev !dropped

(* Blocked PA entries wait on their own issuer, not on other transactions,
   so they contribute no outgoing edges.  An ungranted entry waits on each
   earlier entry of another transaction that conflicts with it or still
   waits itself (the frontier).  A held pre-scheduled lock is itself a
   wait: its owner cannot release (and a draining T/O transaction cannot
   finish) until every conflicting lock granted earlier is released.
   Without these edges a deadlock running through a draining transaction is
   invisible to detection. *)
let iter_waits_for t f =
  for i = 0 to t.size - 1 do
    let e = t.order.(i) in
    match e.lock with
    | None ->
      if not e.blocked then
        for j = 0 to i - 1 do
          let e' = t.order.(j) in
          if
            e'.txn <> e.txn
            && (Ccdb_model.Op.conflicts e'.op e.op || Option.is_none e'.lock)
          then f e.txn e'.txn
        done
    | Some m ->
      if
        Ccdb_model.Lock.schedule_equal e.schedule Ccdb_model.Lock.Pre_scheduled
      then
        for j = 0 to t.size - 1 do
          let e' = t.order.(j) in
          match e'.lock with
          | Some m'
            when e'.txn <> e.txn && e'.grant_seq >= 0
                 && e'.grant_seq < e.grant_seq
                 && Ccdb_model.Lock.conflicts m' m ->
            f e.txn e'.txn
          | Some _ | None -> ()
        done
  done

let entries t = List.init t.size (Array.get t.order)
