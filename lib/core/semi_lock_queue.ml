type response = Accepted | Rejected | Backoff of int

type entry = {
  txn : int;
  site : int;
  protocol : Ccdb_model.Protocol.t;
  op : Ccdb_model.Op.kind;
  interval : int;
  epoch : int;
  mutable prec : Ccdb_model.Precedence.t;
  mutable blocked : bool;
  mutable lock : Ccdb_model.Lock.mode option;
  mutable schedule : Ccdb_model.Lock.schedule;
  mutable grant_seq : int;
  mutable granted_at : float;
  mutable implemented : bool;
}

type grant = { entry : entry; schedule : Ccdb_model.Lock.schedule }

(* The [index] is only looked up, never iterated, so the key is its own
   hash. *)
module Index = Ccdb_util.Lookup_tbl.Int

(* The hot paths this queue sits on run once per request, grant and release
   of every simulated lock, so the representation carries three indexes on
   top of the precedence-sorted entry list:

   - [index]: txn -> entry, so duplicate detection and the by-txn lookups
     ([update_ts], [transform], [release], [abort]) are O(1) instead of a
     list scan;
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
  mutable entries : entry list; (* sorted by unified precedence *)
  index : entry Index.t;
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

let create ?(semi_locks = true) () =
  { semi_locks; entries = []; index = Index.create 16;
    max_ts_seen = 0;
    arrival_counter = 0; grant_counter = 0; r_released = -1; w_released = -1;
    n_rl = 0; n_wl = 0; n_srl = 0; n_swl = 0;
    granted_r = -1; granted_w = -1;
    granted_r_dirty = false; granted_w_dirty = false }

let compare_entries a b = Ccdb_model.Precedence.compare a.prec b.prec

(* Precedence is a total order over distinct entries (timestamp, then
   origin, then site/txn or arrival), so inserting before the first
   strictly greater entry reproduces exactly what appending and running
   [List.stable_sort] used to produce. *)
let insert_sorted t e =
  let rec go = function
    | [] -> [ e ]
    | x :: rest ->
      if compare_entries e x < 0 then e :: x :: rest else x :: go rest
  in
  t.entries <- go t.entries

let count_held t delta mode =
  match (mode : Ccdb_model.Lock.mode) with
  | Ccdb_model.Lock.Rl -> t.n_rl <- t.n_rl + delta
  | Ccdb_model.Lock.Wl -> t.n_wl <- t.n_wl + delta
  | Ccdb_model.Lock.Srl -> t.n_srl <- t.n_srl + delta
  | Ccdb_model.Lock.Swl -> t.n_swl <- t.n_swl + delta

let recompute_granted t op =
  List.fold_left
    (fun acc e ->
      if Option.is_some e.lock && Ccdb_model.Op.equal e.op op then
        Int.max acc e.prec.Ccdb_model.Precedence.ts
      else acc)
    (-1) t.entries

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

let request t ~txn ~site ~protocol ~ts ~interval ~epoch ~op =
  if Index.mem t.index txn then
    invalid_arg "Semi_lock_queue.request: duplicate request";
  let fresh prec blocked =
    { txn; site; protocol; op; interval; epoch; prec; blocked; lock = None;
      schedule = Ccdb_model.Lock.Normal; grant_seq = -1; granted_at = 0.;
      implemented = false }
  in
  let admit e =
    Index.add t.index txn e;
    insert_sorted t e
  in
  match protocol, ts with
  | Ccdb_model.Protocol.Two_pl, None ->
    (* 2PL precedence: the biggest timestamp ever seen here, tail position *)
    let prec =
      Ccdb_model.Precedence.queue_local ~ts:t.max_ts_seen
        ~arrival:t.arrival_counter
    in
    t.arrival_counter <- t.arrival_counter + 1;
    admit (fresh prec false);
    Accepted
  | (Ccdb_model.Protocol.T_o | Ccdb_model.Protocol.Pa), Some ts ->
    let floor =
      match op with
      | Ccdb_model.Op.Read -> w_ts t
      | Ccdb_model.Op.Write -> Int.max (w_ts t) (r_ts t)
    in
    let admit_ts ts blocked =
      t.max_ts_seen <- Int.max t.max_ts_seen ts;
      let prec = Ccdb_model.Precedence.timestamped ~ts ~site ~txn in
      admit (fresh prec blocked)
    in
    if ts > floor then begin
      admit_ts ts false;
      Accepted
    end
    else begin
      match protocol with
      | Ccdb_model.Protocol.T_o -> Rejected
      | Ccdb_model.Protocol.Pa ->
        let tuple = Ccdb_model.Timestamp.Tuple.make ~ts ~interval in
        let ts' = Ccdb_model.Timestamp.Tuple.backoff tuple ~floor in
        admit_ts ts' true;
        Backoff ts'
      | Ccdb_model.Protocol.Two_pl -> assert false
    end
  | Ccdb_model.Protocol.Two_pl, Some _ ->
    invalid_arg "Semi_lock_queue.request: 2PL requests carry no timestamp"
  | (Ccdb_model.Protocol.T_o | Ccdb_model.Protocol.Pa), None ->
    invalid_arg "Semi_lock_queue.request: timestamped protocol needs a ts"

let update_ts t ~txn ~ts =
  match Index.find_opt t.index txn with
  | None -> `Absent
  | Some e ->
    let revoked = Option.is_some e.lock in
    (match e.lock with
     | Some mode ->
       count_held t (-1) mode;
       note_ungranted t e
     | None -> ());
    t.max_ts_seen <- Int.max t.max_ts_seen ts;
    t.entries <- List.filter (fun e' -> e'.txn <> txn) t.entries;
    e.prec <-
      Ccdb_model.Precedence.timestamped ~ts ~site:e.site ~txn:e.txn;
    e.blocked <- false;
    e.lock <- None;
    e.schedule <- Ccdb_model.Lock.Normal;
    e.grant_seq <- -1;
    insert_sorted t e;
    if revoked then `Revoked else `Moved

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
  let newly = ref [] in
  (* HD discipline: walk in precedence order past granted entries; grant the
     frontier while possible, stop at the first entry that keeps waiting. *)
  let rec scan = function
    | [] -> ()
    | e :: rest ->
      if Option.is_some e.lock then scan rest
      else if e.blocked then ()
      else begin
        match grant_check t e with
        | None -> ()
        | Some schedule ->
          let mode = lock_mode_for t e in
          e.lock <- Some mode;
          count_held t 1 mode;
          note_granted t e;
          e.schedule <- schedule;
          e.grant_seq <- t.grant_counter;
          t.grant_counter <- t.grant_counter + 1;
          e.granted_at <- now;
          newly := { entry = e; schedule } :: !newly;
          scan rest
      end
  in
  scan t.entries;
  List.rev !newly

let transform t ~txn =
  match Index.find_opt t.index txn with
  | None -> None
  | Some e ->
    (match e.lock with
     | Some mode ->
       let semi = Ccdb_model.Lock.to_semi mode in
       count_held t (-1) mode;
       count_held t 1 semi;
       e.lock <- Some semi
     | None -> ());
    Some e

(* Pre-scheduled locks whose earlier conflicting grants are now all gone. *)
let promotions t =
  List.filter
    (fun e ->
      Option.is_some e.lock
      && Ccdb_model.Lock.schedule_equal e.schedule Ccdb_model.Lock.Pre_scheduled
      && not
           (List.exists
              (fun e' ->
                e'.txn <> e.txn && e'.grant_seq >= 0
                && e'.grant_seq < e.grant_seq
                && match e'.lock, e.lock with
                   | Some m', Some m -> Ccdb_model.Lock.conflicts m' m
                   | _, _ -> false)
              t.entries))
    t.entries

let remove t ~txn ~advance_hwm =
  match Index.find_opt t.index txn with
  | None -> None
  | Some e ->
    Index.remove t.index txn;
    t.entries <- List.filter (fun e' -> e'.txn <> txn) t.entries;
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
    let promoted = promotions t in
    List.iter
      (fun (p : entry) -> p.schedule <- Ccdb_model.Lock.Normal)
      promoted;
    Some (e, promoted)

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
  let dropped, kept =
    List.partition
      (fun e ->
        Option.is_none e.lock
        && not (Ccdb_model.Protocol.equal e.protocol Ccdb_model.Protocol.Pa))
      t.entries
  in
  t.entries <- kept;
  List.iter (fun e -> Index.remove t.index e.txn) dropped;
  dropped

(* [f e.txn e'.txn] for each entry [e'] of another transaction before [e]
   in precedence order that conflicts with it or still waits itself (the
   frontier) *)
let rec waits_on f (e : entry) = function
  | e' :: rest when e' != e ->
    if
      e'.txn <> e.txn
      && (Ccdb_model.Op.conflicts e'.op e.op || Option.is_none e'.lock)
    then f e.txn e'.txn;
    waits_on f e rest
  | _ -> ()

(* [f e.txn e'.txn] for each lock of another transaction granted before
   [e]'s pre-scheduled lock [m] that conflicts with it *)
let rec pre_scheduled_on f (e : entry) m = function
  | [] -> ()
  | e' :: rest ->
    (match e'.lock with
     | Some m'
       when e'.txn <> e.txn && e'.grant_seq >= 0 && e'.grant_seq < e.grant_seq
            && Ccdb_model.Lock.conflicts m' m ->
       f e.txn e'.txn
     | Some _ | None -> ());
    pre_scheduled_on f e m rest

(* Blocked PA entries wait on their own issuer, not on other transactions,
   so they contribute no outgoing edges.  A held pre-scheduled lock is
   itself a wait: its owner cannot release (and a draining T/O transaction
   cannot finish) until every conflicting lock granted earlier is released.
   Without these edges a deadlock running through a draining transaction is
   invisible to detection. *)
let rec waiters f entries = function
  | [] -> ()
  | e :: rest ->
    (match e.lock with
     | None -> if not e.blocked then waits_on f e entries
     | Some m ->
       if
         Ccdb_model.Lock.schedule_equal e.schedule Ccdb_model.Lock.Pre_scheduled
       then pre_scheduled_on f e m entries);
    waiters f entries rest

let iter_waits_for t f = waiters f t.entries t.entries

let entries t = t.entries
