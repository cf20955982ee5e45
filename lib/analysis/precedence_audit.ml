(* E1/E2 enforcement checker (paper sections 3 and 4.1).

   Reconstructs every copy's precedence queue from the request stream and
   verifies that the recorded grants, rejections and implementations are the
   ones the Precedence-Assignment Model allows:

   - (pin) a 2PL request is assigned the queue's high-water timestamp at
     admission and keeps it: the grant's [ts] must equal the replayed
     high-water mark (with queue-local arrival rank as tie-break);
   - (floors) a T/O rejection (and a PA back-off) is consistent with the
     replayed [r_ts]/[w_ts] floors, and an admission never sneaks below
     them;
   - (E2) grants respect precedence order: a lock-holding system grants an
     entry only when every smaller-precedence live entry already holds its
     grant; a perform-style system (basic/conservative T/O) implements an
     operation only when no smaller-precedence conflicting entry is still
     pending;
   - (E1) per copy, conflicting operations are implemented in precedence
     order: a write is implemented only after every implemented operation
     with a bigger timestamp... never — i.e. writes are flagged when an
     operation with a bigger timestamp was already implemented, reads when a
     {e write} with a bigger timestamp was.  A read implemented at grant
     stays tentative until its transaction commits: if the transaction
     restarts first, [Reads_discarded] withdraws it from the log, and from
     the order check with it.

   Events with [ts = None] (pure 2PL, MVTO) have no precedence space and
   are skipped; MVTO in particular legally reorders reads via multiple
   versions. *)

module Rt = Ccdb_protocols.Runtime
module Lookup = Ccdb_util.Lookup_tbl

type pentry = {
  p_txn : int;
  p_op : Ccdb_model.Op.kind;
  p_protocol : Ccdb_model.Protocol.t;
  p_origin : int;  (* issuer's site: timestamped tie-break *)
  mutable p_ts : int;
  p_arrival : int;  (* 2PL tie-break rank; -1 for timestamped entries *)
  p_two_pl : bool;  (* queue-local precedence (pinned high-water mark) *)
  mutable p_granted : bool;
  mutable p_blocked : bool;
  mutable p_implemented : bool;
}

(* Mirrors Ccdb_model.Precedence.compare: timestamp, then Timestamped
   before Queue_local, then (site, txn) / arrival. *)
let compare_prec a b =
  let c = Int.compare a.p_ts b.p_ts in
  if c <> 0 then c
  else
    match a.p_two_pl, b.p_two_pl with
    | false, true -> -1
    | true, false -> 1
    | true, true -> Int.compare a.p_arrival b.p_arrival
    | false, false ->
      let c = Int.compare a.p_origin b.p_origin in
      if c <> 0 then c else Int.compare a.p_txn b.p_txn

type cstate = {
  mutable entries : pentry list;
  mutable max_ts_seen : int;
  mutable arrival_counter : int;
  mutable hwm_r : int;  (* high-water marks of released entries *)
  mutable hwm_w : int;
  mutable impl_any : int;  (* biggest implemented timestamp, tentative
                              reads aside *)
  mutable impl_w : int;    (* biggest implemented write timestamp *)
  mutable tentative : (int * int) list;
      (* (txn, ts) of reads implemented at grant by transactions that have
         not committed yet *)
}

type state = {
  copies : cstate Lookup.Pair.t; (* by (item, site) *)
  tentative_at : (int * int) list Lookup.Int.t;
      (* txn -> copies where it has tentative reads *)
  sink : Finding.t -> unit;
}

let create sink =
  { copies = Lookup.Pair.create 64; tentative_at = Lookup.Int.create 64;
    sink }

let cstate st copy =
  match Lookup.Pair.find_opt st.copies copy with
  | Some c -> c
  | None ->
    let c =
      { entries = []; max_ts_seen = 0; arrival_counter = 0; hwm_r = -1;
        hwm_w = -1; impl_any = -1; impl_w = -1; tentative = [] }
    in
    Lookup.Pair.add st.copies copy c;
    c

let granted_max c op =
  List.fold_left
    (fun acc e ->
      if e.p_granted && Ccdb_model.Op.equal e.p_op op then Int.max acc e.p_ts
      else acc)
    (-1) c.entries

let floor_for c op =
  let r () = Int.max c.hwm_r (granted_max c Ccdb_model.Op.Read) in
  let w () = Int.max c.hwm_w (granted_max c Ccdb_model.Op.Write) in
  match op with
  | Ccdb_model.Op.Read -> w ()
  | Ccdb_model.Op.Write -> Int.max (w ()) (r ())

let implemented_max c =
  List.fold_left (fun acc (_, ts) -> Int.max acc ts) c.impl_any c.tentative

(* E1: implementation order per copy.  A [tentative] read is one
   implemented at grant, which its transaction's restart may withdraw. *)
let implement ?(tentative = false) st c i ~copy e =
  (match e.p_op with
   | Ccdb_model.Op.Read ->
     if e.p_ts < c.impl_w then
       st.sink
         (Finding.make ~event_index:i ~txns:[ e.p_txn ] ~copy
            ~check:"prec.e1-read-order"
            (Printf.sprintf
               "read (ts %d) implemented after a write with ts %d" e.p_ts
               c.impl_w))
   | Ccdb_model.Op.Write ->
     let impl_any = implemented_max c in
     if e.p_ts < impl_any then
       st.sink
         (Finding.make ~event_index:i ~txns:[ e.p_txn ] ~copy
            ~check:"prec.e1-write-order"
            (Printf.sprintf
               "write (ts %d) implemented after an operation with ts %d"
               e.p_ts impl_any)));
  if tentative then begin
    c.tentative <- (e.p_txn, e.p_ts) :: c.tentative;
    let copies =
      Option.value ~default:[] (Lookup.Int.find_opt st.tentative_at e.p_txn)
    in
    if not (Ccdb_util.Int_list.mem_pair copy copies) then
      Lookup.Int.replace st.tentative_at e.p_txn (copy :: copies)
  end
  else c.impl_any <- Int.max c.impl_any e.p_ts;
  (match e.p_op with
   | Ccdb_model.Op.Write -> c.impl_w <- Int.max c.impl_w e.p_ts
   | Ccdb_model.Op.Read -> ());
  e.p_implemented <- true

let on_request st i ~txn ~protocol ~op ~origin ~ts ~outcome ~copy =
  let c = cstate st copy in
  let admit ~ts ~blocked ~two_pl =
    let arrival =
      if two_pl then begin
        let a = c.arrival_counter in
        c.arrival_counter <- c.arrival_counter + 1;
        a
      end
      else begin
        c.max_ts_seen <- Int.max c.max_ts_seen ts;
        -1
      end
    in
    c.entries <-
      { p_txn = txn; p_op = op; p_protocol = protocol; p_origin = origin;
        p_ts = ts; p_arrival = arrival; p_two_pl = two_pl;
        p_granted = false; p_blocked = blocked; p_implemented = false }
      :: c.entries
  in
  match outcome, ts with
  | Rt.Req_admitted, None ->
    (* 2PL: pinned to the current high-water mark *)
    admit ~ts:c.max_ts_seen ~blocked:false ~two_pl:true
  | Rt.Req_admitted, Some ts ->
    if ts <= floor_for c op then
      st.sink
        (Finding.make ~event_index:i ~txns:[ txn ] ~copy
           ~check:"prec.admit-below-floor"
           (Printf.sprintf "%s request admitted with ts %d <= floor %d"
              (Ccdb_model.Op.to_string op) ts (floor_for c op)));
    admit ~ts ~blocked:false ~two_pl:false
  | Rt.Req_rejected, Some ts ->
    if ts > floor_for c op then
      st.sink
        (Finding.make ~event_index:i ~txns:[ txn ] ~copy
           ~check:"prec.bad-rejection"
           (Printf.sprintf
              "%s request rejected with ts %d above the floor %d"
              (Ccdb_model.Op.to_string op) ts (floor_for c op)))
  | Rt.Req_ignored, Some ts ->
    (* Thomas Write Rule: only a dead write may be dropped *)
    if ts > floor_for c op then
      st.sink
        (Finding.make ~event_index:i ~txns:[ txn ] ~copy
           ~check:"prec.bad-ignore"
           (Printf.sprintf "live write (ts %d > floor %d) dropped as dead"
              ts (floor_for c op)))
  | Rt.Req_backoff ts', Some ts ->
    if ts > floor_for c op then
      st.sink
        (Finding.make ~event_index:i ~txns:[ txn ] ~copy
           ~check:"prec.bad-backoff"
           (Printf.sprintf
              "PA request backed off with ts %d above the floor %d" ts
              (floor_for c op)));
    if ts' <= ts then
      st.sink
        (Finding.make ~event_index:i ~txns:[ txn ] ~copy
           ~check:"prec.backoff-not-later"
           (Printf.sprintf "back-off timestamp %d does not exceed %d" ts' ts));
    admit ~ts:ts' ~blocked:true ~two_pl:false
  | (Rt.Req_rejected | Rt.Req_backoff _ | Rt.Req_ignored), None ->
    st.sink
      (Finding.make ~event_index:i ~txns:[ txn ] ~copy
         ~check:"prec.outcome-without-ts"
         "rejection/back-off outcome on a request with no timestamp")

(* E2: may [e] be granted now, given the replayed queue? *)
let check_grant_order st c i ~copy ~mode e =
  match mode with
  | Some _ ->
    (* lock-holding queues walk the queue in precedence order and stop at
       the first waiting entry: every earlier live entry must already hold
       its grant *)
    List.iter
      (fun e' ->
        if compare_prec e' e < 0 && not e'.p_granted then
          st.sink
            (Finding.make ~event_index:i ~txns:[ e.p_txn; e'.p_txn ] ~copy
               ~check:"prec.grant-order"
               (Printf.sprintf
                  "grant to t%d (ts %d) while smaller-precedence t%d (ts \
                   %d) is still %s"
                  e.p_txn e.p_ts e'.p_txn e'.p_ts
                  (if e'.p_blocked then "blocked" else "waiting"))))
      c.entries
  | None ->
    (* perform-style queues (basic/conservative T/O) may leapfrog
       non-conflicting reads but never a conflicting pending entry *)
    List.iter
      (fun e' ->
        let conflicting =
          match e.p_op with
          | Ccdb_model.Op.Write -> true
          | Ccdb_model.Op.Read ->
            Ccdb_model.Op.equal e'.p_op Ccdb_model.Op.Write
        in
        if conflicting && compare_prec e' e < 0 then
          st.sink
            (Finding.make ~event_index:i ~txns:[ e.p_txn; e'.p_txn ] ~copy
               ~check:"prec.perform-order"
               (Printf.sprintf
                  "%s (ts %d) performed while conflicting smaller-precedence \
                   %s of t%d (ts %d) is pending"
                  (Ccdb_model.Op.to_string e.p_op)
                  e.p_ts
                  (Ccdb_model.Op.to_string e'.p_op)
                  e'.p_txn e'.p_ts)))
      c.entries

let remove_entry c e =
  let rec drop = function
    | [] -> []
    | e' :: rest -> if e' == e then rest else e' :: drop rest
  in
  c.entries <- drop c.entries

let advance_hwm c op ts =
  match op with
  | Ccdb_model.Op.Read -> c.hwm_r <- Int.max c.hwm_r ts
  | Ccdb_model.Op.Write -> c.hwm_w <- Int.max c.hwm_w ts

let on_grant st i ~txn ~protocol ~op ~mode ~ts ~copy =
  let c = cstate st copy in
  let e =
    match
      List.find_opt
        (fun e ->
          e.p_txn = txn && Ccdb_model.Op.equal e.p_op op && not e.p_granted)
        c.entries
    with
    | Some e -> e
    | None ->
      (* conservative T/O emits no request events: admit implicitly *)
      let e =
        { p_txn = txn; p_op = op; p_protocol = protocol; p_origin = 0;
          p_ts = ts; p_arrival = -1; p_two_pl = false; p_granted = false;
          p_blocked = false; p_implemented = false }
      in
      c.max_ts_seen <- Int.max c.max_ts_seen ts;
      c.entries <- e :: c.entries;
      e
  in
  if e.p_ts <> ts then
    st.sink
      (Finding.make ~event_index:i ~txns:[ txn ] ~copy
         ~check:(if e.p_two_pl then "prec.pin-mismatch" else "prec.ts-mismatch")
         (Printf.sprintf
            "grant carries ts %d but the queue assigned %s%d" ts
            (if e.p_two_pl then "pinned high-water mark " else "")
            e.p_ts));
  if e.p_blocked then
    st.sink
      (Finding.make ~event_index:i ~txns:[ txn ] ~copy
         ~check:"prec.grant-blocked"
         "grant to an entry still blocked on its back-off");
  check_grant_order st c i ~copy ~mode e;
  match mode with
  | Some _ ->
    e.p_granted <- true;
    (* T/O reads are implemented at grant (section 4.3) *)
    if
      Ccdb_model.Protocol.equal e.p_protocol Ccdb_model.Protocol.T_o
      && Ccdb_model.Op.equal e.p_op Ccdb_model.Op.Read
    then implement ~tentative:true st c i ~copy e
  | None ->
    (* perform-style grant: the operation is implemented and leaves the
       queue now; the floor advances exactly as To_queue does at perform *)
    implement
      ~tentative:(Ccdb_model.Op.equal op Ccdb_model.Op.Read)
      st c i ~copy e;
    remove_entry c e;
    advance_hwm c op e.p_ts

let on_release st i ~txn ~op ~aborted ~copy =
  let c = cstate st copy in
  match
    List.find_opt
      (fun e -> e.p_txn = txn && Ccdb_model.Op.equal e.p_op op)
      c.entries
  with
  | None -> () (* perform-style entries already left at grant *)
  | Some e ->
    remove_entry c e;
    if not aborted then begin
      advance_hwm c op e.p_ts;
      (* 2PL/PA operations are implemented at release; a T/O write too,
         unless its transform already implemented it *)
      if not e.p_implemented then implement st c i ~copy e
    end

let on_transform st i ~txn ~copy =
  let c = cstate st copy in
  match
    List.find_opt (fun e -> e.p_txn = txn && e.p_granted) c.entries
  with
  | None -> ()
  | Some e ->
    if
      Ccdb_model.Op.equal e.p_op Ccdb_model.Op.Write && not e.p_implemented
    then implement st c i ~copy e

let on_withdrawn st ~txn ~copy =
  let c = cstate st copy in
  match
    List.find_opt (fun e -> e.p_txn = txn && not e.p_granted) c.entries
  with
  | None -> ()
  | Some e -> remove_entry c e

(* A restart withdrew [txn]'s grant-time reads from the copy's log. *)
let on_reads_discarded st ~txn ~copy =
  let c = cstate st copy in
  c.tentative <- List.filter (fun (t, _) -> t <> txn) c.tentative

(* Past its commit point a transaction's reads are final. *)
let on_committed st ~txn =
  match Lookup.Int.find_opt st.tentative_at txn with
  | None -> ()
  | Some copies ->
    Lookup.Int.remove st.tentative_at txn;
    List.iter
      (fun copy ->
        let c = cstate st copy in
        let mine, others = List.partition (fun (t, _) -> t = txn) c.tentative in
        c.tentative <- others;
        List.iter (fun (_, ts) -> c.impl_any <- Int.max c.impl_any ts) mine)
      copies

let on_ts_updated st ~txn ~ts ~copy =
  let c = cstate st copy in
  c.max_ts_seen <- Int.max c.max_ts_seen ts;
  match List.find_opt (fun e -> e.p_txn = txn) c.entries with
  | None -> ()
  | Some e ->
    e.p_ts <- ts;
    e.p_granted <- false;
    e.p_blocked <- false

let feed st i event =
  match event with
  | Rt.Lock_requested { txn; protocol; op; item; site; origin; ts;
                        outcome; _ } ->
    on_request st i ~txn ~protocol ~op ~origin ~ts ~outcome
      ~copy:(item, site)
  | Rt.Lock_granted { ts = None; _ } -> () (* no precedence space *)
  | Rt.Lock_granted { txn; protocol; op; item; site; mode; ts = Some ts;
                      _ } ->
    on_grant st i ~txn ~protocol ~op ~mode ~ts ~copy:(item, site)
  | Rt.Lock_released { txn; op; item; site; aborted; _ } ->
    on_release st i ~txn ~op ~aborted ~copy:(item, site)
  | Rt.Lock_transformed { txn; item; site; _ } ->
    on_transform st i ~txn ~copy:(item, site)
  | Rt.Request_withdrawn { txn; item; site; _ } ->
    on_withdrawn st ~txn ~copy:(item, site)
  | Rt.Request_dropped { txn; item; site; _ } ->
    (* a site wipe removes the ungranted entry exactly like a
       withdrawal: the issuer must re-request after the crash *)
    on_withdrawn st ~txn ~copy:(item, site)
  | Rt.Ts_updated { txn; item; site; ts; _ } ->
    on_ts_updated st ~txn ~ts ~copy:(item, site)
  | Rt.Reads_discarded { txn; item; site; _ } ->
    on_reads_discarded st ~txn ~copy:(item, site)
  | Rt.Txn_committed { txn; _ } -> on_committed st ~txn:txn.Ccdb_model.Txn.id
  | Rt.Lock_promoted _ | Rt.Deadlock_detected _ | Rt.Txn_restarted _
  | Rt.Pa_backoff _ | Rt.Site_crashed _ | Rt.Site_recovered _
  | Rt.Site_wiped _ | Rt.Wal_replayed _ | Rt.Prepared _
  | Rt.Decision_logged _ | Rt.Acceptor_promised _ | Rt.Acceptor_accepted _
  | Rt.Op_implemented _ -> ()
