(* Semi-lock race detector (paper section 4.2).

   Replays grant / transform / promote / release events against the
   RL/WL/SRL/SWL compatibility matrix, maintaining the set of locks held at
   every physical copy.  Grants of lockless systems (basic T/O performs,
   MVTO, conservative T/O) carry [mode = None] and hold nothing; they are
   tracked only so their releases match up.

   Checked invariants:
   - two conflicting locks are co-held only when the later one was granted
     [Pre_scheduled] over a held {e semi}-lock (rule 2);
   - a pre-scheduled grant is promoted before its non-aborted release, and
     promotion happens only once every conflicting earlier grant is gone
     (rule 3);
   - strict 2PL: no lock of a committed transaction is granted afterwards,
     and no non-aborted release precedes the commit;
   - fail-stop crashes: a request dropped in a site wipe is never granted
     unless the issuer re-requested it after the crash (a "resurrected"
     lock would mean volatile queue state survived the wipe);
   - no locks survive the end of the trace (and surviving pre-scheduled
     grants were, by definition, never promoted). *)

module Rt = Ccdb_protocols.Runtime
module Pair_tbl = Ccdb_util.Pair_tbl
module Lookup = Ccdb_util.Lookup_tbl

type held = {
  h_txn : int;
  h_op : Ccdb_model.Op.kind;
  mutable h_mode : Ccdb_model.Lock.mode;
  mutable h_schedule : Ccdb_model.Lock.schedule;
  h_grant_idx : int;  (* event index of the grant: replay-order rank *)
}

type state = {
  held : held list ref Pair_tbl.t;
      (* by (item, site); [finish] reports leaked locks in its order *)
  performed : unit Lookup.Triple.t;
      (* lockless grants by ([txn_op], item, site), so their releases are
         not "unmatched" *)
  committed : unit Lookup.Int.t;
  dropped : unit Lookup.Triple.t;
      (* requests lost in a site wipe by (txn, item, site), cleared by a
         fresh request *)
  sink : Finding.t -> unit;
}

let create sink =
  { held = Pair_tbl.create 64; performed = Lookup.Triple.create 64;
    committed = Lookup.Int.create 64; dropped = Lookup.Triple.create 16;
    sink }

(* One int per (txn, op), as [To_queue] keys its index. *)
let txn_op txn (op : Ccdb_model.Op.kind) =
  (2 * txn) + match op with Ccdb_model.Op.Read -> 0 | Ccdb_model.Op.Write -> 1

let rec remove_held h = function
  | [] -> []
  | h' :: rest -> if h' == h then rest else h' :: remove_held h rest

let copy_held st copy =
  match Pair_tbl.find_opt st.held copy with
  | Some r -> r
  | None ->
    let r = ref [] in
    Pair_tbl.add st.held copy r;
    r

let on_grant st i ~txn ~protocol ~op ~item ~site ~mode ~schedule =
  (if
     Lookup.Triple.length st.dropped > 0
     && Lookup.Triple.mem st.dropped (txn, item, site)
   then
     st.sink
       (Finding.make ~event_index:i ~txns:[ txn ] ~copy:(item, site)
          ~check:"lock.resurrected"
          (Printf.sprintf
             "grant to t%d whose request died in the site %d wipe (no \
              re-request in between)"
             txn site)));
  match mode with
  | None -> Lookup.Triple.replace st.performed (txn_op txn op, item, site) ()
  | Some m ->
    let copy = (item, site) in
    (if
       Ccdb_model.Protocol.equal protocol Ccdb_model.Protocol.Two_pl
       && Lookup.Int.mem st.committed txn
     then
       st.sink
         (Finding.make ~event_index:i ~txns:[ txn ] ~copy
            ~check:"lock.grant-after-commit"
            (Printf.sprintf "2PL %s lock granted after t%d committed"
               (Ccdb_model.Lock.to_string m) txn)));
    let cell = copy_held st copy in
    List.iter
      (fun h ->
        if h.h_txn <> txn && Ccdb_model.Lock.conflicts h.h_mode m then begin
          let legal =
            Ccdb_model.Lock.schedule_equal schedule
              Ccdb_model.Lock.Pre_scheduled
            && Ccdb_model.Lock.is_semi h.h_mode
          in
          if not legal then
            st.sink
              (Finding.make ~event_index:i ~txns:[ h.h_txn; txn ] ~copy
                 ~check:"lock.conflict"
                 (Printf.sprintf
                    "%s grant to t%d conflicts with held %s of t%d%s"
                    (Ccdb_model.Lock.to_string m) txn
                    (Ccdb_model.Lock.to_string h.h_mode) h.h_txn
                    (match schedule with
                     | Ccdb_model.Lock.Pre_scheduled ->
                       " (pre-scheduled over a non-semi lock)"
                     | Ccdb_model.Lock.Normal -> "")))
        end)
      !cell;
    cell :=
      { h_txn = txn; h_op = op; h_mode = m; h_schedule = schedule;
        h_grant_idx = i }
      :: !cell

let on_transform st i ~txn ~item ~site ~mode =
  let cell = copy_held st (item, site) in
  match List.find_opt (fun h -> h.h_txn = txn) !cell with
  | Some h -> h.h_mode <- mode
  | None ->
    st.sink
      (Finding.make ~severity:Finding.Warning ~event_index:i ~txns:[ txn ]
         ~copy:(item, site) ~check:"lock.transform-unheld"
         "transform of a lock that is not held")

let on_promote st i ~txn ~item ~site =
  let copy = (item, site) in
  let cell = copy_held st copy in
  match List.find_opt (fun h -> h.h_txn = txn) !cell with
  | None ->
    st.sink
      (Finding.make ~event_index:i ~txns:[ txn ] ~copy
         ~check:"lock.promote-unheld" "promotion of a lock that is not held")
  | Some h ->
    if
      not
        (Ccdb_model.Lock.schedule_equal h.h_schedule
           Ccdb_model.Lock.Pre_scheduled)
    then
      st.sink
        (Finding.make ~severity:Finding.Warning ~event_index:i ~txns:[ txn ]
           ~copy ~check:"lock.promote-normal"
           "promotion of a lock that was already normal");
    List.iter
      (fun h' ->
        if
          h'.h_txn <> txn
          && h'.h_grant_idx < h.h_grant_idx
          && Ccdb_model.Lock.conflicts h'.h_mode h.h_mode
        then
          st.sink
            (Finding.make ~event_index:i ~txns:[ txn; h'.h_txn ] ~copy
               ~check:"lock.premature-promotion"
               (Printf.sprintf
                  "t%d promoted while conflicting earlier %s of t%d is still \
                   held"
                  txn
                  (Ccdb_model.Lock.to_string h'.h_mode)
                  h'.h_txn)))
      !cell;
    h.h_schedule <- Ccdb_model.Lock.Normal

let on_release st i ~txn ~protocol ~op ~item ~site ~aborted =
  let copy = (item, site) in
  let cell = copy_held st copy in
  (match
     List.find_opt
       (fun h -> h.h_txn = txn && Ccdb_model.Op.equal h.h_op op)
       !cell
   with
   | Some h ->
     cell := remove_held h !cell;
     if
       (not aborted)
       && Ccdb_model.Lock.schedule_equal h.h_schedule
            Ccdb_model.Lock.Pre_scheduled
     then
       st.sink
         (Finding.make ~event_index:i ~txns:[ txn ] ~copy
            ~check:"lock.release-pre-scheduled"
            "lock released while still pre-scheduled (never promoted)")
   | None ->
     let key = (txn_op txn op, item, site) in
     if Lookup.Triple.mem st.performed key then
       Lookup.Triple.remove st.performed key
     else
       st.sink
         (Finding.make ~severity:Finding.Warning ~event_index:i ~txns:[ txn ]
            ~copy ~check:"lock.release-unmatched"
            "release without a matching grant"));
  if
    Ccdb_model.Protocol.equal protocol Ccdb_model.Protocol.Two_pl
    && (not aborted)
    && not (Lookup.Int.mem st.committed txn)
  then
    st.sink
      (Finding.make ~event_index:i ~txns:[ txn ] ~copy
         ~check:"lock.release-before-commit"
         (Printf.sprintf "2PL t%d released a lock before committing" txn))

let on_ts_updated st ~txn ~item ~site ~revoked =
  if revoked then begin
    let cell = copy_held st (item, site) in
    cell := List.filter (fun h -> h.h_txn <> txn) !cell
  end

let feed st i event =
  match event with
  | Rt.Lock_granted { txn; protocol; op; item; site; mode; schedule; _ } ->
    on_grant st i ~txn ~protocol ~op ~item ~site ~mode ~schedule
  | Rt.Lock_transformed { txn; item; site; mode; _ } ->
    on_transform st i ~txn ~item ~site ~mode
  | Rt.Lock_promoted { txn; item; site; _ } ->
    on_promote st i ~txn ~item ~site
  | Rt.Lock_released { txn; protocol; op; item; site; aborted; _ } ->
    on_release st i ~txn ~protocol ~op ~item ~site ~aborted
  | Rt.Ts_updated { txn; item; site; revoked; _ } ->
    on_ts_updated st ~txn ~item ~site ~revoked
  | Rt.Txn_committed { txn; _ } -> Lookup.Int.replace st.committed txn.id ()
  | Rt.Lock_requested { txn; item; site; _ } ->
    if Lookup.Triple.length st.dropped > 0 then
      Lookup.Triple.remove st.dropped (txn, item, site)
  | Rt.Request_dropped { txn; item; site; _ } ->
    Lookup.Triple.replace st.dropped (txn, item, site) ()
  | Rt.Request_withdrawn _ | Rt.Deadlock_detected _
  | Rt.Txn_restarted _ | Rt.Pa_backoff _ | Rt.Site_crashed _
  | Rt.Site_recovered _ | Rt.Site_wiped _ | Rt.Wal_replayed _
  | Rt.Prepared _ | Rt.Decision_logged _
  | Rt.Acceptor_promised _ | Rt.Acceptor_accepted _
  | Rt.Op_implemented _ | Rt.Reads_discarded _ -> ()

let finish st n_events =
  Pair_tbl.iter
    (fun copy cell ->
      List.iter
        (fun h ->
          if
            Ccdb_model.Lock.schedule_equal h.h_schedule
              Ccdb_model.Lock.Pre_scheduled
          then
            st.sink
              (Finding.make ~event_index:n_events ~txns:[ h.h_txn ] ~copy
                 ~check:"lock.never-promoted"
                 (Printf.sprintf
                    "pre-scheduled %s of t%d survives the trace unpromoted"
                    (Ccdb_model.Lock.to_string h.h_mode)
                    h.h_txn))
          else
            st.sink
              (Finding.make ~severity:Finding.Warning ~event_index:n_events
                 ~txns:[ h.h_txn ] ~copy ~check:"lock.leaked"
                 (Printf.sprintf "%s of t%d never released"
                    (Ccdb_model.Lock.to_string h.h_mode)
                    h.h_txn)))
        !cell)
    st.held
