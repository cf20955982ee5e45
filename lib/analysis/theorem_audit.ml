(* Theorem auditor.

   - Corollary 2 (of Theorem 3): every genuine deadlock cycle contains at
     least one 2PL transaction, and the victim chosen to break it is a 2PL
     transaction.  A detector snapshot that offered no victim is reported
     as information only: asynchronous edge collection can assemble phantom
     cycles, which the systems deliberately ignore.
   - Corollary 1: a PA transaction is never restarted (it negotiates a
     back-off instead) and is never chosen as a deadlock victim.
   - Theorem 2: when the final store is supplied, the per-copy
     implementation logs must be conflict-serializable and the replicas of
     every item must converge.  The serializability verdict can be taken
     from a caller-maintained incremental conflict graph
     ([~serializability]) instead of the quadratic log scan.
   - Durability (fail-stop extension): every committed transaction's write
     reaches the implementation log of every catalog copy — unless the
     Thomas Write Rule legally dropped it — even across crashes and WAL
     replays; and two-phase commit is atomic: no transaction's terminal
     decision is commit at one site and abort at another. *)

module Rt = Ccdb_protocols.Runtime
module Int_tbl = Ccdb_util.Int_tbl
module Pair_tbl = Ccdb_util.Pair_tbl
module Lookup = Ccdb_util.Lookup_tbl

let protocol_name = Ccdb_model.Protocol.to_string

let not_serializable = "thm.not-serializable"

(* [committed_txns] and [last_decision] are iterated by [finish], in the
   order its findings come out, so they keep the generic hash's order. *)
type state = {
  (* latest known protocol per transaction (re-selection may change it
     between attempts) *)
  protocol_of : Ccdb_model.Protocol.t Lookup.Int.t;
  (* durability bookkeeping *)
  committed_txns : Ccdb_model.Txn.t Int_tbl.t;
  twr_dropped : unit Lookup.Triple.t; (* (txn, item, site) *)
  (* terminal 2PC decision per (txn, site): commits are final, an abort may
     be superseded by a later round's commit *)
  last_decision : bool Pair_tbl.t;
  sink : Finding.t -> unit;
}

let create sink =
  { protocol_of = Lookup.Int.create 64; committed_txns = Int_tbl.create 64;
    twr_dropped = Lookup.Triple.create 16; last_decision = Pair_tbl.create 64;
    sink }

let is_pa st txn =
  match Lookup.Int.find_opt st.protocol_of txn with
  | Some p -> Ccdb_model.Protocol.equal p Ccdb_model.Protocol.Pa
  | None -> false

let is_two_pl st txn =
  match Lookup.Int.find_opt st.protocol_of txn with
  | Some p -> Ccdb_model.Protocol.equal p Ccdb_model.Protocol.Two_pl
  | None -> false

let feed st i event =
  match event with
  | Rt.Lock_requested { txn; protocol; item; site; outcome; _ } ->
    Lookup.Int.replace st.protocol_of txn protocol;
    (match outcome with
     | Rt.Req_ignored ->
       Lookup.Triple.replace st.twr_dropped (txn, item, site) ()
     | Rt.Req_admitted | Rt.Req_rejected | Rt.Req_backoff _ -> ())
  | Rt.Lock_granted { txn; protocol; _ } ->
    Lookup.Int.replace st.protocol_of txn protocol
  | Rt.Txn_restarted { txn; reason; _ } ->
    Lookup.Int.replace st.protocol_of txn.id txn.protocol;
    if Ccdb_model.Protocol.equal txn.protocol Ccdb_model.Protocol.Pa then
      st.sink
        (Finding.make ~event_index:i ~txns:[ txn.id ]
           ~check:"thm.pa-restarted"
           (Printf.sprintf
              "PA transaction t%d restarted (%s): contradicts Corollary 1 \
               (PA is restart-free)"
              txn.id
              (match reason with
               | Rt.To_rejected _ -> "rejection"
               | Rt.Deadlock_victim -> "deadlock victim"
               | Rt.Prevention_kill -> "prevention kill"
               | Rt.Site_failure -> "site failure")))
  | Rt.Txn_committed { txn; _ } ->
    Lookup.Int.replace st.protocol_of txn.id txn.protocol;
    Int_tbl.replace st.committed_txns txn.id txn
  | Rt.Decision_logged { txn; site; commit; _ } -> (
    match Pair_tbl.find_opt st.last_decision (txn, site) with
    | Some true -> ()
    | Some false | None ->
      Pair_tbl.replace st.last_decision (txn, site) commit)
  | Rt.Deadlock_detected { cycle; victim; _ } -> (
    match victim with
    | None ->
      st.sink
        (Finding.make ~severity:Finding.Info ~event_index:i ~txns:cycle
           ~check:"thm.cycle-no-victim"
           "detector snapshot offered no victim (phantom or already \
            breaking)")
    | Some v ->
      if not (is_two_pl st v) then
        st.sink
          (Finding.make ~event_index:i ~txns:[ v ]
             ~check:"thm.victim-not-2pl"
             (Printf.sprintf
                "deadlock victim t%d is %s, not 2PL (Corollary 2)" v
                (match Lookup.Int.find_opt st.protocol_of v with
                 | Some p -> protocol_name p
                 | None -> "unknown")));
      if List.length cycle > 1 && not (List.exists (is_two_pl st) cycle)
      then
        st.sink
          (Finding.make ~event_index:i ~txns:cycle
             ~check:"thm.cycle-without-2pl"
             "deadlock cycle contains no 2PL transaction (contradicts \
              Theorem 3 / Corollary 2)");
      if is_pa st v then
        st.sink
          (Finding.make ~event_index:i ~txns:[ v ] ~check:"thm.pa-victim"
             (Printf.sprintf
                "PA transaction t%d aborted for deadlock: contradicts \
                 Corollary 1"
                v))
      else
        (* a PA member of a mixed cycle is legitimate: Theorem 3 only
           promises the cycle has a 2PL member to victimize, and the PA
           transaction merely waits while the 2PL victim is aborted *)
        List.iter
          (fun m ->
            if is_pa st m then
              st.sink
                (Finding.make ~severity:Finding.Info ~event_index:i
                   ~txns:[ m ] ~check:"thm.pa-in-cycle"
                   (Printf.sprintf
                      "PA transaction t%d waits in a mixed deadlock cycle \
                       (broken by a 2PL victim)"
                      m)))
          cycle)
  | Rt.Lock_promoted _ | Rt.Lock_transformed _ | Rt.Lock_released _
  | Rt.Request_withdrawn _ | Rt.Ts_updated _ | Rt.Pa_backoff _
  | Rt.Site_crashed _ | Rt.Site_recovered _ | Rt.Request_dropped _
  | Rt.Site_wiped _ | Rt.Wal_replayed _ | Rt.Prepared _
  | Rt.Acceptor_promised _ | Rt.Acceptor_accepted _
  | Rt.Op_implemented _ | Rt.Reads_discarded _ -> ()

let sorted_writers store ~item ~site =
  let writers =
    List.fold_left
      (fun acc (e : Ccdb_storage.Store.log_entry) ->
        match e.kind with
        | Ccdb_model.Op.Write -> e.txn :: acc
        | Ccdb_model.Op.Read -> acc)
      [] (Ccdb_storage.Store.log store ~item ~site)
    |> Array.of_list
  in
  Array.sort Int.compare writers;
  writers

let mem_sorted (a : int array) x =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let v = a.(mid) in
    v = x || if v < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let finish ?store ?serializability st =
  (* 2PC atomicity: a transaction's terminal decisions must agree.  Commits
     are sticky per (txn, site); an abort only counts as terminal when no
     later round committed the transaction at that site. *)
  let decisions_of : (int * bool) list ref Int_tbl.t = Int_tbl.create 64 in
  Pair_tbl.iter
    (fun (txn, site) commit ->
      match Int_tbl.find_opt decisions_of txn with
      | Some r -> r := (site, commit) :: !r
      | None -> Int_tbl.add decisions_of txn (ref [ (site, commit) ]))
    st.last_decision;
  Int_tbl.iter
    (fun txn r ->
      let committed_at =
        List.filter_map (fun (s, c) -> if c then Some s else None) !r
      and aborted_at =
        List.filter_map (fun (s, c) -> if not c then Some s else None) !r
      in
      if committed_at <> [] && aborted_at <> [] then
        st.sink
          (Finding.make ~txns:[ txn ] ~check:"thm.partial-commit"
             (Printf.sprintf
                "t%d committed at site%s %s but its last decision at site%s \
                 %s is abort (2PC atomicity violated)"
                txn
                (if List.length committed_at > 1 then "s" else "")
                (String.concat ","
                   (List.map string_of_int
                      (List.sort Int.compare committed_at)))
                (if List.length aborted_at > 1 then "s" else "")
                (String.concat ","
                   (List.map string_of_int
                      (List.sort Int.compare aborted_at))))))
    decisions_of;
  (match store with
   | None -> ()
   | Some store ->
     let witness =
       match serializability with
       | Some verdict -> verdict ()
       | None -> (
         let logs = Ccdb_storage.Store.logs store in
         match Ccdb_serial.Check.violation_witness logs with
         | None -> None
         | Some cycle -> Some (Ccdb_serial.Check.witness_detail logs cycle))
     in
     (match witness with
      | None -> ()
      | Some edges ->
        st.sink
          (Finding.make
             ~txns:
               (List.map
                  (fun (e : Ccdb_serial.Incremental.edge) -> e.src)
                  edges)
             ~cycle:edges ~check:not_serializable
             "implementation logs are not conflict-serializable \
              (contradicts Theorem 2)"));
     if not (Ccdb_serial.Check.replica_consistent store) then
       st.sink
         (Finding.make ~check:"thm.replica-divergence"
            "replicas of at least one item diverge (contradicts \
             read-one/write-all under Theorem 2)");
     (* durability: write-all means every committed write reaches the
        implementation log of every catalog copy, crashes or not.  Each
        copy's log is read once, on first need, into its sorted writer ids
        (by copy id); a committed write is then a binary search. *)
     let catalog = Ccdb_storage.Store.catalog store in
     let writers = Array.make (Ccdb_storage.Catalog.copy_count catalog) None in
     let implemented ~item ~site txn =
       let id = Ccdb_storage.Catalog.copy_id catalog ~item ~site in
       let ws =
         match writers.(id) with
         | Some ws -> ws
         | None ->
           let ws = sorted_writers store ~item ~site in
           writers.(id) <- Some ws;
           ws
       in
       mem_sorted ws txn
     in
     Int_tbl.iter
       (fun id (txn : Ccdb_model.Txn.t) ->
         List.iter
           (fun item ->
             List.iter
               (fun site ->
                 if
                   (not (Lookup.Triple.mem st.twr_dropped (id, item, site)))
                   && not (implemented ~item ~site id)
                 then
                   st.sink
                     (Finding.make ~txns:[ id ] ~copy:(item, site)
                        ~check:"thm.durability-lost"
                        (Printf.sprintf
                           "committed write of t%d on item %d is missing \
                            from site %d's implementation log"
                           id item site)))
               (Ccdb_storage.Catalog.copies catalog item))
           txn.write_set)
       st.committed_txns)

let cross_check ~serializable report =
  let findings = Report.findings report in
  if
    List.exists (fun (f : Finding.t) -> f.check = not_serializable) findings
    <> serializable
  then report
  else
    Report.make ~events_scanned:(Report.events_scanned report)
      (findings
      @ [ Finding.make ~check:"audit.divergence"
            (if serializable then
               "the incremental graph has a cycle the log scan has not"
             else "the log scan has a cycle the incremental graph has not")
        ])
