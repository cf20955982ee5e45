(* Consensus-commit auditor (Paxos Commit, DESIGN.md §15).

   - consensus.split-decision: two sites log different terminal outcomes
     for one (txn, round).  A round number only advances after its
     predecessor's abort was *learned*, so a same-round split is a
     genuine safety violation of the one-outcome-per-round guarantee.
   - consensus.ballot-regression: an acceptor accepts a ballot below one
     it promised (or below one it already accepted, which implies the
     promise); breaks the phase-1/phase-2 ordering Paxos safety rests on.
   - consensus.blocking-window: a participant is still prepared (in-doubt)
     when the trace quiesces even though its site is up — the blocking
     window non-blocking commit exists to close.  Sites still inside a
     crash window at end of trace are excused.

   Every durable run commits through Paxos Commit (2PC is its F = 0
   case), so the checks apply to every transaction. *)

module Rt = Ccdb_protocols.Runtime
module Lookup = Ccdb_util.Lookup_tbl

(* Only [in_doubt] is iterated, and [finish] sorts what it collects. *)
type state = {
  (* (txn, round) -> (first commit site, first abort site) *)
  outcomes : (int option * int option) Lookup.Pair.t;
  split_reported : unit Lookup.Pair.t;
  (* (site, txn, round) -> highest ballot promised (incl. accept-implied) *)
  promised : int Lookup.Triple.t;
  (* prepared, not yet decided: (txn, site) *)
  in_doubt : unit Lookup.Pair.t;
  crashed : unit Lookup.Int.t;
  sink : Finding.t -> unit;
}

let create sink =
  { outcomes = Lookup.Pair.create 64;
    split_reported = Lookup.Pair.create 8; promised = Lookup.Triple.create 64;
    in_doubt = Lookup.Pair.create 64; crashed = Lookup.Int.create 8;
    sink }

let feed st i event =
  match event with
  | Rt.Site_crashed { site; _ } -> Lookup.Int.replace st.crashed site ()
  | Rt.Site_recovered { site; _ } -> Lookup.Int.remove st.crashed site
  | Rt.Prepared { txn; site; _ } ->
    Lookup.Pair.replace st.in_doubt (txn, site) ()
  | Rt.Decision_logged { txn; site; round; commit; _ } ->
    Lookup.Pair.remove st.in_doubt (txn, site);
    let c, a =
      Option.value ~default:(None, None)
        (Lookup.Pair.find_opt st.outcomes (txn, round))
    in
    let c = if commit && Option.is_none c then Some site else c
    and a = if (not commit) && Option.is_none a then Some site else a in
    Lookup.Pair.replace st.outcomes (txn, round) (c, a);
    (match (c, a) with
     | Some cs, Some as_
       when not (Lookup.Pair.mem st.split_reported (txn, round)) ->
       Lookup.Pair.replace st.split_reported (txn, round) ();
       st.sink
         (Finding.make ~event_index:i ~txns:[ txn ]
            ~check:"consensus.split-decision"
            (Printf.sprintf
               "round %d of t%d committed at site %d but aborted at site %d \
                (one outcome per round violated)"
               round txn cs as_))
     | _ -> ())
  | Rt.Acceptor_promised { txn; site; round; ballot; _ } ->
    let key = (site, txn, round) in
    let prev =
      Option.value ~default:0 (Lookup.Triple.find_opt st.promised key)
    in
    if ballot > prev then Lookup.Triple.replace st.promised key ballot
  | Rt.Acceptor_accepted { txn; site; round; instance; ballot; _ } ->
    let key = (site, txn, round) in
    let prev =
      Option.value ~default:0 (Lookup.Triple.find_opt st.promised key)
    in
    if ballot < prev then
      st.sink
        (Finding.make ~event_index:i ~txns:[ txn ]
           ~check:"consensus.ballot-regression"
           (Printf.sprintf
              "acceptor site %d accepted ballot %d for t%d round %d \
               instance %d below its promise %d"
              site ballot txn round instance prev))
    else Lookup.Triple.replace st.promised key ballot
  | Rt.Lock_requested _ | Rt.Lock_granted _ | Rt.Lock_promoted _
  | Rt.Lock_transformed _ | Rt.Lock_released _ | Rt.Request_withdrawn _
  | Rt.Ts_updated _ | Rt.Deadlock_detected _ | Rt.Txn_committed _
  | Rt.Txn_restarted _ | Rt.Pa_backoff _ | Rt.Request_dropped _
  | Rt.Site_wiped _ | Rt.Wal_replayed _ | Rt.Op_implemented _
  | Rt.Reads_discarded _ -> ()

let finish st =
  let stuck =
    Lookup.Pair.fold
      (fun (txn, site) () acc ->
        if Lookup.Int.mem st.crashed site then acc else (txn, site) :: acc)
      st.in_doubt []
  in
  List.iter
    (fun (txn, site) ->
      st.sink
        (Finding.make ~txns:[ txn ] ~check:"consensus.blocking-window"
           (Printf.sprintf
              "t%d is still in-doubt at live site %d after quiescence \
               (blocking window never closed)"
              txn site)))
    (List.sort compare stuck)
