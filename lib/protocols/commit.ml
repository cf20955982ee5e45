(* Atomic commitment: Paxos Commit behind one client and one participant
   (commit.mli states the contract).  Two-phase commit is its F = 0 case
   (Gray & Lamport): the one acceptor is the transaction's home site, the
   same process as the ballot-0 leader, so its phase-2b and its copy of
   the decision are local steps and a fault-free round sends what 2PC
   sends.  At F >= 1 the acceptors are sites 0..2F and every step between
   two of them is a message, even on one site.

   Paxos details the interface leaves out: ballot b > 0 belongs to site
   b mod sites, so a takeover acceptor picks the next ballot above its
   highest promise in its own residue class and two candidates never
   collide; the takeover clock re-arms with a growing seeded per-site
   backoff until a decision is known; acceptors learn decisions but
   deliberately do not log them — a replayed acceptor re-arms, re-runs the
   protocol and converges on the same outcome, which every receiver
   absorbs idempotently. *)

(* Tables keyed by txn or by (site, txn).  Their hash is the generic one,
   so the folds whose order reaches the engine ([wipe]'s removals and
   [replay_acceptors]' re-armed clocks) run in the generic order, and
   keys compare inline. *)
module Int_tbl = Ccdb_util.Int_tbl
module Pair_tbl = Ccdb_util.Pair_tbl
module Int_list = Ccdb_util.Int_list

(* How long a prepared participant waits before (re-)asking for the
   outcome; the takeover clock's base is twice this. *)
let inquiry_timeout = 250.

(* How long the client terminal waits for a decision before re-driving. *)
let client_retry = 1200.

type hooks = {
  apply : txn:int -> site:int -> Ccdb_storage.Wal.action list -> unit;
  commit_point : txn:int -> unit;
}

(* The terminal that issued the transaction: outside the failure domain,
   so this record survives every crash and drives retry rounds. *)
type client = {
  home : int;
  participants : (int * Ccdb_storage.Wal.action list) list;
  mutable round : int;
  mutable decided : bool;
}

(* Ack collection at the home site once the outcome is commit.  Volatile:
   the acceptors' logs are the durable decision. *)
type ack_entry = {
  k_round : int;
  k_participants : int list;
  mutable k_acked : int list;
}

(* Prepared participant awaiting the round's outcome.  Always voted (the
   entry is created in the same atomic event as the Vote record), so a
   wipe rebuilds it from the WAL's in-doubt list. *)
type part_entry = {
  p_round : int;
  p_actions : Ccdb_storage.Wal.action list;
  p_timer : int; (* invalidates stale recurring inquiry timers *)
}

(* One acceptor's state for the highest round it has seen of one
   transaction.  [a_promised]/[a_accepted] mirror the WAL; the rest is
   volatile and rebuilt pessimistically on replay. *)
type acc_entry = {
  mutable a_round : int;
  mutable a_promised : int;                 (* highest promised ballot *)
  a_accepted : (int * bool) Int_tbl.t;      (* instance -> (ballot, value) *)
  mutable a_home : int option;
  mutable a_psites : int list option;       (* instance order *)
  mutable a_outcome : bool option;          (* known decision, volatile *)
  mutable a_timer : int;                    (* live takeover clock *)
  mutable a_attempts : int;                 (* takeover backoff attempts *)
}

(* A leader driving one ballot of one round (volatile).  Ballot 0 lives at
   the home site with phase 1 pre-skipped; takeover ballots live at the
   acceptor that seized leadership. *)
type lead_entry = {
  l_round : int;
  l_ballot : int;
  mutable l_phase2 : bool;
  (* phase 1: acceptor -> its accepted (instance, ballot, value) list *)
  mutable l_promises : (int * (int * int * bool) list) list;
  mutable l_home : int option;
  mutable l_psites : int list option;
  mutable l_values : (int * bool) list;    (* proposed value per instance *)
  mutable l_accepts : (int * int list) list; (* instance -> 2b senders *)
}

type t = {
  rt : Runtime.t;
  hooks : hooks;
  f : int;                           (* tolerated acceptor crashes *)
  clients : client Int_tbl.t;        (* txn -> terminal state *)
  acks : ack_entry Int_tbl.t;        (* txn, at the home site *)
  parts : part_entry Pair_tbl.t;     (* (site, txn) *)
  decided : int Pair_tbl.t;          (* (site, txn) -> commit round *)
  acceptors : acc_entry Pair_tbl.t;  (* (site, txn) *)
  leaders : lead_entry Pair_tbl.t;   (* (site, txn) *)
  mutable timer_seq : int;
}

let now t = Runtime.now t.rt
let wal t = Runtime.wal t.rt

let send t ~src ~dst ~kind f =
  Ccdb_sim.Net.send (Runtime.net t.rt) ~src ~dst ~kind f

let home_of t txn = (Int_tbl.find t.clients txn).home

let nsites t = Ccdb_sim.Net.sites (Runtime.net t.rt)
let quorum t = t.f + 1

(* At F = 0 the one acceptor is the transaction's home site; at F >= 1
   the acceptors are sites 0..2F. *)
let acceptor_sites t txn =
  if t.f = 0 then [ home_of t txn ] else List.init ((2 * t.f) + 1) Fun.id

(* ballot 0 is the fast path led by the home site; ballot b > 0 belongs to
   acceptor site b mod sites *)
let leader_of_ballot t ~home ballot =
  if ballot = 0 then home else ballot mod nsites t

let log_decision t ~txn ~round ~site ~commit =
  let at = now t in
  Ccdb_storage.Wal.append (wal t) ~site ~at
    (Ccdb_storage.Wal.Decision { txn; round; commit });
  Runtime.emit t.rt (Runtime.Decision_logged { txn; site; round; commit; at })

let fire_commit_point t (c : client) ~txn =
  if not c.decided then begin
    c.decided <- true;
    t.hooks.commit_point ~txn
  end

let fresh_acceptor round =
  { a_round = round; a_promised = 0; a_accepted = Int_tbl.create 4;
    a_home = None; a_psites = None; a_outcome = None; a_timer = 0;
    a_attempts = 0 }

(* A higher round exists only because this one was decided (abort), so the
   old promise/accept state is dead weight.  Home and participant set are
   per-transaction and survive. *)
let reset_acceptor a round =
  a.a_round <- round;
  a.a_promised <- 0;
  Int_tbl.reset a.a_accepted;
  a.a_outcome <- None;
  a.a_attempts <- 0

(* --- the home site's ack table and the participants --------------------- *)

let on_ack t ~txn ~round ~site =
  match Int_tbl.find_opt t.acks txn with
  | Some k when k.k_round = round ->
    if not (Int_list.mem site k.k_acked) then k.k_acked <- site :: k.k_acked;
    if List.for_all (fun s -> Int_list.mem s k.k_acked) k.k_participants
    then Int_tbl.remove t.acks txn
  | Some _ | None -> ()

let ack t ~txn ~round ~site =
  send t ~src:site ~dst:(home_of t txn) ~kind:"px-ack" (fun () ->
      on_ack t ~txn ~round ~site)

(* Participant learns the round's outcome.  Exactly-once application: a
   decided participant only re-acknowledges; an unknown round is ignored
   (its prepare was superseded, or its abort is already logged).  An aborted
   round keeps the locks — the transaction is past execution and will be
   retried by the client. *)
let on_decision t ~txn ~round ~site ~commit =
  let key = (site, txn) in
  if Pair_tbl.mem t.decided key then begin
    if commit then ack t ~txn ~round ~site
  end
  else
    match Pair_tbl.find_opt t.parts key with
    | Some e when e.p_round = round ->
      if commit then begin
        log_decision t ~txn ~round ~site ~commit:true;
        t.hooks.apply ~txn ~site e.p_actions;
        Ccdb_storage.Wal.append (wal t) ~site ~at:(now t)
          (Ccdb_storage.Wal.Applied { txn; round });
        Pair_tbl.replace t.decided key round;
        Pair_tbl.remove t.parts key;
        ack t ~txn ~round ~site
      end
      else begin
        log_decision t ~txn ~round ~site ~commit:false;
        Pair_tbl.remove t.parts key
      end
    | Some _ | None -> ()

(* --- a quorum of acceptors decides ---------------------------------------- *)

(* The home terminal learns the outcome: fire the commit point once, or
   advance the retry round past a learned abort. *)
let on_client_decision t ~txn ~round ~commit =
  match Int_tbl.find_opt t.clients txn with
  | None -> ()
  | Some c ->
    if commit then begin
      fire_commit_point t c ~txn;
      if not (Int_tbl.mem t.acks txn) then
        Int_tbl.replace t.acks txn
          { k_round = round; k_participants = List.map fst c.participants;
            k_acked = [] }
    end
    else if (not c.decided) && c.round = round then c.round <- c.round + 1

(* An acceptor that learns the decision stops its takeover clock.  The
   decision is deliberately not logged: see the module comment. *)
let on_acc_decision t ~txn ~round ~site ~commit =
  match Pair_tbl.find_opt t.acceptors (site, txn) with
  | Some a when a.a_round = round ->
    if Option.is_none a.a_outcome then a.a_outcome <- Some commit
  | Some _ | None -> ()

(* The learned outcome IS the commit point (a quorum of acceptors holds it
   durably), so the client-side transition runs synchronously at decision
   time — at F = 0 when the last vote lands, as in 2PC.  Participants
   applying on their (later) decision messages therefore always release
   locks after the commit event, whatever the message delays and losses
   en route.  At F = 0 the leader is the acceptor, which learns the
   decision in place. *)
let distribute t ~src ~txn ~round ~commit ~psites =
  on_client_decision t ~txn ~round ~commit;
  List.iter
    (fun site ->
      send t ~src ~dst:site ~kind:"px-decision" (fun () ->
          on_decision t ~txn ~round ~site ~commit))
    psites;
  if t.f = 0 then on_acc_decision t ~txn ~round ~site:src ~commit
  else
    List.iter
      (fun a ->
        send t ~src ~dst:a ~kind:"px-decision" (fun () ->
            on_acc_decision t ~txn ~round ~site:a ~commit))
      (acceptor_sites t txn)

let try_decide t ~leader ~txn (l : lead_entry) =
  match (l.l_psites, l.l_home) with
  | Some psites, Some _ ->
    let n = List.length psites in
    let q = quorum t in
    let instance_done i =
      match Int_list.assoc_opt i l.l_accepts with
      | Some acks -> List.length acks >= q
      | None -> false
    in
    let rec all_done i = i >= n || (instance_done i && all_done (i + 1)) in
    if all_done 0 then begin
      let commit = List.for_all snd l.l_values in
      Pair_tbl.remove t.leaders (leader, txn);
      distribute t ~src:leader ~txn ~round:l.l_round ~commit ~psites
    end
  | _ -> ()

(* Phase 2b, counted by the ballot's leader.  One proposer per (ballot,
   instance) means every 2b of a ballot carries the proposed value, so
   counting distinct acceptors is enough. *)
let on_2b t ~txn ~round ~instance ~ballot ~acceptor ~leader =
  match Pair_tbl.find_opt t.leaders (leader, txn) with
  | Some l when l.l_round = round && l.l_ballot = ballot && l.l_phase2 ->
    let cur =
      Option.value ~default:[] (Int_list.assoc_opt instance l.l_accepts)
    in
    if not (Int_list.mem acceptor cur) then begin
      l.l_accepts <-
        (instance, acceptor :: cur)
        :: Int_list.remove_assoc instance l.l_accepts;
      try_decide t ~leader ~txn l
    end
  | Some _ | None -> ()

(* At F = 0 every ballot's leader is the one acceptor, so its 2b is a
   local step. *)
let send_2b t ~acceptor ~txn ~round ~instance ~ballot ~home =
  let leader = leader_of_ballot t ~home ballot in
  if t.f = 0 then on_2b t ~txn ~round ~instance ~ballot ~acceptor ~leader
  else
    send t ~src:acceptor ~dst:leader ~kind:"px-2b" (fun () ->
        on_2b t ~txn ~round ~instance ~ballot ~acceptor ~leader)

(* Phase 2a at an acceptor: accept iff the ballot meets our promise, force
   the accept record, answer the ballot's leader.  A stale ballot re-sends
   the accept we hold — without logging and without regressing. *)
let rec on_2a t ~txn ~round ~instance ~ballot ~value ~home ~psites ~acceptor
    =
  let key = (acceptor, txn) in
  let entry =
    match Pair_tbl.find_opt t.acceptors key with
    | Some a when a.a_round = round -> Some a
    | Some a when a.a_round < round ->
      reset_acceptor a round;
      Some a
    | Some _ ->
      (* the round was superseded, which only happens after it aborted:
         unblock the instance's participant directly *)
      (match List.nth_opt psites instance with
      | Some p ->
        send t ~src:acceptor ~dst:p ~kind:"px-decision" (fun () ->
            on_decision t ~txn ~round ~site:p ~commit:false)
      | None -> ());
      None
    | None ->
      let a = fresh_acceptor round in
      Pair_tbl.add t.acceptors key a;
      Some a
  in
  match entry with
  | None -> ()
  | Some a ->
    if Option.is_none a.a_home then a.a_home <- Some home;
    if Option.is_none a.a_psites then a.a_psites <- Some psites;
    if ballot < a.a_promised then (
      match Int_tbl.find_opt a.a_accepted instance with
      | Some (b, _) ->
        send_2b t ~acceptor ~txn ~round ~instance ~ballot:b ~home
      | None -> ())
    else begin
      let first_accept = Int_tbl.length a.a_accepted = 0 in
      let duplicate =
        match Int_tbl.find_opt a.a_accepted instance with
        | Some (b, v) -> b = ballot && v = value
        | None -> false
      in
      if not duplicate then begin
        Int_tbl.replace a.a_accepted instance (ballot, value);
        (* accepting a ballot implies promising it *)
        if ballot > a.a_promised then a.a_promised <- ballot;
        let at = now t in
        Ccdb_storage.Wal.append (wal t) ~site:acceptor ~at
          (Ccdb_storage.Wal.Acceptor_accept
             { txn; round; instance; ballot; prepared = value; home; psites });
        Runtime.emit t.rt
          (Runtime.Acceptor_accepted
             { txn; site = acceptor; round; instance; ballot; prepared = value;
               at })
      end;
      send_2b t ~acceptor ~txn ~round ~instance ~ballot ~home;
      if first_accept && Option.is_none a.a_outcome then begin
        t.timer_seq <- t.timer_seq + 1;
        a.a_timer <- t.timer_seq;
        arm_takeover t ~acceptor ~txn ~round ~timer:a.a_timer
          ~attempt:a.a_attempts
      end
    end

(* Phase 1a: promise iff the ballot beats everything seen, force the
   promise record, report our accepts so the new leader proposes safely. *)
and on_1a t ~txn ~round ~ballot ~leader ~acceptor =
  match Pair_tbl.find_opt t.acceptors (acceptor, txn) with
  | Some a when a.a_round > round ->
    (* superseded rounds aborted; let the stale leader stand down *)
    send t ~src:acceptor ~dst:leader ~kind:"px-decision" (fun () ->
        on_acc_decision t ~txn ~round ~site:leader ~commit:false)
  | entry ->
    let a =
      match entry with
      | Some a when a.a_round = round -> a
      | Some a ->
        reset_acceptor a round;
        a
      | None ->
        let a = fresh_acceptor round in
        Pair_tbl.add t.acceptors (acceptor, txn) a;
        a
    in
    if ballot > a.a_promised then begin
      a.a_promised <- ballot;
      let at = now t in
      Ccdb_storage.Wal.append (wal t) ~site:acceptor ~at
        (Ccdb_storage.Wal.Acceptor_promise { txn; round; ballot });
      Runtime.emit t.rt
        (Runtime.Acceptor_promised { txn; site = acceptor; round; ballot; at })
    end;
    if ballot >= a.a_promised then begin
      let accepted =
        (* one accept per instance, so the instance orders them *)
        List.sort
          (fun (i, _, _) (j, _, _) -> Int.compare i j)
          (Int_tbl.fold
             (fun i (b, v) acc -> (i, b, v) :: acc)
             a.a_accepted [])
      in
      let home = a.a_home and psites = a.a_psites in
      send t ~src:acceptor ~dst:leader ~kind:"px-1b" (fun () ->
          on_1b t ~txn ~round ~ballot ~acceptor ~accepted ~home ~psites
            ~leader)
    end

and on_1b t ~txn ~round ~ballot ~acceptor ~accepted ~home ~psites ~leader =
  match Pair_tbl.find_opt t.leaders (leader, txn) with
  | Some l when l.l_round = round && l.l_ballot = ballot && not l.l_phase2 ->
    if Option.is_none l.l_home then l.l_home <- home;
    if Option.is_none l.l_psites then l.l_psites <- psites;
    if not (Int_list.mem_assoc acceptor l.l_promises) then
      l.l_promises <- (acceptor, accepted) :: l.l_promises;
    if List.length l.l_promises >= quorum t then
      start_phase2 t ~leader ~txn l
  | Some _ | None -> ()

(* Phase 1 is complete: propose, per instance, the highest-ballot value any
   quorum member accepted — or Aborted for instances nobody started.  If no
   quorum member knew the participant set (every acceptor replayed from a
   wipe before learning it), stand down; the takeover clock retries and the
   client's round-level retry re-teaches the set. *)
and start_phase2 t ~leader ~txn (l : lead_entry) =
  match (l.l_psites, l.l_home) with
  | Some psites, Some home ->
    l.l_phase2 <- true;
    let value_for i =
      List.fold_left
        (fun best (_, accepted) ->
          List.fold_left
            (fun best (j, b, v) ->
              if j <> i then best
              else
                match best with
                | Some (b', _) when b' >= b -> best
                | _ -> Some (b, v))
            best accepted)
        None l.l_promises
    in
    l.l_values <-
      List.init (List.length psites) (fun i ->
          (i, match value_for i with Some (_, v) -> v | None -> false));
    List.iter
      (fun (i, v) ->
        List.iter
          (fun a ->
            send t ~src:leader ~dst:a ~kind:"px-2a" (fun () ->
                on_2a t ~txn ~round:l.l_round ~instance:i ~ballot:l.l_ballot
                  ~value:v ~home ~psites ~acceptor:a))
          (acceptor_sites t txn))
      l.l_values
  | _ -> ()

and start_takeover t ~acceptor ~txn (a : acc_entry) =
  let n = nsites t in
  let ballot = (((a.a_promised / n) + 1) * n) + acceptor in
  let supersedes =
    match Pair_tbl.find_opt t.leaders (acceptor, txn) with
    | Some l ->
      l.l_round < a.a_round || (l.l_round = a.a_round && l.l_ballot < ballot)
    | None -> true
  in
  if supersedes then begin
    Pair_tbl.replace t.leaders (acceptor, txn)
      { l_round = a.a_round; l_ballot = ballot; l_phase2 = false;
        l_promises = []; l_home = a.a_home; l_psites = a.a_psites;
        l_values = []; l_accepts = [] };
    List.iter
      (fun dst ->
        send t ~src:acceptor ~dst ~kind:"px-1a" (fun () ->
            on_1a t ~txn ~round:a.a_round ~ballot ~leader:acceptor
              ~acceptor:dst))
      (acceptor_sites t txn)
  end

(* The takeover clock: armed at an acceptor's first accept, re-armed until
   the outcome is known.  Its base is twice the inquiry timeout, so
   prepared participants get to ask before anyone seizes leadership.  The
   runtime's seeded per-site backoff caps every delay at 800 units, below
   the 1a/1b/2a/2b exchange a takeover needs through a lossy transport,
   so the acceptors' clocks would keep preempting each other's ballots
   forever; doubling the capped delay with every attempt lets one leader
   run uncontested long enough. *)
and arm_takeover t ~acceptor ~txn ~round ~timer ~attempt =
  let after =
    Float.ldexp
      (Runtime.restart_backoff t.rt ~site:acceptor
         ~base:(2. *. inquiry_timeout) ~attempt)
      (Int.min attempt 8)
  in
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after (fun () ->
         match Pair_tbl.find_opt t.acceptors (acceptor, txn) with
         | Some a when a.a_timer = timer && a.a_round = round -> (
           match a.a_outcome with
           | Some _ -> ()
           | None ->
             start_takeover t ~acceptor ~txn a;
             a.a_attempts <- a.a_attempts + 1;
             arm_takeover t ~acceptor ~txn ~round ~timer
               ~attempt:a.a_attempts)
         | Some _ | None -> ()))

(* Outcome inquiry from a prepared participant.  An acceptor that does not
   know the outcome stays silent — it must not presume abort, because the
   round may have committed without it; its takeover clock decides the
   round.  A superseded round, though, is known-aborted. *)
let on_inquire_acc t ~txn ~round ~from ~acceptor =
  match Pair_tbl.find_opt t.acceptors (acceptor, txn) with
  | Some a when a.a_round = round -> (
    match a.a_outcome with
    | Some commit ->
      send t ~src:acceptor ~dst:from ~kind:"px-decision" (fun () ->
          on_decision t ~txn ~round ~site:from ~commit)
    | None -> ())
  | Some a when a.a_round > round ->
    send t ~src:acceptor ~dst:from ~kind:"px-decision" (fun () ->
        on_decision t ~txn ~round ~site:from ~commit:false)
  | Some _ | None -> ()

(* --- the participant's vote and inquiry, and the home site's begin ------ *)

(* A participant's yes vote: a ballot-0 phase-2a to every acceptor (the
   Paxos Commit fast path; at F = 0, 2PC's vote to the coordinator). *)
let vote t ~txn ~round ~instance ~home ~psites ~site =
  List.iter
    (fun a ->
      send t ~src:site ~dst:a ~kind:"px-2a" (fun () ->
          on_2a t ~txn ~round ~instance ~ballot:0 ~value:true ~home ~psites
            ~acceptor:a))
    (acceptor_sites t txn)

(* A prepared participant asks every acceptor for the outcome. *)
let inquire t ~site ~txn e =
  List.iter
    (fun a ->
      send t ~src:site ~dst:a ~kind:"px-inquire" (fun () ->
          on_inquire_acc t ~txn ~round:e.p_round ~from:site ~acceptor:a))
    (acceptor_sites t txn)

(* Coordinator-crash termination: a prepared participant periodically asks
   for the outcome until it learns one.  The timer re-arms only while its
   entry is still the live one, so quiescence is reached once every
   transaction decides. *)
let rec arm_inquiry t ~site ~txn ~timer =
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after:inquiry_timeout
       (fun () ->
         match Pair_tbl.find_opt t.parts (site, txn) with
         | Some e when e.p_timer = timer ->
           inquire t ~site ~txn e;
           arm_inquiry t ~site ~txn ~timer
         | Some _ | None -> ()))

(* Prepare at a participant: force the round's Prewrite records and the
   Vote, then vote.  A duplicate prepare re-votes for the round asked
   about only (an older round is known-aborted).  A newer round supersedes
   the previous one, which is dead: its abort keeps the WAL replayable;
   the locks are untouched. *)
let on_prepare t ~txn ~round ~instance ~home ~psites ~site actions =
  let key = (site, txn) in
  if Pair_tbl.mem t.decided key then ack t ~txn ~round ~site
  else
    match Pair_tbl.find_opt t.parts key with
    | Some e when e.p_round >= round ->
      if e.p_round = round then vote t ~txn ~round ~instance ~home ~psites ~site
    | prev ->
      (match prev with
       | Some e -> log_decision t ~txn ~round:e.p_round ~site ~commit:false
       | None -> ());
      let at = now t in
      List.iter
        (fun action ->
          Ccdb_storage.Wal.append (wal t) ~site ~at
            (Ccdb_storage.Wal.Prewrite { txn; round; action }))
        actions;
      Ccdb_storage.Wal.append (wal t) ~site ~at
        (Ccdb_storage.Wal.Vote { txn; round; coordinator = home });
      t.timer_seq <- t.timer_seq + 1;
      let timer = t.timer_seq in
      Pair_tbl.replace t.parts key
        { p_round = round; p_actions = actions; p_timer = timer };
      Runtime.emit t.rt (Runtime.Prepared { txn; site; round; at });
      vote t ~txn ~round ~instance ~home ~psites ~site;
      arm_inquiry t ~site ~txn ~timer

(* The home site starts a round as its ballot-0 leader, phase 1
   pre-skipped. *)
let on_begin t ~txn ~round =
  match Int_tbl.find_opt t.clients txn with
  | Some c when (not c.decided) && round >= c.round ->
    let psites = List.map fst c.participants in
    (match Pair_tbl.find_opt t.leaders (c.home, txn) with
     | Some l when l.l_round >= round ->
       () (* the live round re-begun, or a takeover at our own site *)
     | Some _ | None ->
       Pair_tbl.replace t.leaders (c.home, txn)
         { l_round = round; l_ballot = 0; l_phase2 = true; l_promises = [];
           l_home = Some c.home; l_psites = Some psites;
           l_values = List.mapi (fun i _ -> (i, true)) psites;
           l_accepts = [] });
    List.iteri
      (fun instance (site, actions) ->
        send t ~src:c.home ~dst:site ~kind:"px-prepare" (fun () ->
            on_prepare t ~txn ~round ~instance ~home:c.home ~psites ~site
              actions))
      c.participants
  | Some _ | None -> ()

(* --- client ------------------------------------------------------------ *)

let begin_round t txn =
  match Int_tbl.find_opt t.clients txn with
  | Some c when not c.decided ->
    let round = c.round in
    send t ~src:c.home ~dst:c.home ~kind:"px-begin" (fun () ->
        on_begin t ~txn ~round)
  | Some _ | None -> ()

(* The client re-drives the current round, which only advanced if an abort
   was learned since the last tick; resent prepares are idempotent. *)
let rec arm_client_retry t txn =
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after:client_retry
       (fun () ->
         match Int_tbl.find_opt t.clients txn with
         | Some c when not c.decided ->
           begin_round t txn;
           arm_client_retry t txn
         | Some _ | None -> ()))

let commit t ~txn ~home ~participants =
  if Int_tbl.mem t.clients txn then
    invalid_arg "Commit.commit: duplicate transaction";
  Int_tbl.add t.clients txn { home; participants; round = 0; decided = false };
  begin_round t txn;
  arm_client_retry t txn

let participants ~site ~action copies =
  let by_site = ref [] in
  List.iter
    (fun copy ->
      let a = action copy in
      match Int_list.assoc_opt (site copy) !by_site with
      | Some r -> r := a :: !r
      | None -> by_site := (site copy, ref [ a ]) :: !by_site)
    copies;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !by_site
  |> List.map (fun (s, r) -> (s, List.rev !r))

(* --- crash / recovery --------------------------------------------------- *)

(* Fail-stop wipe of one site's commit state.  Participant and acceptor
   entries mirror the WAL (the acceptors' promise and accept records) and
   count as preserved; leaders and the ack table are lost (another leader,
   or a client retry, re-drives the round). *)
let wipe t site =
  let at_home txn = home_of t txn = site in
  let drop tbl =
    let keys =
      Int_tbl.fold (fun k _ acc -> if at_home k then k :: acc else acc) tbl []
    in
    List.iter (Int_tbl.remove tbl) keys;
    List.length keys
  in
  let drop_here tbl =
    let keys =
      Pair_tbl.fold
        (fun ((s, _) as k) _ acc -> if s = site then k :: acc else acc)
        tbl []
    in
    List.iter (Pair_tbl.remove tbl) keys;
    List.length keys
  in
  let acks = drop t.acks in
  let parts = drop_here t.parts in
  ignore (drop_here t.decided);
  let leaders = drop_here t.leaders in
  (acks + leaders, parts + drop_here t.acceptors)

(* Replayed acceptor state re-arms its takeover clock: the outcome is
   unknown after a wipe, and if the round was in fact already decided the
   re-run converges on the same outcome, absorbed idempotently everywhere.
   Only each transaction's highest replayed round matters: lower rounds
   are known-aborted. *)
let replay_acceptors t site (r : Ccdb_storage.Wal.replay) =
  let best : int Int_tbl.t = Int_tbl.create 16 in
  let note txn round =
    match Int_tbl.find_opt best txn with
    | Some r when r >= round -> ()
    | Some _ | None -> Int_tbl.replace best txn round
  in
  List.iter (fun ((txn, round), _) -> note txn round) r.promised;
  List.iter (fun ((txn, round, _), _) -> note txn round) r.accepted;
  Int_tbl.iter
    (fun txn round ->
      let a = fresh_acceptor round in
      List.iter
        (fun ((txn', round'), b) ->
          if txn' = txn && round' = round && b > a.a_promised then
            a.a_promised <- b)
        r.promised;
      List.iter
        (fun ((txn', round', instance), (b, v)) ->
          if txn' = txn && round' = round then begin
            Int_tbl.replace a.a_accepted instance (b, v);
            (* an accept implies the matching promise even if the promise
               record itself predates this acceptor's knowledge *)
            if b > a.a_promised then a.a_promised <- b
          end)
        r.accepted;
      (* the accept records carry the round's home and participant set, so
         this acceptor can lead a takeover on its own — essential when the
         client already learned the outcome and will never re-prepare *)
      let rec meta = function
        | [] -> ()
        | ((txn', round'), (home, psites)) :: rest ->
          if txn' = txn && round' = round then begin
            a.a_home <- Some home;
            a.a_psites <- Some psites
          end
          else meta rest
      in
      meta r.acc_meta;
      Pair_tbl.replace t.acceptors (site, txn) a;
      if Int_tbl.length a.a_accepted > 0 then begin
        t.timer_seq <- t.timer_seq + 1;
        a.a_timer <- t.timer_seq;
        arm_takeover t ~acceptor:site ~txn ~round ~timer:a.a_timer
          ~attempt:0
      end)
    best

(* Recovery: rebuild the WAL mirrors and immediately re-drive anything
   unfinished — in-doubt participants inquire and re-arm their inquiry
   clocks, acceptors re-arm their takeover clocks. *)
let replay t site (r : Ccdb_storage.Wal.replay) =
  List.iter
    (fun (txn, round, commit) ->
      if commit then Pair_tbl.replace t.decided (site, txn) round)
    r.decided;
  List.iter
    (fun (txn, round, actions) ->
      t.timer_seq <- t.timer_seq + 1;
      let timer = t.timer_seq in
      let e = { p_round = round; p_actions = actions; p_timer = timer } in
      Pair_tbl.replace t.parts (site, txn) e;
      inquire t ~site ~txn e;
      arm_inquiry t ~site ~txn ~timer)
    r.in_doubt;
  replay_acceptors t site r

let create rt hooks =
  if not (Runtime.durable rt) then
    invalid_arg "Commit.create: runtime is not durable";
  let (Runtime.Paxos { f }) = Runtime.commit_protocol rt in
  let t =
    { rt; hooks; f;
      clients = Int_tbl.create 64;
      acks = Int_tbl.create 64;
      parts = Pair_tbl.create 64;
      decided = Pair_tbl.create 64;
      acceptors = Pair_tbl.create 64;
      leaders = Pair_tbl.create 64;
      timer_seq = 0 }
  in
  Runtime.on_site_wipe rt (fun site -> wipe t site);
  Runtime.on_wal_replay rt (fun site r -> replay t site r);
  t
