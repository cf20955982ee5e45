(* Paxos Commit (Gray & Lamport): non-blocking atomic commitment.

   Each participant's vote is one single-decree Paxos instance run over a
   shared set of 2f+1 acceptors (sites 0..2f).  The transaction commits
   iff every instance decides Prepared; any instance may be driven to a
   decision by any acceptor, so a coordinator fail-stop inside the
   decision window no longer blocks (or presumed-aborts) the round the
   way 2PC does — as long as f+1 acceptors stay up, some leader finishes
   the protocol and the outcome is learned.

   Moving parts, mirroring [Two_pc] where the roles coincide:

   - The client terminal (outside the failure domain) drives retry rounds.
     Unlike 2PC, a retry re-drives the *same* round — resent prepares are
     idempotent and Paxos guarantees one outcome per round.  The round
     number only advances after a learned abort.
   - The coordinator (the home site) is the initial leader: it sends
     prepares carrying each participant's instance number, and counts
     ballot-0 phase-2b responses.
   - Participants force-log the same [Prewrite]/[Vote] records as 2PC
     (recovery's in-doubt machinery is shared), then act as their own
     ballot-0 proposers: the vote is a phase-2a sent straight to every
     acceptor, skipping phase 1 — the classic Paxos Commit fast path.
     Prepared participants periodically inquire *acceptors* (not the
     coordinator) for the outcome.
   - Acceptors force-log promises and accepts through the dedicated WAL
     records, so a fail-stop acceptor recovers its promise obligations by
     replay.  An acceptor arms a takeover clock at its first accept; if
     the outcome is still unknown when it fires, the acceptor assumes
     leadership with a ballot above everything it promised (ballots are
     disjoint by site: ballot b > 0 belongs to site b mod sites), runs
     phase 1, proposes the highest accepted value per instance — Aborted
     for instances no quorum member has a value for — and finishes phase
     2.  The clock re-arms with the runtime's capped seeded per-site
     backoff until a decision is known.
   - Decisions are distributed to the home terminal, every participant
     and every acceptor.  Participants log/apply exactly once (stale
     decisions only re-acknowledge); acceptors just stop their takeover
     clocks, and deliberately do not log the decision — a replayed
     acceptor re-arms, re-runs the protocol and converges on the same
     outcome, which every receiver absorbs idempotently. *)

type config = { inquiry_timeout : float; client_retry : float }

let default_config = { inquiry_timeout = 250.; client_retry = 1200. }

type hooks = {
  apply : txn:int -> site:int -> Ccdb_storage.Wal.action list -> unit;
  commit_point : txn:int -> unit;
}

(* The terminal that issued the transaction: outside the failure domain. *)
type client = {
  home : int;
  participants : (int * Ccdb_storage.Wal.action list) list;
  mutable round : int;
  mutable decided : bool;
}

(* Ack bookkeeping at the home site once a commit outcome reaches it.
   Purely volatile: unlike 2PC there is no coordinator commit record — the
   acceptors' logs are the durable decision. *)
type commit_entry = {
  k_round : int;
  k_participants : int list;
  mutable k_acked : int list;
}

(* Prepared participant awaiting the round's outcome (WAL-mirrored). *)
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
  a_accepted : (int, int * bool) Hashtbl.t; (* instance -> (ballot, value) *)
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
  config : config;
  hooks : hooks;
  f : int;                                     (* tolerated acceptor crashes *)
  clients : (int, client) Hashtbl.t;           (* txn -> terminal state *)
  committed : (int, commit_entry) Hashtbl.t;   (* txn, at the home site *)
  parts : (int * int, part_entry) Hashtbl.t;   (* (site, txn) *)
  acceptors : (int * int, acc_entry) Hashtbl.t; (* (site, txn) *)
  leaders : (int * int, lead_entry) Hashtbl.t; (* (site, txn) *)
  decided : (int * int, int) Hashtbl.t;        (* (site, txn) -> commit round *)
  mutable timer_seq : int;
}

let now t = Runtime.now t.rt
let wal t = Runtime.wal t.rt

let send t ~src ~dst ~kind f =
  Ccdb_sim.Net.send (Runtime.net t.rt) ~src ~dst ~kind f

let nsites t = Ccdb_sim.Net.sites (Runtime.net t.rt)
let quorum t = t.f + 1
let acceptor_sites t = List.init ((2 * t.f) + 1) Fun.id

(* ballot 0 is the fast path led by the home site; ballot b > 0 belongs to
   acceptor site b mod sites *)
let leader_of_ballot t ~home ballot =
  if ballot = 0 then home else ballot mod nsites t

let home_of t txn = (Hashtbl.find t.clients txn).home

let log_decision t ~txn ~round ~site ~commit =
  let at = now t in
  Ccdb_storage.Wal.append (wal t) ~site ~at
    (Ccdb_storage.Wal.Decision { txn; round; commit });
  Runtime.emit t.rt (Runtime.Decision_logged { txn; site; round; commit; at })

let fresh_acceptor round =
  { a_round = round; a_promised = 0; a_accepted = Hashtbl.create 4;
    a_home = None; a_psites = None; a_outcome = None; a_timer = 0;
    a_attempts = 0 }

(* A higher round exists only because this one was decided (abort), so the
   old promise/accept state is dead weight.  Home and participant set are
   per-transaction and survive. *)
let reset_acceptor a round =
  a.a_round <- round;
  a.a_promised <- 0;
  Hashtbl.reset a.a_accepted;
  a.a_outcome <- None;
  a.a_attempts <- 0

(* --- message handlers --------------------------------------------------- *)

let rec on_ack t ~txn ~round ~site =
  match Hashtbl.find_opt t.committed txn with
  | Some k when k.k_round = round ->
    if not (List.mem site k.k_acked) then k.k_acked <- site :: k.k_acked;
    if List.for_all (fun s -> List.mem s k.k_acked) k.k_participants then
      Hashtbl.remove t.committed txn
  | Some _ | None -> ()

and ack t ~txn ~round ~site =
  send t ~src:site ~dst:(home_of t txn) ~kind:"px-ack" (fun () ->
      on_ack t ~txn ~round ~site)

(* Participant learns the round's outcome.  Exactly-once application, same
   contract as 2PC: a decided participant only re-acknowledges, an aborted
   round keeps its locks for the client's next round. *)
and on_part_decision t ~txn ~round ~site ~commit =
  let key = (site, txn) in
  if Hashtbl.mem t.decided key then begin
    if commit then ack t ~txn ~round ~site
  end
  else
    match Hashtbl.find_opt t.parts key with
    | Some e when e.p_round = round ->
      if commit then begin
        log_decision t ~txn ~round ~site ~commit:true;
        t.hooks.apply ~txn ~site e.p_actions;
        Ccdb_storage.Wal.append (wal t) ~site ~at:(now t)
          (Ccdb_storage.Wal.Applied { txn; round });
        Hashtbl.replace t.decided key round;
        Hashtbl.remove t.parts key;
        ack t ~txn ~round ~site
      end
      else begin
        log_decision t ~txn ~round ~site ~commit:false;
        Hashtbl.remove t.parts key
      end
    | Some _ | None -> ()

(* The home terminal learns the outcome: fire the commit point once, or
   advance the retry round past a learned abort. *)
and on_client_decision t ~txn ~round ~commit =
  match Hashtbl.find_opt t.clients txn with
  | None -> ()
  | Some c ->
    if commit then begin
      if not c.decided then begin
        c.decided <- true;
        t.hooks.commit_point ~txn
      end;
      if not (Hashtbl.mem t.committed txn) then
        Hashtbl.replace t.committed txn
          { k_round = round; k_participants = List.map fst c.participants;
            k_acked = [] }
    end
    else if (not c.decided) && c.round = round then c.round <- c.round + 1

(* An acceptor that learns the decision stops its takeover clock.  The
   decision is deliberately not logged: see the module comment. *)
and on_acc_decision t ~txn ~round ~site ~commit =
  match Hashtbl.find_opt t.acceptors (site, txn) with
  | Some a when a.a_round = round ->
    if a.a_outcome = None then a.a_outcome <- Some commit
  | Some _ | None -> ()

(* The learned outcome IS the commit point (a quorum of acceptors holds it
   durably), so the client-side transition runs synchronously at decision
   time — exactly where 2PC fires its hook when the last vote lands.
   Participants applying on their (later) decision messages therefore
   always release locks after the commit event, whatever the message
   delays and losses en route. *)
and distribute t ~src ~txn ~round ~commit ~home:_ ~psites =
  on_client_decision t ~txn ~round ~commit;
  List.iter
    (fun site ->
      send t ~src ~dst:site ~kind:"px-decision" (fun () ->
          on_part_decision t ~txn ~round ~site ~commit))
    psites;
  List.iter
    (fun a ->
      send t ~src ~dst:a ~kind:"px-decision" (fun () ->
          on_acc_decision t ~txn ~round ~site:a ~commit))
    (acceptor_sites t)

(* Phase 2b, counted by the ballot's leader.  One proposer per (ballot,
   instance) means every 2b of a ballot carries the proposed value, so
   counting distinct acceptors is enough. *)
and on_2b t ~txn ~round ~instance ~ballot ~acceptor ~leader =
  match Hashtbl.find_opt t.leaders (leader, txn) with
  | Some l when l.l_round = round && l.l_ballot = ballot && l.l_phase2 ->
    let cur = Option.value ~default:[] (List.assoc_opt instance l.l_accepts) in
    if not (List.mem acceptor cur) then begin
      l.l_accepts <-
        (instance, acceptor :: cur) :: List.remove_assoc instance l.l_accepts;
      try_decide t ~leader ~txn l
    end
  | Some _ | None -> ()

and try_decide t ~leader ~txn (l : lead_entry) =
  match (l.l_psites, l.l_home) with
  | Some psites, Some home ->
    let n = List.length psites in
    let q = quorum t in
    let instance_done i =
      match List.assoc_opt i l.l_accepts with
      | Some acks -> List.length acks >= q
      | None -> false
    in
    let rec all_done i = i >= n || (instance_done i && all_done (i + 1)) in
    if all_done 0 then begin
      let commit = List.for_all snd l.l_values in
      Hashtbl.remove t.leaders (leader, txn);
      distribute t ~src:leader ~txn ~round:l.l_round ~commit ~home ~psites
    end
  | _ -> ()

and send_2b t ~acceptor ~txn ~round ~instance ~ballot ~home =
  let leader = leader_of_ballot t ~home ballot in
  send t ~src:acceptor ~dst:leader ~kind:"px-2b" (fun () ->
      on_2b t ~txn ~round ~instance ~ballot ~acceptor ~leader)

(* Phase 2a at an acceptor: accept iff the ballot meets our promise, force
   the accept record, answer the ballot's leader.  A stale ballot re-sends
   the accept we hold — without logging and without regressing. *)
and on_2a t ~txn ~round ~instance ~ballot ~value ~home ~psites ~acceptor =
  let key = (acceptor, txn) in
  let entry =
    match Hashtbl.find_opt t.acceptors key with
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
            on_part_decision t ~txn ~round ~site:p ~commit:false)
      | None -> ());
      None
    | None ->
      let a = fresh_acceptor round in
      Hashtbl.add t.acceptors key a;
      Some a
  in
  match entry with
  | None -> ()
  | Some a ->
    if a.a_home = None then a.a_home <- Some home;
    if a.a_psites = None then a.a_psites <- Some psites;
    if ballot < a.a_promised then (
      match Hashtbl.find_opt a.a_accepted instance with
      | Some (b, _) -> send_2b t ~acceptor ~txn ~round ~instance ~ballot:b ~home
      | None -> ())
    else begin
      let first_accept = Hashtbl.length a.a_accepted = 0 in
      let duplicate =
        match Hashtbl.find_opt a.a_accepted instance with
        | Some (b, v) -> b = ballot && v = value
        | None -> false
      in
      if not duplicate then begin
        Hashtbl.replace a.a_accepted instance (ballot, value);
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
      if first_accept && a.a_outcome = None then begin
        t.timer_seq <- t.timer_seq + 1;
        a.a_timer <- t.timer_seq;
        arm_takeover t ~acceptor ~txn ~round ~timer:a.a_timer
          ~attempt:a.a_attempts
      end
    end

(* Phase 1a: promise iff the ballot beats everything seen, force the
   promise record, report our accepts so the new leader proposes safely. *)
and on_1a t ~txn ~round ~ballot ~leader ~acceptor =
  match Hashtbl.find_opt t.acceptors (acceptor, txn) with
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
        Hashtbl.add t.acceptors (acceptor, txn) a;
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
        List.sort compare
          (Hashtbl.fold
             (fun i (b, v) acc -> (i, b, v) :: acc)
             a.a_accepted [])
      in
      let home = a.a_home and psites = a.a_psites in
      send t ~src:acceptor ~dst:leader ~kind:"px-1b" (fun () ->
          on_1b t ~txn ~round ~ballot ~acceptor ~accepted ~home ~psites ~leader)
    end

and on_1b t ~txn ~round ~ballot ~acceptor ~accepted ~home ~psites ~leader =
  match Hashtbl.find_opt t.leaders (leader, txn) with
  | Some l when l.l_round = round && l.l_ballot = ballot && not l.l_phase2 ->
    if l.l_home = None then l.l_home <- home;
    if l.l_psites = None then l.l_psites <- psites;
    if not (List.mem_assoc acceptor l.l_promises) then
      l.l_promises <- (acceptor, accepted) :: l.l_promises;
    if List.length l.l_promises >= quorum t then start_phase2 t ~leader ~txn l
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
          (acceptor_sites t))
      l.l_values
  | _ -> ()

and start_takeover t ~acceptor ~txn (a : acc_entry) =
  let n = nsites t in
  let ballot = (((a.a_promised / n) + 1) * n) + acceptor in
  let supersedes =
    match Hashtbl.find_opt t.leaders (acceptor, txn) with
    | Some l ->
      l.l_round < a.a_round || (l.l_round = a.a_round && l.l_ballot < ballot)
    | None -> true
  in
  if supersedes then begin
    Hashtbl.replace t.leaders (acceptor, txn)
      { l_round = a.a_round; l_ballot = ballot; l_phase2 = false;
        l_promises = []; l_home = a.a_home; l_psites = a.a_psites;
        l_values = []; l_accepts = [] };
    List.iter
      (fun dst ->
        send t ~src:acceptor ~dst ~kind:"px-1a" (fun () ->
            on_1a t ~txn ~round:a.a_round ~ballot ~leader:acceptor
              ~acceptor:dst))
      (acceptor_sites t)
  end

(* The takeover clock: armed at an acceptor's first accept, re-armed with
   the runtime's capped seeded per-site backoff until the outcome is
   known.  Twice the inquiry timeout, so prepared participants get to ask
   before anyone seizes leadership. *)
and arm_takeover t ~acceptor ~txn ~round ~timer ~attempt =
  let after =
    Runtime.restart_backoff t.rt ~site:acceptor
      ~base:(2. *. t.config.inquiry_timeout)
      ~attempt
  in
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after (fun () ->
         match Hashtbl.find_opt t.acceptors (acceptor, txn) with
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
   know the outcome stays silent — unlike a 2PC coordinator it must not
   presume abort, because the round may have committed without it.  A
   superseded round, though, is known-aborted. *)
and on_inquire t ~txn ~round ~from ~acceptor =
  match Hashtbl.find_opt t.acceptors (acceptor, txn) with
  | Some a when a.a_round = round -> (
    match a.a_outcome with
    | Some commit ->
      send t ~src:acceptor ~dst:from ~kind:"px-decision" (fun () ->
          on_part_decision t ~txn ~round ~site:from ~commit)
    | None -> ())
  | Some a when a.a_round > round ->
    send t ~src:acceptor ~dst:from ~kind:"px-decision" (fun () ->
        on_part_decision t ~txn ~round ~site:from ~commit:false)
  | Some _ | None -> ()

and arm_inquiry t ~site ~txn ~timer =
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt)
       ~after:t.config.inquiry_timeout (fun () ->
         match Hashtbl.find_opt t.parts (site, txn) with
         | Some e when e.p_timer = timer ->
           List.iter
             (fun a ->
               send t ~src:site ~dst:a ~kind:"px-inquire" (fun () ->
                   on_inquire t ~txn ~round:e.p_round ~from:site ~acceptor:a))
             (acceptor_sites t);
           arm_inquiry t ~site ~txn ~timer
         | Some _ | None -> ()))

and propose_vote t ~txn ~round ~instance ~home ~psites ~site =
  List.iter
    (fun a ->
      send t ~src:site ~dst:a ~kind:"px-2a" (fun () ->
          on_2a t ~txn ~round ~instance ~ballot:0 ~value:true ~home ~psites
            ~acceptor:a))
    (acceptor_sites t)

(* Prepare at a participant: force Prewrite/Vote exactly as 2PC does (the
   in-doubt recovery path is shared), then fast-path the yes vote as a
   ballot-0 phase-2a to every acceptor. *)
and on_prepare t ~txn ~round ~instance ~home ~psites ~site actions =
  let key = (site, txn) in
  if Hashtbl.mem t.decided key then ack t ~txn ~round ~site
  else
    match Hashtbl.find_opt t.parts key with
    | Some e when e.p_round > round -> ()
    | Some e when e.p_round = round ->
      (* duplicate prepare: re-propose our vote *)
      propose_vote t ~txn ~round ~instance ~home ~psites ~site
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
      Hashtbl.replace t.parts key
        { p_round = round; p_actions = actions; p_timer = timer };
      Runtime.emit t.rt (Runtime.Prepared { txn; site; round; at });
      propose_vote t ~txn ~round ~instance ~home ~psites ~site;
      arm_inquiry t ~site ~txn ~timer

and on_begin t ~txn ~round =
  match Hashtbl.find_opt t.clients txn with
  | None -> ()
  | Some c ->
    if c.decided || round < c.round then ()
    else begin
      let psites = List.map fst c.participants in
      (match Hashtbl.find_opt t.leaders (c.home, txn) with
      | Some l
        when l.l_round > round || (l.l_round = round && l.l_ballot > 0) ->
        () (* a takeover at our own site is already driving this *)
      | Some l when l.l_round = round -> ignore l (* re-begin of the live round *)
      | Some _ | None ->
        Hashtbl.replace t.leaders (c.home, txn)
          { l_round = round; l_ballot = 0; l_phase2 = true; l_promises = [];
            l_home = Some c.home; l_psites = Some psites;
            l_values = List.mapi (fun i _ -> (i, true)) psites;
            l_accepts = [] });
      List.iteri
        (fun i (site, actions) ->
          send t ~src:c.home ~dst:site ~kind:"px-prepare" (fun () ->
              on_prepare t ~txn ~round ~instance:i ~home:c.home ~psites ~site
                actions))
        c.participants
    end

(* --- client ------------------------------------------------------------ *)

let begin_round t txn =
  match Hashtbl.find_opt t.clients txn with
  | Some c when not c.decided ->
    let round = c.round in
    send t ~src:c.home ~dst:c.home ~kind:"px-begin" (fun () ->
        on_begin t ~txn ~round)
  | Some _ | None -> ()

let rec arm_client_retry t txn =
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt)
       ~after:t.config.client_retry (fun () ->
         match Hashtbl.find_opt t.clients txn with
         | Some c when not c.decided ->
           (* re-drive the current round; it only advanced if an abort was
              learned since the last tick *)
           begin_round t txn;
           arm_client_retry t txn
         | Some _ | None -> ()))

let commit t ~txn ~home ~participants =
  if Hashtbl.mem t.clients txn then
    invalid_arg "Consensus.commit: duplicate transaction";
  Hashtbl.add t.clients txn { home; participants; round = 0; decided = false };
  begin_round t txn;
  arm_client_retry t txn

let in_flight t =
  Hashtbl.fold
    (fun _ (c : client) n -> if c.decided then n else n + 1)
    t.clients 0

(* --- crash / recovery --------------------------------------------------- *)

(* Fail-stop wipe of one site's consensus state.  Leaders and the home's
   ack bookkeeping are genuinely volatile (another leader, or a client
   retry, re-drives the round); participant and acceptor state is a WAL
   mirror and counts as preserved. *)
let wipe t site =
  let dropped = ref 0 and preserved = ref 0 in
  let gather tbl pred =
    Hashtbl.fold (fun k _ acc -> if pred k then k :: acc else acc) tbl []
  in
  let at_home txn = home_of t txn = site in
  let here (s, _) = s = site in
  List.iter
    (fun txn ->
      Hashtbl.remove t.committed txn;
      incr dropped)
    (gather t.committed at_home);
  List.iter
    (fun key ->
      Hashtbl.remove t.leaders key;
      incr dropped)
    (gather t.leaders here);
  List.iter
    (fun key ->
      Hashtbl.remove t.parts key;
      incr preserved)
    (gather t.parts here);
  List.iter
    (fun key ->
      Hashtbl.remove t.acceptors key;
      incr preserved)
    (gather t.acceptors here);
  List.iter (fun key -> Hashtbl.remove t.decided key) (gather t.decided here);
  (!dropped, !preserved)

(* Recovery: rebuild the WAL mirrors.  In-doubt participants immediately
   inquire the acceptor set and re-arm their inquiry clocks; replayed
   acceptor state re-arms its takeover clock — the outcome is unknown
   after a wipe, and if the round was in fact already decided the re-run
   converges on the same outcome, absorbed idempotently everywhere.  Only
   each transaction's highest replayed round matters: lower rounds are
   known-aborted. *)
let replay t site =
  let r = Ccdb_storage.Wal.replay (wal t) ~site in
  List.iter
    (fun (txn, round, commit) ->
      if commit then Hashtbl.replace t.decided (site, txn) round)
    r.Ccdb_storage.Wal.decided;
  List.iter
    (fun (txn, round, _home, actions) ->
      t.timer_seq <- t.timer_seq + 1;
      let timer = t.timer_seq in
      Hashtbl.replace t.parts (site, txn)
        { p_round = round; p_actions = actions; p_timer = timer };
      List.iter
        (fun a ->
          send t ~src:site ~dst:a ~kind:"px-inquire" (fun () ->
              on_inquire t ~txn ~round ~from:site ~acceptor:a))
        (acceptor_sites t);
      arm_inquiry t ~site ~txn ~timer)
    r.Ccdb_storage.Wal.in_doubt;
  let best : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let note txn round =
    match Hashtbl.find_opt best txn with
    | Some r when r >= round -> ()
    | Some _ | None -> Hashtbl.replace best txn round
  in
  List.iter (fun ((txn, round), _) -> note txn round) r.Ccdb_storage.Wal.promised;
  List.iter
    (fun ((txn, round, _), _) -> note txn round)
    r.Ccdb_storage.Wal.accepted;
  Hashtbl.iter
    (fun txn round ->
      let a = fresh_acceptor round in
      List.iter
        (fun ((txn', round'), b) ->
          if txn' = txn && round' = round && b > a.a_promised then
            a.a_promised <- b)
        r.Ccdb_storage.Wal.promised;
      List.iter
        (fun ((txn', round', instance), (b, v)) ->
          if txn' = txn && round' = round then begin
            Hashtbl.replace a.a_accepted instance (b, v);
            (* an accept implies the matching promise even if the promise
               record itself predates this acceptor's knowledge *)
            if b > a.a_promised then a.a_promised <- b
          end)
        r.Ccdb_storage.Wal.accepted;
      (* the accept records carry the round's home and participant set, so
         this acceptor can lead a takeover on its own — essential when the
         client already learned the outcome and will never re-prepare *)
      (match List.assoc_opt (txn, round) r.Ccdb_storage.Wal.acc_meta with
      | Some (home, psites) ->
        a.a_home <- Some home;
        a.a_psites <- Some psites
      | None -> ());
      Hashtbl.replace t.acceptors (site, txn) a;
      if Hashtbl.length a.a_accepted > 0 then begin
        t.timer_seq <- t.timer_seq + 1;
        a.a_timer <- t.timer_seq;
        arm_takeover t ~acceptor:site ~txn ~round ~timer:a.a_timer ~attempt:0
      end)
    best

let create ?(config = default_config) ~f rt hooks =
  if not (Runtime.durable rt) then
    invalid_arg "Consensus.create: runtime is not durable";
  if config.inquiry_timeout <= 0. || config.client_retry <= 0. then
    invalid_arg "Consensus.create: timeouts must be positive";
  if f < 0 then invalid_arg "Consensus.create: negative f";
  let rt_sites = Ccdb_sim.Net.sites (Runtime.net rt) in
  if (2 * f) + 1 > rt_sites then
    invalid_arg "Consensus.create: needs 2f+1 acceptor sites";
  let t =
    { rt; config; hooks; f;
      clients = Hashtbl.create 64;
      committed = Hashtbl.create 64;
      parts = Hashtbl.create 64;
      acceptors = Hashtbl.create 64;
      leaders = Hashtbl.create 64;
      decided = Hashtbl.create 64;
      timer_seq = 0 }
  in
  Runtime.on_site_wipe rt (fun site -> wipe t site);
  Runtime.on_wal_replay rt (fun site -> replay t site);
  t
