module Rt = Ccdb_protocols.Runtime
module L = Ccdb_protocols.Lifecycle
module Q = Semi_lock_queue
module Copies = Ccdb_storage.Copy_table
module Int_list = Ccdb_util.Int_list

type config = {
  semi_locks : bool;
  restart_delay : float;
  detection : Ccdb_protocols.Deadlock.detection;
}

let default_config =
  { semi_locks = true; restart_delay = 50.;
    detection = Ccdb_protocols.Deadlock.default_detection }

type slot_state =
  | Waiting
  | Granted of { value : int; mutable normal : bool }
  | Backed of int

(* one per copy the current attempt negotiates; a new attempt builds fresh
   slots *)
type slot = { item : int; site : int; mutable state : slot_state }

type phase = Negotiating | Restarting | Computing | Draining | Done

type txn_state = {
  mutable txn : Ccdb_model.Txn.t;
      (** protocol may change across attempts under re-selection *)
  payload : L.payload_fn option;
  submitted_at : float;
  mutable ts : int option; (* None for 2PL *)
  mutable epoch : int; (* also its restart count *)
  mutable backed_off : bool;
  mutable phase : phase;
  mutable slots : slot list;
  mutable executed : float; (* end of the compute phase; under 2PC the
                               commit point fires later *)
}

type t = {
  rt : Rt.t;
  config : config;
  queues : Q.t Copies.t;
  live : txn_state L.live;
  reselect : (Ccdb_model.Txn.t -> Ccdb_model.Protocol.t) option;
  mutable draining : int;
  mutable committer : Ccdb_protocols.Commit.t option;
      (* 2PC driver, durable runtimes only *)
}

let rec find_slot ~item ~site = function
  | [] -> None
  | s :: rest ->
    if s.item = item && s.site = site then Some s
    else find_slot ~item ~site rest

let all_normal st =
  List.for_all
    (fun s -> match s.state with Granted g -> g.normal | _ -> false)
    st.slots

let send t ~src ~dst ~kind f = Ccdb_sim.Net.send (Rt.net t.rt) ~src ~dst ~kind f

(* --- queue-side actions -------------------------------------------------- *)

let rec pump t ~item ~site =
  let q = Copies.get t.queues ~item ~site in
  Q.grant_ready q ~now:(Rt.now t.rt);
  for i = 0 to Q.reports q - 1 do
    grant t ~item ~site (Q.report q i)
  done

and grant t ~item ~site (e : Q.entry) =
  let schedule = e.schedule in
  if Rt.has_consumer t.rt then
    Rt.emit t.rt
      (Rt.Lock_granted
         { txn = e.txn; protocol = e.protocol; op = e.op; item; site;
           mode = e.lock; schedule;
           ts = Some e.prec.Ccdb_model.Precedence.ts;
           at = Rt.now t.rt });
  let store = Rt.store t.rt in
  (* T/O reads are implemented at grant: the value flows to the issuer
     now and the semi-read lock never delays conflicting T/O writes *)
  (if Ccdb_model.Protocol.equal e.protocol Ccdb_model.Protocol.T_o
      && Ccdb_model.Op.equal e.op Ccdb_model.Op.Read then
     Ccdb_storage.Store.log_read store ~item ~site ~txn:e.txn
       ~at:(Rt.now t.rt));
  let value = Ccdb_storage.Store.read store ~item ~site in
  let ts = e.prec.Ccdb_model.Precedence.ts in
  let epoch = e.epoch in
  let txn_id = e.txn in
  send t ~src:site ~dst:e.site ~kind:"u-grant" (fun () ->
      on_grant t txn_id ~epoch ~ts ~item ~site value schedule)

(* the queue manager tells each issuer whose grant here became normal *)
and notify_promotions t q ~item ~site:qm_site =
  for i = 0 to Q.reports q - 1 do
    let p = Q.report q i in
    let txn_id = p.txn and epoch = p.epoch in
    if Rt.has_consumer t.rt then
      Rt.emit t.rt
        (Rt.Lock_promoted
           { txn = txn_id; item; site = qm_site; at = Rt.now t.rt });
    send t ~src:qm_site ~dst:p.site ~kind:"u-normal" (fun () ->
        on_normal t txn_id ~epoch ~item ~site:qm_site)
  done

and on_release_msg t ~item ~site txn_id value_opt =
  let q = Copies.get t.queues ~item ~site in
  match Q.release q ~txn:txn_id with
  | exception Not_found -> ()
  | e ->
    let store = Rt.store t.rt in
    let at = Rt.now t.rt in
    (match e.protocol, e.op with
     | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Read ->
       Ccdb_storage.Store.log_read store ~item ~site ~txn:txn_id ~at
     | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Write ->
       (match value_opt with
        | Some value ->
          Ccdb_storage.Store.apply_write store ~item ~site ~txn:txn_id ~value ~at
        | None -> assert false)
     | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Read ->
       () (* implemented at grant *)
     | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Write ->
       if not e.implemented then begin
         match value_opt with
         | Some value ->
           Ccdb_storage.Store.apply_write store ~item ~site ~txn:txn_id ~value ~at
         | None -> assert false
       end);
    if Rt.has_consumer t.rt then
      Rt.emit t.rt
        (Rt.Lock_released
           { txn = txn_id; protocol = e.protocol; op = e.op; item; site;
             granted_at = e.granted_at; at; aborted = false;
             ts = Some e.prec.Ccdb_model.Precedence.ts });
    notify_promotions t q ~item ~site;
    pump t ~item ~site

and on_transform_msg t ~item ~site txn_id value_opt =
  match Q.transform (Copies.get t.queues ~item ~site) ~txn:txn_id with
  | exception Not_found -> ()
  | e ->
    (match e.lock with
     | Some mode when Rt.has_consumer t.rt ->
       Rt.emit t.rt
         (Rt.Lock_transformed { txn = txn_id; item; site; mode;
                                at = Rt.now t.rt })
     | Some _ | None -> ());
    (match e.op, value_opt with
     | Ccdb_model.Op.Write, Some value when not e.implemented ->
       (* the T/O write is implemented when its lock turns into a semi-lock *)
       Ccdb_storage.Store.apply_write (Rt.store t.rt) ~item ~site ~txn:txn_id
         ~value ~at:(Rt.now t.rt);
       e.implemented <- true
     | _, _ -> ());
    pump t ~item ~site

and on_abort_msg t ~item ~site txn_id =
  let q = Copies.get t.queues ~item ~site in
  match Q.abort q ~txn:txn_id with
  | exception Not_found -> ()
  | e ->
    (* withdraw an aborted T/O attempt's grant-time read from the log *)
    (if Ccdb_model.Protocol.equal e.protocol Ccdb_model.Protocol.T_o
        && Ccdb_model.Op.equal e.op Ccdb_model.Op.Read
        && Option.is_some e.lock then
       Ccdb_storage.Store.discard_reads (Rt.store t.rt) ~item ~site ~txn:txn_id);
    (if Rt.has_consumer t.rt then
       if Option.is_some e.lock then
         Rt.emit t.rt
           (Rt.Lock_released
              { txn = txn_id; protocol = e.protocol; op = e.op; item; site;
                granted_at = e.granted_at; at = Rt.now t.rt; aborted = true;
                ts = Some e.prec.Ccdb_model.Precedence.ts })
       else
         Rt.emit t.rt
           (Rt.Request_withdrawn
              { txn = txn_id; item; site; at = Rt.now t.rt }));
    notify_promotions t q ~item ~site;
    pump t ~item ~site

(* --- issuer-side state machine ------------------------------------------- *)

and on_grant t txn_id ~epoch ~ts ~item ~site value schedule =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    let ts_ok = match st.ts with None -> true | Some expect -> expect = ts in
    if st.epoch = epoch && ts_ok && st.phase = Negotiating then begin
      match find_slot ~item ~site st.slots with
      | Some ({ state = Waiting; _ } as slot) ->
        L.progress t.live txn_id;
        let normal =
          Ccdb_model.Lock.schedule_equal schedule Ccdb_model.Lock.Normal
        in
        slot.state <- Granted { value; normal };
        check_progress t st
      | Some { state = Granted _ | Backed _; _ } | None -> ()
    end

and on_normal t txn_id ~epoch ~item ~site =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.epoch = epoch then begin
      (match find_slot ~item ~site st.slots with
       | Some { state = Granted g; _ } -> g.normal <- true
       | Some { state = Waiting | Backed _; _ } | None -> ());
      if st.phase = Draining then maybe_release t st
    end

and on_backoff t txn_id ~epoch ~ts ~op ~item ~site ts' =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    let ts_ok = match st.ts with None -> false | Some expect -> expect = ts in
    if st.epoch = epoch && ts_ok && st.phase = Negotiating then begin
      Rt.emit t.rt (Rt.Pa_backoff { txn = txn_id; op; at = Rt.now t.rt });
      match find_slot ~item ~site st.slots with
      | Some ({ state = Waiting; _ } as slot) ->
        slot.state <- Backed ts';
        check_progress t st
      | Some { state = Granted _ | Backed _; _ } | None -> ()
    end

and on_reject t txn_id ~epoch ~ts rejected_copy op =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    let ts_ok = match st.ts with None -> false | Some expect -> expect = ts in
    if st.epoch = epoch && ts_ok && st.phase = Negotiating then
      restart t st ~except:(Some rejected_copy)
        ~reason:(Rt.To_rejected op)

and check_progress t st =
  let undecided =
    List.exists
      (fun s ->
        match s.state with Waiting -> true | Granted _ | Backed _ -> false)
      st.slots
  in
  if not undecided then begin
    let backs =
      List.filter_map
        (fun s -> match s.state with Backed ts' -> Some ts' | _ -> None)
        st.slots
    in
    match backs with
    | [] -> start_compute t st
    | _ :: _ ->
      (* PA phase 2: agree on TS' and update every queue *)
      assert (Ccdb_model.Protocol.equal st.txn.protocol Ccdb_model.Protocol.Pa);
      assert (not st.backed_off);
      st.backed_off <- true;
      let ts0 = match st.ts with Some ts -> ts | None -> assert false in
      let ts' = List.fold_left Int.max ts0 backs in
      st.ts <- Some ts';
      List.iter (fun s -> s.state <- Waiting) st.slots;
      List.iter
        (fun { item; site; _ } ->
          send t ~src:st.txn.site ~dst:site ~kind:"u-update" (fun () ->
              (match
                 Q.update_ts (Copies.get t.queues ~item ~site) ~txn:st.txn.id
                   ~ts:ts'
               with
               | `Absent -> ()
               | (`Moved | `Revoked) as r ->
                 if Rt.has_consumer t.rt then
                   Rt.emit t.rt
                     (Rt.Ts_updated
                        { txn = st.txn.id; item; site; ts = ts';
                          revoked = (r = `Revoked); at = Rt.now t.rt }));
              pump t ~item ~site))
        st.slots
  end

and start_compute t st =
  L.unblocked t.live st.txn.id;
  st.phase <- Computing;
  ignore
    (Ccdb_sim.Engine.schedule (Rt.engine t.rt) ~after:st.txn.compute_time
       (fun () -> finish t st))

and finish t st =
  let txn = st.txn in
  st.executed <- Rt.now t.rt;
  let commit () = commit_txn t st in
  if all_normal st then begin
    match t.committer with
    | Some c ->
      (* durable: past the lock point, releases wait for the commit
         decision at each participant *)
      st.phase <- Done;
      let value_for = value_for_fn st in
      Ccdb_protocols.Commit.commit c ~txn:txn.id ~home:txn.site
        ~participants:
          (Ccdb_protocols.Commit.participants (L.copies t.rt txn)
             ~site:(fun (_, site, _) -> site)
             ~action:(fun (item, _, op) ->
               { Ccdb_storage.Wal.item; op; value = value_for item;
                 attempt = 0; granted_at = 0. }))
    | None ->
      commit ();
      send_releases t st
  end
  else begin
    (* rule 4: transform every lock into a semi-lock, count as executed,
       keep collecting normal grants *)
    assert (Ccdb_model.Protocol.equal txn.protocol Ccdb_model.Protocol.T_o);
    commit ();
    st.phase <- Draining;
    t.draining <- t.draining + 1;
    let value_for = value_for_fn st in
    List.iter
      (fun { item; site; _ } ->
        let value_opt = value_for item in
        send t ~src:txn.site ~dst:site ~kind:"u-transform" (fun () ->
            on_transform_msg t ~item ~site txn.id value_opt))
      st.slots;
    maybe_release t st
  end

and commit_txn t st =
  L.commit t.live st.txn ~submitted_at:st.submitted_at
    ~executed_at:st.executed ~restarts:st.epoch

(* What a payload reads: the value the first slot of [item], in footprint
   order, was granted with.  Past the compute start every slot is granted,
   and none changes before the releases. *)
and read_slot st item =
  match List.find (fun s -> s.item = item) st.slots with
  | { state = Granted { value; _ }; _ } -> value
  | { state = Waiting | Backed _; _ } -> assert false
  | exception Not_found -> 0

(* The value each slot's release carries: [None] for a read-only item.
   The payload, if any, runs at each call. *)
and value_for_fn st =
  let txn = st.txn in
  let value = L.write_value st.payload ~read:(read_slot st) txn in
  fun item ->
    if Int_list.mem item txn.write_set then Some (value item) else None

and send_releases t st =
  let txn = st.txn in
  st.phase <- Done;
  let value_for = value_for_fn st in
  List.iter
    (fun { item; site; _ } ->
      let value_opt = value_for item in
      send t ~src:txn.site ~dst:site ~kind:"u-release" (fun () ->
          on_release_msg t ~item ~site txn.id value_opt))
    st.slots;
  L.remove t.live txn.id

and maybe_release t st =
  if all_normal st then begin
    t.draining <- t.draining - 1;
    send_releases t st
  end

and restart t st ~except ~reason =
  let txn = st.txn in
  st.phase <- Restarting;
  L.unblocked t.live txn.id;
  Rt.emit t.rt (Rt.Txn_restarted { txn; reason; at = Rt.now t.rt });
  st.epoch <- st.epoch + 1;
  (* invalidate until the next attempt begins *)
  (match st.ts with Some _ -> st.ts <- Some (-1) | None -> ());
  List.iter
    (fun (item, site, _) ->
      match except with
      | Some (i, s) when i = item && s = site -> ()
      | Some _ | None ->
        send t ~src:txn.site ~dst:site ~kind:"u-abort" (fun () ->
            on_abort_msg t ~item ~site txn.id))
    (L.copies t.rt txn);
  st.slots <- [];
  L.schedule_restart t.rt ~site:txn.site ~base:t.config.restart_delay
    ~attempt:st.epoch (fun () -> begin_attempt t st)

and begin_attempt t st =
  (* future-work item (4) of the paper: a restarted transaction may switch
     its concurrency-control method *)
  (match t.reselect with
   | Some choose when st.epoch > 0 ->
     let protocol = choose st.txn in
     if not (Ccdb_model.Protocol.equal protocol st.txn.protocol) then
       st.txn <-
         Ccdb_model.Txn.make ~id:st.txn.id ~site:st.txn.site
           ~read_set:st.txn.read_set ~write_set:st.txn.write_set
           ~compute_time:st.txn.compute_time ~protocol
   | Some _ | None -> ());
  let txn = st.txn in
  (match txn.protocol with
   | Ccdb_model.Protocol.Two_pl -> st.ts <- None
   | Ccdb_model.Protocol.T_o | Ccdb_model.Protocol.Pa ->
     st.ts <- Some (Ccdb_model.Timestamp.Source.next (Rt.ts_source t.rt)));
  st.phase <- Negotiating;
  st.backed_off <- false;
  L.blocked t.live txn.id;
  let copies = L.copies t.rt txn in
  st.slots <-
    List.map (fun (item, site, _) -> { item; site; state = Waiting }) copies;
  let epoch = st.epoch in
  let ts = st.ts in
  List.iter
    (fun (item, site, op) ->
      send t ~src:txn.site ~dst:site ~kind:"u-req" (fun () ->
          let q = Copies.get t.queues ~item ~site in
          let verdict =
            Q.request q ~txn:txn.id ~site:txn.site ~protocol:txn.protocol ~ts
              ~epoch ~op
          in
          if Rt.has_consumer t.rt then
            Rt.emit t.rt
              (Rt.Lock_requested
                 { txn = txn.id; protocol = txn.protocol; op; item; site;
                   origin = txn.site; ts;
                   outcome =
                     (match verdict with
                      | Q.Accepted -> Rt.Req_admitted
                      | Q.Rejected -> Rt.Req_rejected
                      | Q.Backoff ts' -> Rt.Req_backoff ts');
                   at = Rt.now t.rt });
          (match verdict with
           | Q.Accepted -> ()
           | Q.Rejected ->
             let ts = match ts with Some v -> v | None -> assert false in
             send t ~src:site ~dst:txn.site ~kind:"u-reject" (fun () ->
                 on_reject t txn.id ~epoch ~ts (item, site) op)
           | Q.Backoff ts' ->
             let ts = match ts with Some v -> v | None -> assert false in
             send t ~src:site ~dst:txn.site ~kind:"u-backoff" (fun () ->
                 on_backoff t txn.id ~epoch ~ts ~op ~item ~site ts'));
          pump t ~item ~site))
    copies

(* --- construction --------------------------------------------------------- *)

let two_pl_negotiating st =
  st.phase = Negotiating
  && Ccdb_model.Protocol.equal st.txn.protocol Ccdb_model.Protocol.Two_pl

let abort_victim t victim =
  match L.find t.live victim with
  | Some st when two_pl_negotiating st ->
    restart t st ~except:None ~reason:Rt.Deadlock_victim
  | Some _ | None -> ()

(* Crash cleanup: restart negotiating 2PL and T/O transactions that
   depend on the dead site (home site crashed, or a slot hosted there), so
   no semi-lock or queue entry outlives its issuer's progress.  A slow
   negotiation is left alone: the transport delivers every message,
   however late.  PA transactions are exempt — Corollary 1 makes PA
   restart-free, and the analyzer's [thm.pa-restarted] check would rightly
   flag an abort; their negotiation pushes forward through transport
   retries instead.  Anything past Negotiating (Computing / Draining)
   likewise pushes forward. *)
let crash_restartable st =
  st.phase = Negotiating
  && not (Ccdb_model.Protocol.equal st.txn.protocol Ccdb_model.Protocol.Pa)

let depends_on_site st site =
  st.txn.Ccdb_model.Txn.site = site
  || List.exists (fun (s : slot) -> s.site = site) st.slots

let create ?(config = default_config) ?reselect rt =
  let t =
    { rt; config;
      queues =
        Copies.create (Rt.catalog rt) (fun () ->
            Q.create ~semi_locks:config.semi_locks ());
      live = L.live rt; reselect; draining = 0; committer = None }
  in
  L.detect_deadlocks t.live config.detection t.queues ~waits_for:Q.iter_waits_for
    { L.home = (fun st -> st.txn.site);
      abortable = (fun st -> st.phase = Negotiating);
      restarting = (fun st -> st.phase = Restarting);
      (* Corollary 2: a real deadlock always offers a negotiating 2PL
         victim; a cycle without one is a transient snapshot, re-checked
         at the next scan *)
      eligible =
        (fun id ->
          match L.find t.live id with
          | Some st -> two_pl_negotiating st
          | None -> false);
      (* draining transactions are committed but still wait for their
         pre-scheduled grants to become normal; probes must pass through
         them *)
      waiting = (fun st -> st.phase = Negotiating || st.phase = Draining);
      pending_sites =
        (fun st ->
          List.filter_map
            (fun { site; state; _ } ->
              match state with
              | Waiting -> Some site
              | Granted { normal = false; _ } ->
                (* a pre-scheduled grant is a wait hosted at the queue's
                   site *)
                Some site
              | Granted { normal = true; _ } | Backed _ -> None)
            st.slots
          |> List.sort_uniq Int.compare);
      (* only 2PL transactions can be deadlock victims (Corollary 2), so
         only they probe *)
      may_initiate =
        (fun st ->
          Ccdb_model.Protocol.equal st.txn.protocol Ccdb_model.Protocol.Two_pl);
      abort = (fun victim -> abort_victim t victim) };
  L.restart_on_crash t.live ~restartable:crash_restartable
    ~depends_on:depends_on_site
    (restart t ~except:None ~reason:Rt.Site_failure);
  if Rt.durable rt then begin
    (* Fail-stop wipe: ungranted 2PL and T/O entries are volatile and
       vanish; granted entries and every PA entry survive (WAL-backed
       grants; acknowledged PA negotiations — Corollary 1). *)
    L.on_site_wipe rt t.queues
      ~dropped:(fun q ->
        List.map (fun (e : Q.entry) -> e.txn) (Q.wipe_volatile q))
      ~preserved:(fun q -> List.length (Q.entries q));
    t.committer <-
      Some
        (L.commit_engine t.live
           ~release:(fun ~txn ~site (a : Ccdb_storage.Wal.action) ->
             on_release_msg t ~item:a.item ~site txn a.value)
           ~commit_point:(fun st ->
             commit_txn t st;
             L.remove t.live st.txn.id))
  end;
  t

let submit t ?payload txn =
  let st =
    { txn; payload; submitted_at = Rt.now t.rt; ts = None; epoch = 0;
      backed_off = false; phase = Negotiating; slots = []; executed = 0. }
  in
  L.admit t.live ~duplicate:"Unified_system.submit: duplicate transaction id"
    txn.Ccdb_model.Txn.id st;
  L.start_detector t.live;
  begin_attempt t st

let draining t = t.draining

let unimplemented_requests t =
  let unimplemented (e : Q.entry) =
    match e.lock, e.protocol, e.op with
    | None, _, _ -> true (* never granted *)
    | Some _, Ccdb_model.Protocol.T_o, Ccdb_model.Op.Read ->
      false (* T/O reads are implemented at grant *)
    | Some _, Ccdb_model.Protocol.T_o, Ccdb_model.Op.Write ->
      not e.implemented (* implemented at transform or release *)
    | Some _, (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), _ ->
      true (* implemented at release, and released entries are removed *)
  in
  Copies.fold
    (fun ~item:_ ~site:_ q acc ->
      List.fold_left
        (fun acc (e : Q.entry) ->
          if unimplemented e then (e.prec, e.protocol) :: acc else acc)
        acc (Q.entries q))
    t.queues []
  |> List.sort (fun (a, _) (b, _) -> Ccdb_model.Precedence.compare a b)
