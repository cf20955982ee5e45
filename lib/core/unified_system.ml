module Rt = Ccdb_protocols.Runtime
module Q = Semi_lock_queue

type config = {
  semi_locks : bool;
  restart_delay : float;
  detection : Ccdb_protocols.Deadlock.detection;
  backoff_interval : int;
}

let default_config =
  { semi_locks = true; restart_delay = 50.;
    detection = Ccdb_protocols.Deadlock.default_detection;
    backoff_interval = 8 }

type payload_fn = (int -> int) -> (int * int) list

type slot =
  | Waiting
  | Granted of { value : int; mutable normal : bool }
  | Backed of int

type phase = Negotiating | Restarting | Computing | Draining | Done

type txn_state = {
  mutable txn : Ccdb_model.Txn.t;
      (** protocol may change across attempts under re-selection *)
  payload : payload_fn option;
  submitted_at : float;
  mutable ts : int option; (* None for 2PL *)
  mutable epoch : int;
  mutable restarts : int;
  mutable backed_off : bool;
  mutable phase : phase;
  mutable slots : ((int * int) * slot) list;
  mutable reads : (int * int) list;
  mutable write_values : (int * int) list; (* fixed at compute end *)
  mutable executed : float; (* end of the compute phase; under 2PC the
                               commit point fires later *)
}

type detector =
  | Central of Ccdb_protocols.Deadlock.t
  | Probing of Ccdb_protocols.Edge_chasing.t

type t = {
  rt : Rt.t;
  config : config;
  queues : (int * int, Q.t) Hashtbl.t;
  states : (int, txn_state) Hashtbl.t;
  reselect : (Ccdb_model.Txn.t -> Ccdb_model.Protocol.t) option;
  mutable active : int;
  mutable draining : int;
  mutable detector : detector option;
  mutable committer : Ccdb_protocols.Commit.t option;
      (* 2PC driver, durable runtimes only *)
}

let notify_blocked t txn_id =
  match t.detector with
  | Some (Probing ec) -> Ccdb_protocols.Edge_chasing.txn_blocked ec txn_id
  | Some (Central _) | None -> ()

let notify_unblocked t txn_id =
  match t.detector with
  | Some (Probing ec) -> Ccdb_protocols.Edge_chasing.txn_unblocked ec txn_id
  | Some (Central _) | None -> ()

let notify_progress t txn_id =
  match t.detector with
  | Some (Probing ec) -> Ccdb_protocols.Edge_chasing.txn_progress ec txn_id
  | Some (Central _) | None -> ()

let config t = t.config

let copies_of rt (txn : Ccdb_model.Txn.t) =
  let catalog = Rt.catalog rt in
  let reads =
    List.map
      (fun item ->
        (item, Ccdb_storage.Catalog.read_site catalog ~preferred:txn.site item,
         Ccdb_model.Op.Read))
      txn.read_set
  in
  let writes =
    List.concat_map
      (fun item ->
        List.map
          (fun site -> (item, site, Ccdb_model.Op.Write))
          (Ccdb_storage.Catalog.copies catalog item))
      txn.write_set
  in
  reads @ writes

let queue t copy =
  match Hashtbl.find_opt t.queues copy with
  | Some q -> q
  | None ->
    let q = Q.create ~semi_locks:t.config.semi_locks () in
    Hashtbl.add t.queues copy q;
    q

let set_slot st copy slot =
  st.slots <-
    List.map (fun (c, s) -> if c = copy then (c, slot) else (c, s)) st.slots

let all_edges t =
  Hashtbl.fold (fun _ q acc -> List.rev_append (Q.waits_for q) acc) t.queues []

let send t ~src ~dst ~kind f = Ccdb_sim.Net.send (Rt.net t.rt) ~src ~dst ~kind f

(* --- queue-side actions -------------------------------------------------- *)

let rec pump t ((item, site) as copy) =
  let q = queue t copy in
  let grants = Q.grant_ready q ~now:(Rt.now t.rt) in
  let store = Rt.store t.rt in
  List.iter
    (fun { Q.entry = e; schedule } ->
      Rt.emit t.rt
        (Rt.Lock_granted
           { txn = e.txn; protocol = e.protocol; op = e.op; item; site;
             mode = e.lock; schedule;
             ts = Some e.prec.Ccdb_model.Precedence.ts;
             at = Rt.now t.rt });
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
          on_grant t txn_id ~epoch ~ts copy value schedule))
    grants

and notify_promotions t ((item, qm_site) as copy) promoted =
  List.iter
    (fun (p : Q.entry) ->
      let txn_id = p.txn and epoch = p.epoch in
      Rt.emit t.rt
        (Rt.Lock_promoted
           { txn = txn_id; item; site = qm_site; at = Rt.now t.rt });
      (* the queue manager tells the issuer its grant here became normal *)
      send t ~src:qm_site ~dst:p.site ~kind:"u-normal" (fun () ->
          on_normal t txn_id ~epoch copy))
    promoted

and on_release_msg t ((item, site) as copy) txn_id value_opt =
  match Q.release (queue t copy) ~txn:txn_id with
  | None -> ()
  | Some (e, promoted) ->
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
    Rt.emit t.rt
      (Rt.Lock_released
         { txn = txn_id; protocol = e.protocol; op = e.op; item; site;
           granted_at = e.granted_at; at; aborted = false;
           ts = Some e.prec.Ccdb_model.Precedence.ts });
    notify_promotions t copy promoted;
    pump t copy

and on_transform_msg t ((item, site) as copy) txn_id value_opt =
  match Q.transform (queue t copy) ~txn:txn_id with
  | None -> ()
  | Some e ->
    (match e.lock with
     | Some mode ->
       Rt.emit t.rt
         (Rt.Lock_transformed { txn = txn_id; item; site; mode;
                                at = Rt.now t.rt })
     | None -> ());
    (match e.op, value_opt with
     | Ccdb_model.Op.Write, Some value when not e.implemented ->
       (* the T/O write is implemented when its lock turns into a semi-lock *)
       Ccdb_storage.Store.apply_write (Rt.store t.rt) ~item ~site ~txn:txn_id
         ~value ~at:(Rt.now t.rt);
       e.implemented <- true
     | _, _ -> ());
    pump t copy

and on_abort_msg t ((item, site) as copy) txn_id =
  match Q.abort (queue t copy) ~txn:txn_id with
  | None -> ()
  | Some (e, promoted) ->
    (* withdraw an aborted T/O attempt's grant-time read from the log *)
    (if Ccdb_model.Protocol.equal e.protocol Ccdb_model.Protocol.T_o
        && Ccdb_model.Op.equal e.op Ccdb_model.Op.Read && e.lock <> None then
       Ccdb_storage.Store.discard_reads (Rt.store t.rt) ~item ~site ~txn:txn_id);
    (if e.lock <> None then
       Rt.emit t.rt
         (Rt.Lock_released
            { txn = txn_id; protocol = e.protocol; op = e.op; item; site;
              granted_at = e.granted_at; at = Rt.now t.rt; aborted = true;
              ts = Some e.prec.Ccdb_model.Precedence.ts })
     else
       Rt.emit t.rt
         (Rt.Request_withdrawn
            { txn = txn_id; item; site; at = Rt.now t.rt }));
    notify_promotions t copy promoted;
    pump t copy

(* --- issuer-side state machine ------------------------------------------- *)

and on_grant t txn_id ~epoch ~ts copy value schedule =
  match Hashtbl.find_opt t.states txn_id with
  | None -> ()
  | Some st ->
    let ts_ok = match st.ts with None -> true | Some expect -> expect = ts in
    if st.epoch = epoch && ts_ok && st.phase = Negotiating then begin
      (match List.assoc_opt copy st.slots with
       | Some Waiting ->
         notify_progress t txn_id;
         set_slot st copy
           (Granted
              { value;
                normal =
                  Ccdb_model.Lock.schedule_equal schedule Ccdb_model.Lock.Normal });
         check_progress t st
       | Some (Granted _ | Backed _) | None -> ())
    end

and on_normal t txn_id ~epoch copy =
  match Hashtbl.find_opt t.states txn_id with
  | None -> ()
  | Some st ->
    if st.epoch = epoch then begin
      (match List.assoc_opt copy st.slots with
       | Some (Granted g) -> g.normal <- true
       | Some (Waiting | Backed _) | None -> ());
      if st.phase = Draining then maybe_release t st
    end

and on_backoff t txn_id ~epoch ~ts ~op copy ts' =
  match Hashtbl.find_opt t.states txn_id with
  | None -> ()
  | Some st ->
    let ts_ok = match st.ts with None -> false | Some expect -> expect = ts in
    if st.epoch = epoch && ts_ok && st.phase = Negotiating then begin
      Rt.emit t.rt (Rt.Pa_backoff { txn = txn_id; op; at = Rt.now t.rt });
      (match List.assoc_opt copy st.slots with
       | Some Waiting ->
         set_slot st copy (Backed ts');
         check_progress t st
       | Some (Granted _ | Backed _) | None -> ())
    end

and on_reject t txn_id ~epoch ~ts rejected_copy op =
  match Hashtbl.find_opt t.states txn_id with
  | None -> ()
  | Some st ->
    let ts_ok = match st.ts with None -> false | Some expect -> expect = ts in
    if st.epoch = epoch && ts_ok && st.phase = Negotiating then
      restart t st ~except:(Some rejected_copy)
        ~reason:(Rt.To_rejected op)

and check_progress t st =
  let undecided = List.exists (fun (_, s) -> s = Waiting) st.slots in
  if not undecided then begin
    let backs =
      List.filter_map
        (fun (_, s) -> match s with Backed ts' -> Some ts' | _ -> None)
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
      let ts' = List.fold_left max ts0 backs in
      st.ts <- Some ts';
      st.slots <- List.map (fun (c, _) -> (c, Waiting)) st.slots;
      st.reads <- [];
      List.iter
        (fun ((item, site), _) ->
          send t ~src:st.txn.site ~dst:site ~kind:"u-update" (fun () ->
              (match Q.update_ts (queue t (item, site)) ~txn:st.txn.id ~ts:ts' with
               | (`Moved | `Revoked | `Absent) as r ->
                 if r <> `Absent then
                   Rt.emit t.rt
                     (Rt.Ts_updated
                        { txn = st.txn.id; item; site; ts = ts';
                          revoked = (r = `Revoked); at = Rt.now t.rt }));
              pump t (item, site)))
        st.slots
  end

and start_compute t st =
  notify_unblocked t st.txn.id;
  List.iter
    (fun ((item, _site), s) ->
      match s with
      | Granted { value; _ } ->
        if not (List.mem_assoc item st.reads) then
          st.reads <- (item, value) :: st.reads
      | Waiting | Backed _ -> assert false)
    st.slots;
  st.phase <- Computing;
  ignore
    (Ccdb_sim.Engine.schedule (Rt.engine t.rt) ~after:st.txn.compute_time
       (fun () -> finish t st))

and finish t st =
  let txn = st.txn in
  let read_value item =
    match List.assoc_opt item st.reads with Some v -> v | None -> 0
  in
  st.write_values <-
    (match st.payload with
     | Some f -> f read_value
     | None -> List.map (fun item -> (item, txn.id)) txn.write_set);
  st.executed <- Rt.now t.rt;
  let commit () = commit_txn t st in
  let all_normal =
    List.for_all
      (fun (_, s) -> match s with Granted g -> g.normal | _ -> false)
      st.slots
  in
  if all_normal then begin
    match t.committer with
    | Some c ->
      (* durable: past the lock point, releases wait for the presumed-abort
         2PC decision at each participant *)
      st.phase <- Done;
      let value_for = value_for_fn st in
      let by_site = ref [] in
      List.iter
        (fun (item, site, op) ->
          let action =
            { Ccdb_storage.Wal.item; op; value = value_for item; attempt = 0;
              granted_at = 0. }
          in
          match List.assoc_opt site !by_site with
          | Some r -> r := action :: !r
          | None -> by_site := (site, ref [ action ]) :: !by_site)
        (copies_of t.rt txn);
      let participants =
        List.sort (fun (a, _) (b, _) -> Int.compare a b) !by_site
        |> List.map (fun (site, r) -> (site, List.rev !r))
      in
      Ccdb_protocols.Commit.commit c ~txn:txn.id ~home:txn.site ~participants
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
      (fun ((item, site), _) ->
        let value_opt = value_for item in
        send t ~src:txn.site ~dst:site ~kind:"u-transform" (fun () ->
            on_transform_msg t (item, site) txn.id value_opt))
      st.slots;
    maybe_release t st
  end

and commit_txn t st =
  Rt.emit t.rt
    (Rt.Txn_committed
       { txn = st.txn; submitted_at = st.submitted_at;
         executed_at = st.executed; restarts = st.restarts });
  t.active <- t.active - 1;
  if t.active = 0 then
    match t.detector with
    | Some (Central d) -> Ccdb_protocols.Deadlock.stop d
    | Some (Probing _) | None -> ()

and value_for_fn st =
  let txn = st.txn in
  fun item ->
    if List.mem item txn.write_set then
      Some
        (match List.assoc_opt item st.write_values with
         | Some v -> v
         | None -> txn.id)
    else None

and send_releases t st =
  let txn = st.txn in
  st.phase <- Done;
  let value_for = value_for_fn st in
  List.iter
    (fun ((item, site), _) ->
      let value_opt = value_for item in
      send t ~src:txn.site ~dst:site ~kind:"u-release" (fun () ->
          on_release_msg t (item, site) txn.id value_opt))
    st.slots;
  Hashtbl.remove t.states txn.id

and maybe_release t st =
  let all_normal =
    List.for_all
      (fun (_, s) -> match s with Granted g -> g.normal | _ -> false)
      st.slots
  in
  if all_normal then begin
    t.draining <- t.draining - 1;
    send_releases t st
  end

and restart t st ~except ~reason =
  let txn = st.txn in
  st.phase <- Restarting;
  notify_unblocked t txn.id;
  Rt.emit t.rt (Rt.Txn_restarted { txn; reason; at = Rt.now t.rt });
  st.restarts <- st.restarts + 1;
  st.epoch <- st.epoch + 1;
  (* invalidate until the next attempt begins *)
  (match st.ts with Some _ -> st.ts <- Some (-1) | None -> ());
  List.iter
    (fun (item, site, _) ->
      if Some (item, site) <> except then
        send t ~src:txn.site ~dst:site ~kind:"u-abort" (fun () ->
            on_abort_msg t (item, site) txn.id))
    (copies_of t.rt txn);
  st.slots <- [];
  st.reads <- [];
  ignore
    (Ccdb_sim.Engine.schedule (Rt.engine t.rt)
       ~after:
         (Rt.restart_backoff t.rt ~site:txn.site
            ~base:t.config.restart_delay ~attempt:st.restarts)
       (fun () -> begin_attempt t st))

and begin_attempt t st =
  (* future-work item (4) of the paper: a restarted transaction may switch
     its concurrency-control method *)
  (match t.reselect with
   | Some choose when st.restarts > 0 ->
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
  notify_blocked t txn.id;
  let copies = copies_of t.rt txn in
  st.slots <- List.map (fun (item, site, _) -> ((item, site), Waiting)) copies;
  st.reads <- [];
  let epoch = st.epoch in
  let ts = st.ts in
  let interval = t.config.backoff_interval in
  List.iter
    (fun (item, site, op) ->
      send t ~src:txn.site ~dst:site ~kind:"u-req" (fun () ->
          (* the channel delivers an earlier attempt's u-abort before this
             u-req unless the transport gave up on it; an entry of this
             transaction still queued here means it did, so withdraw it *)
          on_abort_msg t (item, site) txn.id;
          let q = queue t (item, site) in
          let verdict =
            Q.request q ~txn:txn.id ~site:txn.site ~protocol:txn.protocol ~ts
              ~interval ~epoch ~op
          in
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
                 on_backoff t txn.id ~epoch ~ts ~op (item, site) ts'));
          pump t (item, site)))
    copies

(* --- construction --------------------------------------------------------- *)

let abort_victim t victim =
  match Hashtbl.find_opt t.states victim with
  | None -> ()
  | Some st ->
    if
      st.phase = Negotiating
      && Ccdb_model.Protocol.equal st.txn.protocol Ccdb_model.Protocol.Two_pl
    then restart t st ~except:None ~reason:Rt.Deadlock_victim

let choose_victim t cycle =
  let restarting id =
    match Hashtbl.find_opt t.states id with
    | Some st -> st.phase = Restarting
    | None -> false
  in
  (* a member already aborted for this cycle will break it on its own;
     aborting a second member is pure churn (and with repeated collisions
     can alternate forever) *)
  let victim =
    if List.exists restarting cycle then None
    else begin
      let two_pl_waiting id =
        match Hashtbl.find_opt t.states id with
        | Some st ->
          st.phase = Negotiating
          && Ccdb_model.Protocol.equal st.txn.protocol Ccdb_model.Protocol.Two_pl
        | None -> false
      in
      match List.filter two_pl_waiting cycle with
      | [] -> None (* Corollary 2: a real deadlock always offers a 2PL victim;
                      anything else is a transient snapshot, re-checked later *)
      | candidates -> Some (List.fold_left max min_int candidates)
    end
  in
  Rt.emit t.rt (Rt.Deadlock_detected { cycle; victim; at = Rt.now t.rt });
  victim

(* Crash cleanup: restart negotiating 2PL and T/O transactions that depend
   on the dead site (home site crashed, or a slot hosted there), so no
   semi-lock or queue entry outlives its issuer's progress.  PA
   transactions are exempt — Corollary 1 makes PA restart-free, and the
   analyzer's [thm.pa-restarted] check would rightly flag an abort; their
   negotiation pushes forward through transport retries instead.  Anything
   past Negotiating (Computing / Draining) likewise pushes forward. *)
let crash_restartable st =
  st.phase = Negotiating
  && not (Ccdb_model.Protocol.equal st.txn.protocol Ccdb_model.Protocol.Pa)

let on_site_crash t site =
  let victims =
    Hashtbl.fold
      (fun id st acc ->
        if
          crash_restartable st
          && (st.txn.Ccdb_model.Txn.site = site
              || List.exists (fun ((_, s), _) -> s = site) st.slots)
        then id :: acc
        else acc)
      t.states []
    |> List.sort compare
  in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.states id with
      | Some st -> restart t st ~except:None ~reason:Rt.Site_failure
      | None -> ())
    victims

let on_stall t txn_id =
  match Hashtbl.find_opt t.states txn_id with
  | Some st when crash_restartable st ->
    restart t st ~except:None ~reason:Rt.Site_failure
  | Some _ | None -> ()

(* wait-for targets of [txn] across the queues hosted at [site] *)
let local_waits_on t ~site ~txn =
  Hashtbl.fold
    (fun (_, s) q acc ->
      if s <> site then acc
      else
        List.fold_left
          (fun acc (waiter, holder) -> if waiter = txn then holder :: acc else acc)
          acc (Q.waits_for q))
    t.queues []
  |> List.sort_uniq Int.compare

(* Fail-stop wipe of the unified queues hosted at [site]: ungranted 2PL and
   T/O entries are volatile and vanish; granted entries and every PA entry
   survive (WAL-backed grants; acknowledged PA negotiations — Corollary 1). *)
let on_site_wipe t site =
  let dropped = ref 0 and preserved = ref 0 in
  Hashtbl.iter
    (fun (item, s) q ->
      if s = site then begin
        List.iter
          (fun (e : Q.entry) ->
            incr dropped;
            Rt.emit t.rt
              (Rt.Request_dropped
                 { txn = e.txn; item; site; at = Rt.now t.rt }))
          (Q.wipe_volatile q);
        preserved := !preserved + List.length (Q.entries q)
      end)
    t.queues;
  (!dropped, !preserved)

let create ?(config = default_config) ?reselect rt =
  let t =
    { rt; config; queues = Hashtbl.create 64; states = Hashtbl.create 64;
      reselect; active = 0; draining = 0; detector = None; committer = None }
  in
  let detector =
    match config.detection with
    | Ccdb_protocols.Deadlock.Centralized { interval; detector_site } ->
      Central
        (Ccdb_protocols.Deadlock.create_centralized ~engine:(Rt.engine rt)
           ~net:(Rt.net rt) ~interval ~detector_site
           ~edges:(fun () -> all_edges t)
           ~choose_victim:(fun cycle -> choose_victim t cycle)
           ~victim_site:(fun txn_id ->
             match Hashtbl.find_opt t.states txn_id with
             | Some st when st.phase = Negotiating -> Some st.txn.site
             | Some _ | None -> None)
           ~abort:(fun victim -> abort_victim t victim))
    | Ccdb_protocols.Deadlock.Edge_chasing { probe_delay } ->
      Probing
        (Ccdb_protocols.Edge_chasing.create (Rt.engine rt) (Rt.net rt)
           { Ccdb_protocols.Edge_chasing.probe_delay }
           { Ccdb_protocols.Edge_chasing.is_waiting =
               (fun txn_id ->
                 (* draining transactions are committed but still wait for
                    their pre-scheduled grants to become normal; probes must
                    pass through them *)
                 match Hashtbl.find_opt t.states txn_id with
                 | Some st -> st.phase = Negotiating || st.phase = Draining
                 | None -> false);
             home_site =
               (fun txn_id ->
                 match Hashtbl.find_opt t.states txn_id with
                 | Some st -> Some st.txn.site
                 | None -> None);
             pending_sites =
               (fun txn_id ->
                 match Hashtbl.find_opt t.states txn_id with
                 | Some st ->
                   List.filter_map
                     (fun ((_, site), slot) ->
                       match slot with
                       | Waiting -> Some site
                       | Granted { normal = false; _ } ->
                         (* a pre-scheduled grant is a wait hosted at the
                            queue's site *)
                         Some site
                       | Granted { normal = true; _ } | Backed _ -> None)
                     st.slots
                   |> List.sort_uniq Int.compare
                 | None -> []);
             local_waits_on = (fun ~site ~txn -> local_waits_on t ~site ~txn);
             may_initiate =
               (fun txn_id ->
                 (* only 2PL transactions can be deadlock victims
                    (Corollary 2), so only they probe *)
                 match Hashtbl.find_opt t.states txn_id with
                 | Some st ->
                   Ccdb_model.Protocol.equal st.txn.protocol
                     Ccdb_model.Protocol.Two_pl
                 | None -> false);
             on_deadlock =
               (fun initiator ->
                 Rt.emit t.rt
                   (Rt.Deadlock_detected
                      { cycle = [ initiator ]; victim = Some initiator;
                        at = Rt.now t.rt });
                 abort_victim t initiator) })
  in
  t.detector <- Some detector;
  Rt.on_site_crash rt (fun site -> on_site_crash t site);
  Rt.on_stall rt (fun txn -> on_stall t txn);
  if Rt.durable rt then begin
    Rt.on_site_wipe rt (fun site -> on_site_wipe t site);
    t.committer <-
      Some
        (Ccdb_protocols.Commit.create rt
           { Ccdb_protocols.Commit.apply =
               (fun ~txn ~site actions ->
                 List.iter
                   (fun (a : Ccdb_storage.Wal.action) ->
                     on_release_msg t (a.item, site) txn a.value)
                   actions);
             commit_point =
               (fun ~txn ->
                 match Hashtbl.find_opt t.states txn with
                 | Some st ->
                   commit_txn t st;
                   Hashtbl.remove t.states txn
                 | None -> ()) })
  end;
  t

let submit t ?payload txn =
  if Hashtbl.mem t.states txn.Ccdb_model.Txn.id then
    invalid_arg "Unified_system.submit: duplicate transaction id";
  let st =
    { txn; payload; submitted_at = Rt.now t.rt; ts = None; epoch = 0;
      restarts = 0; backed_off = false; phase = Negotiating; slots = [];
      reads = []; write_values = []; executed = 0. }
  in
  Hashtbl.add t.states txn.id st;
  t.active <- t.active + 1;
  Rt.track t.rt txn.id;
  (match t.detector with
   | Some (Central d) -> Ccdb_protocols.Deadlock.start d
   | Some (Probing _) | None -> ());
  begin_attempt t st

let active t = t.active
let draining t = t.draining

let detector_cycles t =
  match t.detector with
  | Some (Central d) -> Ccdb_protocols.Deadlock.cycles_found d
  | Some (Probing ec) -> Ccdb_protocols.Edge_chasing.deadlocks_found ec
  | None -> 0

let debug_dump t =
  let buf = Buffer.create 1024 in
  Hashtbl.iter
    (fun id st ->
      let phase =
        match st.phase with
        | Negotiating -> "negotiating"
        | Restarting -> "restarting"
        | Computing -> "computing"
        | Draining -> "draining"
        | Done -> "done"
      in
      let slot_str (copy, slot) =
        let item, site = copy in
        let state =
          match slot with
          | Waiting -> "?"
          | Granted { normal = true; _ } -> "G"
          | Granted { normal = false; _ } -> "g"
          | Backed ts -> Printf.sprintf "B%d" ts
        in
        Printf.sprintf "%d@%d:%s" item site state
      in
      Buffer.add_string buf
        (Printf.sprintf "t%d [%s] %s ts=%s epoch=%d slots={%s}\n" id
           (Ccdb_model.Protocol.to_string st.txn.protocol)
           phase
           (match st.ts with Some ts -> string_of_int ts | None -> "-")
           st.epoch
           (String.concat " " (List.map slot_str st.slots))))
    t.states;
  Hashtbl.iter
    (fun (item, site) q ->
      match Q.entries q with
      | [] -> ()
      | entries ->
        Buffer.add_string buf (Printf.sprintf "queue %d@%d:\n" item site);
        List.iter
          (fun (e : Q.entry) ->
            Buffer.add_string buf
              (Printf.sprintf "  t%d [%s] %s prec=%d%s%s%s\n" e.txn
                 (Ccdb_model.Protocol.to_string e.protocol)
                 (Ccdb_model.Op.to_string e.op)
                 e.prec.Ccdb_model.Precedence.ts
                 (match e.lock with
                  | Some m -> " lock=" ^ Ccdb_model.Lock.to_string m
                  | None -> "")
                 (if e.blocked then " BLOCKED" else "")
                 (match e.schedule with
                  | Ccdb_model.Lock.Pre_scheduled -> " presched"
                  | Ccdb_model.Lock.Normal -> "")))
          entries)
    t.queues;
  Buffer.contents buf

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
  Hashtbl.fold
    (fun _ q acc ->
      List.fold_left
        (fun acc (e : Q.entry) ->
          if unimplemented e then (e.prec, e.protocol) :: acc else acc)
        acc (Q.entries q))
    t.queues []
  |> List.sort (fun (a, _) (b, _) -> Ccdb_model.Precedence.compare a b)
