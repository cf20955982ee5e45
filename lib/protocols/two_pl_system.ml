module Copies = Ccdb_storage.Copy_table
module Int_list = Ccdb_util.Int_list
module L = Lifecycle

type prevention = No_prevention | Wait_die | Wound_wait

type config = {
  restart_delay : float;
  detection : Deadlock.detection;
  prevention : prevention;
}

let default_config =
  { restart_delay = 50.; detection = Deadlock.default_detection;
    prevention = No_prevention }

type phase = Waiting | Restarting | Computing | Done

type txn_state = {
  txn : Ccdb_model.Txn.t;
  payload : L.payload_fn option;
  submitted_at : float;
  mutable attempt : int; (* also its restart count *)
  mutable phase : phase;
  mutable awaiting : (int * int) list; (* copies not yet granted *)
  mutable granted : ((int * int) * Ccdb_model.Op.kind * float) list;
  mutable reads : (int * int) list;    (* item -> value observed at grant *)
  mutable executed : float; (* end of the compute phase; under 2PC the
                               commit point fires later *)
}

type t = {
  rt : Runtime.t;
  config : config;
  tables : Lock_table.t Copies.t;
  live : txn_state L.live;
  mutable committer : Commit.t option; (* durable runtimes only *)
}

(* Commit point: the transaction is durably decided.  Without a commit
   protocol this is the end of the compute phase; with one, the learned
   decision. *)
let commit_txn t st =
  L.commit t.live st.txn ~submitted_at:st.submitted_at
    ~executed_at:st.executed ~restarts:st.attempt;
  L.remove t.live st.txn.id

(* The per-site 2PC payload: every granted copy, grouped by site, with the
   value its release must implement. *)
let participants_of st value_for =
  Commit.participants st.granted
    ~site:(fun ((_, site), _, _) -> site)
    ~action:(fun ((item, _), op, granted_at) ->
      let value =
        match op with
        | Ccdb_model.Op.Write -> Some (value_for item)
        | Ccdb_model.Op.Read -> None
      in
      { Ccdb_storage.Wal.item; op; value; attempt = st.attempt; granted_at })

(* --- grant pump ------------------------------------------------------- *)

let rec pump t ((item, site) as copy) =
  let tbl = Copies.get t.tables ~item ~site in
  let newly = Lock_table.grant_ready tbl in
  List.iter (send_grant t copy item site) newly

and send_grant t copy item site (entry : Lock_table.entry) =
  let store = Runtime.store t.rt in
  match L.find t.live entry.txn with
  | None -> () (* transaction already gone; release will never come, but an
                  abort for this attempt is in flight and will clean up *)
  | Some st ->
    if Runtime.has_consumer t.rt then
      Runtime.emit t.rt
        (Runtime.Lock_granted
           { txn = entry.txn; protocol = Ccdb_model.Protocol.Two_pl;
             op = entry.op; item; site;
             mode =
               Some
                 (match entry.op with
                  | Ccdb_model.Op.Read -> Ccdb_model.Lock.Rl
                  | Ccdb_model.Op.Write -> Ccdb_model.Lock.Wl);
             schedule = Ccdb_model.Lock.Normal; ts = None;
             at = Runtime.now t.rt });
    let value = Ccdb_storage.Store.read store ~item ~site in
    let attempt = entry.attempt in
    Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
      ~kind:"lock-grant" (fun () ->
        on_grant t entry.txn attempt copy entry.op value)

and on_grant t txn_id attempt copy op value =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.attempt = attempt && st.phase = Waiting
       && Int_list.mem_pair copy st.awaiting then begin
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      L.progress t.live txn_id;
      st.granted <- (copy, op, Runtime.now t.rt) :: st.granted;
      let item = fst copy in
      if not (Int_list.mem_assoc item st.reads) then
        st.reads <- (item, value) :: st.reads;
      if st.awaiting = [] then begin
        st.phase <- Computing;
        L.unblocked t.live txn_id;
        ignore
          (Ccdb_sim.Engine.schedule (Runtime.engine t.rt)
             ~after:st.txn.compute_time (fun () -> finish t st))
      end
    end

and finish t st =
  let txn = st.txn in
  let writes = L.writes st.payload ~reads:st.reads txn in
  let value_for item = L.value_for writes txn item in
  st.phase <- Done;
  st.executed <- Runtime.now t.rt;
  match t.committer with
  | Some c ->
    (* durable: past the lock point the transaction's fate is settled by
       the commit protocol; locks are released when each participant learns
       the decision *)
    Commit.commit c ~txn:txn.id ~home:txn.site
      ~participants:(participants_of st value_for)
  | None ->
    List.iter
      (fun (((item, site) as copy), op, granted_at) ->
        let wvalue =
          match op with
          | Ccdb_model.Op.Write -> Some (value_for item)
          | Ccdb_model.Op.Read -> None
        in
        let attempt = st.attempt in
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"lock-release" (fun () ->
            on_release t copy txn.id attempt op wvalue granted_at))
      st.granted;
    commit_txn t st

and on_release t ((item, site) as copy) txn_id attempt op wvalue granted_at =
  let tbl = Copies.get t.tables ~item ~site in
  match Lock_table.release tbl ~txn:txn_id ~attempt with
  | None -> ()
  | Some _entry ->
    let store = Runtime.store t.rt in
    let at = Runtime.now t.rt in
    (* 2PL operations are implemented at lock release (section 4.3). *)
    (match op, wvalue with
     | Ccdb_model.Op.Write, Some value ->
       Ccdb_storage.Store.apply_write store ~item ~site ~txn:txn_id ~value ~at
     | Ccdb_model.Op.Write, None -> assert false
     | Ccdb_model.Op.Read, _ ->
       Ccdb_storage.Store.log_read store ~item ~site ~txn:txn_id ~at);
    if Runtime.has_consumer t.rt then
      Runtime.emit t.rt
        (Runtime.Lock_released
           { txn = txn_id; protocol = Ccdb_model.Protocol.Two_pl; op; item; site;
             granted_at; at; aborted = false; ts = None });
    pump t copy

(* --- submission and restart ------------------------------------------ *)

let rec granted_at_of ~(item : int) ~(site : int) = function
  | [] -> None
  | ((i, s), _, at) :: rest ->
    if i = item && s = site then Some at else granted_at_of ~item ~site rest

(* Conflicting entries of other transactions already queued or granted at
   this table: the transactions a new request would wait behind. *)
let blockers tbl ~txn ~op =
  List.filter
    (fun (e : Lock_table.entry) ->
      e.txn <> txn && Ccdb_model.Op.conflicts e.op op)
    (Lock_table.entries tbl)

let rec send_requests t st =
  let txn = st.txn in
  let copies = L.copies t.rt txn in
  st.awaiting <- List.map (fun (item, site, _) -> (item, site)) copies;
  st.granted <- [];
  st.reads <- [];
  st.phase <- Waiting;
  L.blocked t.live txn.id;
  List.iter
    (fun (item, site, op) ->
      let attempt = st.attempt in
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"lock-req" (fun () ->
          let tbl = Copies.get t.tables ~item ~site in
          let proceed () =
            ignore (Lock_table.request tbl ~txn:txn.id ~attempt ~op);
            if Runtime.has_consumer t.rt then
              Runtime.emit t.rt
                (Runtime.Lock_requested
                   { txn = txn.id; protocol = Ccdb_model.Protocol.Two_pl; op;
                     item; site; origin = txn.site; ts = None;
                     outcome = Runtime.Req_admitted; at = Runtime.now t.rt });
            pump t (item, site)
          in
          match t.config.prevention with
          | No_prevention -> proceed ()
          | Wait_die ->
            (* ids are ages (smaller = older): a requester younger than any
               transaction it would wait behind dies and retries with its
               original age *)
            if
              List.exists
                (fun (e : Lock_table.entry) -> e.txn < txn.id)
                (blockers tbl ~txn:txn.id ~op)
            then
              Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
                ~kind:"die" (fun () ->
                  abort_victim ~reason:Runtime.Prevention_kill t txn.id)
            else proceed ()
          | Wound_wait ->
            (* an older requester wounds every younger transaction in its
               way; waiting happens only behind older transactions *)
            List.iter
              (fun (e : Lock_table.entry) ->
                if e.txn > txn.id then
                  match L.find t.live e.txn with
                  | Some victim_st ->
                    Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site
                      ~dst:victim_st.txn.site ~kind:"wound" (fun () ->
                        abort_victim ~reason:Runtime.Prevention_kill t e.txn)
                  | None -> ())
              (blockers tbl ~txn:txn.id ~op);
            proceed ()))
    copies

and abort_victim ?(reason = Runtime.Deadlock_victim) t victim =
  match L.find t.live victim with
  | None -> ()
  | Some st ->
    if st.phase = Waiting then begin
      st.phase <- Restarting;
      L.unblocked t.live victim;
      let txn = st.txn in
      let old_attempt = st.attempt in
      let granted = st.granted in
      Runtime.emit t.rt
        (Runtime.Txn_restarted { txn; reason; at = Runtime.now t.rt });
      (* withdraw every request, granted or not *)
      List.iter
        (fun (item, site, op) ->
          Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
            ~kind:"lock-abort" (fun () ->
              let tbl = Copies.get t.tables ~item ~site in
              match Lock_table.release tbl ~txn:txn.id ~attempt:old_attempt with
              | None -> ()
              | Some entry ->
                (if Runtime.has_consumer t.rt then
                   if entry.granted then begin
                     let granted_at =
                       match granted_at_of ~item ~site granted with
                       | Some at -> at
                       | None -> Runtime.now t.rt
                     in
                     Runtime.emit t.rt
                       (Runtime.Lock_released
                          { txn = txn.id; protocol = Ccdb_model.Protocol.Two_pl;
                            op; item; site; granted_at; at = Runtime.now t.rt;
                            aborted = true; ts = None })
                   end
                   else
                     Runtime.emit t.rt
                       (Runtime.Request_withdrawn
                          { txn = txn.id; item; site; at = Runtime.now t.rt }));
                pump t (item, site)))
        (L.copies t.rt txn);
      st.attempt <- st.attempt + 1;
      st.awaiting <- [];
      st.granted <- [];
      L.schedule_restart t.rt ~site:txn.site ~base:t.config.restart_delay
        ~attempt:st.attempt (fun () -> send_requests t st)
    end

(* Crash cleanup: restart every transaction still in its read (Waiting)
   phase that depends on the dead site — its home site crashed, or it
   awaits or holds a lock on a copy there.  A transaction that is merely
   slow is left alone: the transport delivers every message, however
   late.  Only Waiting transactions are touched: anything past lock-point
   pushes forward through transport retries (and, when durable, through
   the commit protocol's termination), so no implemented write is ever
   lost.  [abort_victim]
   withdraws all its requests, so no lock leaks on the dead site: under
   fail-pause the withdrawal reaches the live table after recovery; under
   fail-stop the wipe already dropped the waiting entry and the late
   withdrawal finds nothing. *)
let depends_on_site st site =
  st.txn.Ccdb_model.Txn.site = site
  || List.exists (fun (_, s) -> s = site) st.awaiting
  || List.exists (fun ((_, s), _, _) -> s = site) st.granted

let create ?(config = default_config) rt =
  let t =
    { rt; config;
      tables = Copies.create (Runtime.catalog rt) Lock_table.create;
      live = L.live rt; committer = None }
  in
  L.detect_deadlocks t.live config.detection t.tables
    ~waits_for:Lock_table.iter_waits_for
    { L.home = (fun st -> st.txn.site);
      abortable = (fun st -> st.phase = Waiting);
      restarting = (fun st -> st.phase = Restarting);
      eligible = (fun _ -> true);
      waiting = (fun st -> st.phase = Waiting && st.awaiting <> []);
      pending_sites =
        (fun st -> List.sort_uniq Int.compare (List.map snd st.awaiting));
      may_initiate = (fun _ -> true);
      abort = (fun victim -> abort_victim t victim) };
  L.restart_on_crash t.live
    ~restartable:(fun st -> st.phase = Waiting)
    ~depends_on:depends_on_site
    (fun st -> abort_victim ~reason:Runtime.Site_failure t st.txn.id);
  if Runtime.durable rt then begin
    (* Fail-stop wipe: waiting requests are volatile and vanish; granted
       locks are WAL-backed and survive in place. *)
    L.on_site_wipe rt t.tables
      ~dropped:(fun tbl ->
        List.map
          (fun (e : Lock_table.entry) -> e.txn)
          (Lock_table.wipe_waiting tbl))
      ~preserved:(fun tbl -> List.length (Lock_table.entries tbl));
    t.committer <-
      Some
        (L.commit_engine t.live
           ~release:(fun ~txn ~site (a : Ccdb_storage.Wal.action) ->
             on_release t (a.item, site) txn a.attempt a.op a.value
               a.granted_at)
           ~commit_point:(commit_txn t))
  end;
  t

let submit t ?payload txn =
  let st =
    { txn; payload; submitted_at = Runtime.now t.rt; attempt = 0;
      phase = Waiting; awaiting = []; granted = []; reads = []; executed = 0. }
  in
  L.admit t.live ~duplicate:"Two_pl_system.submit: duplicate transaction id"
    txn.id st;
  if t.config.prevention = No_prevention then L.start_detector t.live;
  send_requests t st

let active t = L.active t.live
let detector_cycles t = L.detector_cycles t.live
