module Copies = Ccdb_storage.Copy_table
module Int_tbl = Ccdb_util.Int_tbl
module Int_list = Ccdb_util.Int_list

type prevention = No_prevention | Wait_die | Wound_wait

type config = {
  restart_delay : float;
  detection : Deadlock.detection;
  prevention : prevention;
}

let default_config =
  { restart_delay = 50.; detection = Deadlock.default_detection;
    prevention = No_prevention }

type payload_fn = (int -> int) -> (int * int) list

type phase = Waiting | Restarting | Computing | Done

type txn_state = {
  txn : Ccdb_model.Txn.t;
  payload : payload_fn option;
  submitted_at : float;
  mutable attempt : int;
  mutable restarts : int;
  mutable phase : phase;
  mutable awaiting : (int * int) list; (* copies not yet granted *)
  mutable granted : ((int * int) * Ccdb_model.Op.kind * float) list;
  mutable reads : (int * int) list;    (* item -> value observed at grant *)
  mutable executed : float; (* end of the compute phase; under 2PC the
                               commit point fires later *)
}

type detector = Central of Deadlock.t | Probing of Edge_chasing.t

type t = {
  rt : Runtime.t;
  config : config;
  tables : Lock_table.t Copies.t;
  states : txn_state Int_tbl.t;
  mutable active : int;
  mutable detector : detector option;
  mutable committer : Commit.t option; (* 2PC driver, durable runtimes only *)
}

let notify_blocked t txn_id =
  match t.detector with
  | Some (Probing ec) -> Edge_chasing.txn_blocked ec txn_id
  | Some (Central _) | None -> ()

let notify_unblocked t txn_id =
  match t.detector with
  | Some (Probing ec) -> Edge_chasing.txn_unblocked ec txn_id
  | Some (Central _) | None -> ()

let notify_progress t txn_id =
  match t.detector with
  | Some (Probing ec) -> Edge_chasing.txn_progress ec txn_id
  | Some (Central _) | None -> ()

(* The physical copies a transaction touches: one read site per read item,
   every copy for each written item. *)
let copies_of rt (txn : Ccdb_model.Txn.t) =
  let catalog = Runtime.catalog rt in
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

let all_edges t =
  Copies.fold
    (fun ~item:_ ~site:_ table acc ->
      List.rev_append (Lock_table.waits_for table) acc)
    t.tables []

(* Commit point: the transaction is durably decided.  Without 2PC this is
   the end of the compute phase; with it, the coordinator's commit record. *)
let commit_txn t st =
  let txn = st.txn in
  Runtime.emit t.rt
    (Runtime.Txn_committed
       { txn; submitted_at = st.submitted_at; executed_at = st.executed;
         restarts = st.restarts });
  Int_tbl.remove t.states txn.id;
  t.active <- t.active - 1;
  if t.active = 0 then
    match t.detector with
    | Some (Central d) -> Deadlock.stop d
    | Some (Probing _) | None -> ()

(* The per-site 2PC payload: every granted copy, grouped by site, with the
   value its release must implement. *)
let participants_of st value_for =
  let by_site = ref [] in
  List.iter
    (fun ((item, site), op, granted_at) ->
      let value =
        match op with
        | Ccdb_model.Op.Write -> Some (value_for item)
        | Ccdb_model.Op.Read -> None
      in
      let action =
        { Ccdb_storage.Wal.item; op; value; attempt = st.attempt; granted_at }
      in
      match Int_list.assoc_opt site !by_site with
      | Some r -> r := action :: !r
      | None -> by_site := (site, ref [ action ]) :: !by_site)
    st.granted;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !by_site
  |> List.map (fun (site, r) -> (site, List.rev !r))

(* --- grant pump ------------------------------------------------------- *)

let rec pump t ((item, site) as copy) =
  let tbl = Copies.get t.tables ~item ~site in
  let newly = Lock_table.grant_ready tbl in
  List.iter (send_grant t copy item site) newly

and send_grant t copy item site (entry : Lock_table.entry) =
  let store = Runtime.store t.rt in
  match Int_tbl.find_opt t.states entry.txn with
  | None -> () (* transaction already gone; release will never come, but an
                  abort for this attempt is in flight and will clean up *)
  | Some st ->
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
  match Int_tbl.find_opt t.states txn_id with
  | None -> ()
  | Some st ->
    if st.attempt = attempt && st.phase = Waiting
       && Int_list.mem_pair copy st.awaiting then begin
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      notify_progress t txn_id;
      st.granted <- (copy, op, Runtime.now t.rt) :: st.granted;
      let item = fst copy in
      if not (Int_list.mem_assoc item st.reads) then
        st.reads <- (item, value) :: st.reads;
      if st.awaiting = [] then begin
        st.phase <- Computing;
        notify_unblocked t txn_id;
        ignore
          (Ccdb_sim.Engine.schedule (Runtime.engine t.rt)
             ~after:st.txn.compute_time (fun () -> finish t st))
      end
    end

and finish t st =
  let txn = st.txn in
  let read_value item =
    match Int_list.assoc_opt item st.reads with Some v -> v | None -> 0
  in
  let writes =
    match st.payload with
    | Some f -> f read_value
    | None -> List.map (fun item -> (item, txn.id)) txn.write_set
  in
  let value_for item =
    match Int_list.assoc_opt item writes with Some v -> v | None -> txn.id
  in
  st.phase <- Done;
  st.executed <- Runtime.now t.rt;
  match t.committer with
  | Some c ->
    (* durable: past the lock point the transaction's fate is settled by
       presumed-abort 2PC; locks are released when each participant learns
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
  let copies = copies_of t.rt txn in
  st.awaiting <- List.map (fun (item, site, _) -> (item, site)) copies;
  st.granted <- [];
  st.reads <- [];
  st.phase <- Waiting;
  notify_blocked t txn.id;
  List.iter
    (fun (item, site, op) ->
      let attempt = st.attempt in
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"lock-req" (fun () ->
          let tbl = Copies.get t.tables ~item ~site in
          let proceed () =
            ignore (Lock_table.request tbl ~txn:txn.id ~attempt ~op);
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
                  match Int_tbl.find_opt t.states e.txn with
                  | Some victim_st ->
                    Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site
                      ~dst:victim_st.txn.site ~kind:"wound" (fun () ->
                        abort_victim ~reason:Runtime.Prevention_kill t e.txn)
                  | None -> ())
              (blockers tbl ~txn:txn.id ~op);
            proceed ()))
    copies

and abort_victim ?(reason = Runtime.Deadlock_victim) t victim =
  match Int_tbl.find_opt t.states victim with
  | None -> ()
  | Some st ->
    if st.phase = Waiting then begin
      st.phase <- Restarting;
      notify_unblocked t victim;
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
                (if entry.granted then begin
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
        (copies_of t.rt txn);
      st.attempt <- st.attempt + 1;
      st.restarts <- st.restarts + 1;
      st.awaiting <- [];
      st.granted <- [];
      ignore
        (Ccdb_sim.Engine.schedule (Runtime.engine t.rt)
           ~after:
             (Runtime.restart_backoff t.rt ~site:txn.site
                ~base:t.config.restart_delay ~attempt:st.restarts) (fun () ->
               send_requests t st))
    end

(* Crash cleanup: abort every transaction still in its read (Waiting) phase
   that depends on the dead site — its home site crashed, or it awaits or
   holds a lock on a copy there.  Only Waiting transactions are touched:
   anything past lock-point pushes forward through transport retries (and,
   when durable, through 2PC termination), so no implemented write is ever
   lost.  [abort_victim] withdraws all its requests, so no lock leaks on
   the dead site: under fail-pause the withdrawal reaches the live table
   after recovery; under fail-stop the wipe already dropped the waiting
   entry and the late withdrawal finds nothing. *)
let depends_on_site st site =
  st.txn.Ccdb_model.Txn.site = site
  || List.exists (fun (_, s) -> s = site) st.awaiting
  || List.exists (fun ((_, s), _, _) -> s = site) st.granted

let on_site_crash t site =
  let victims =
    Int_tbl.fold
      (fun id st acc ->
        if st.phase = Waiting && depends_on_site st site then id :: acc
        else acc)
      t.states []
    |> List.sort Int.compare
  in
  List.iter (abort_victim ~reason:Runtime.Site_failure t) victims

(* Stall fallback: a Waiting transaction that produced no event for a full
   stall timeout lost traffic the transport gave up on (retry budget
   exhausted).  Restarting re-issues every request. *)
let on_stall t txn_id =
  match Int_tbl.find_opt t.states txn_id with
  | Some st when st.phase = Waiting ->
    abort_victim ~reason:Runtime.Site_failure t txn_id
  | Some _ | None -> ()

(* wait-for targets of [txn] across the lock tables hosted at [site] *)
let local_waits_on t ~site ~txn =
  let holders = ref [] in
  Copies.iter_site t.tables site (fun _ table ->
      List.iter
        (fun (waiter, holder) ->
          if waiter = txn then holders := holder :: !holders)
        (Lock_table.waits_for table));
  List.sort_uniq Int.compare !holders

(* Fail-stop wipe of the lock tables hosted at [site], in ascending item
   order: waiting requests are volatile and vanish; granted locks are
   WAL-backed and survive in place. *)
let on_site_wipe t site =
  let dropped = ref 0 and preserved = ref 0 in
  Copies.iter_site t.tables site (fun item tbl ->
      List.iter
        (fun (e : Lock_table.entry) ->
          incr dropped;
          Runtime.emit t.rt
            (Runtime.Request_dropped
               { txn = e.txn; item; site; at = Runtime.now t.rt }))
        (Lock_table.wipe_waiting tbl);
      preserved := !preserved + List.length (Lock_table.entries tbl));
  (!dropped, !preserved)

let create ?(config = default_config) rt =
  let t =
    { rt; config;
      tables = Copies.create (Runtime.catalog rt) Lock_table.create;
      states = Int_tbl.create 64; active = 0; detector = None;
      committer = None }
  in
  let detector =
    match config.detection with
    | Deadlock.Centralized { interval; detector_site } ->
      Central
        (Deadlock.create_centralized ~engine:(Runtime.engine rt)
           ~net:(Runtime.net rt) ~interval ~detector_site
           ~edges:(fun () -> all_edges t)
           ~choose_victim:(fun cycle ->
             let restarting id =
               match Int_tbl.find_opt t.states id with
               | Some st -> st.phase = Restarting
               | None -> false
             in
             (* the cycle is already being broken by an earlier victim *)
             let victim =
               if List.exists restarting cycle then None
               else Deadlock.youngest cycle
             in
             Runtime.emit t.rt
               (Runtime.Deadlock_detected
                  { cycle; victim; at = Runtime.now t.rt });
             victim)
           ~victim_site:(fun txn_id ->
             match Int_tbl.find_opt t.states txn_id with
             | Some st when st.phase = Waiting -> Some st.txn.site
             | Some _ | None -> None)
           ~abort:(fun victim -> abort_victim t victim))
    | Deadlock.Edge_chasing { probe_delay } ->
      Probing
        (Edge_chasing.create (Runtime.engine rt) (Runtime.net rt)
           { Edge_chasing.probe_delay }
           { Edge_chasing.is_waiting =
               (fun txn_id ->
                 match Int_tbl.find_opt t.states txn_id with
                 | Some st -> st.phase = Waiting && st.awaiting <> []
                 | None -> false);
             home_site =
               (fun txn_id ->
                 match Int_tbl.find_opt t.states txn_id with
                 | Some st -> Some st.txn.site
                 | None -> None);
             pending_sites =
               (fun txn_id ->
                 match Int_tbl.find_opt t.states txn_id with
                 | Some st ->
                   List.sort_uniq Int.compare (List.map snd st.awaiting)
                 | None -> []);
             local_waits_on = (fun ~site ~txn -> local_waits_on t ~site ~txn);
             may_initiate = (fun _ -> true);
             on_deadlock =
               (fun initiator ->
                 Runtime.emit t.rt
                   (Runtime.Deadlock_detected
                      { cycle = [ initiator ]; victim = Some initiator;
                        at = Runtime.now t.rt });
                 abort_victim t initiator) })
  in
  t.detector <- Some detector;
  Runtime.on_site_crash rt (fun site -> on_site_crash t site);
  Runtime.on_stall rt (fun txn -> on_stall t txn);
  if Runtime.durable rt then begin
    Runtime.on_site_wipe rt (fun site -> on_site_wipe t site);
    t.committer <-
      Some
        (Commit.create rt
           { Commit.apply =
               (fun ~txn ~site actions ->
                 List.iter
                   (fun (a : Ccdb_storage.Wal.action) ->
                     on_release t (a.item, site) txn a.attempt a.op a.value
                       a.granted_at)
                   actions);
             commit_point =
               (fun ~txn ->
                 match Int_tbl.find_opt t.states txn with
                 | Some st -> commit_txn t st
                 | None -> ()) })
  end;
  t

let submit t ?payload txn =
  if Int_tbl.mem t.states txn.Ccdb_model.Txn.id then
    invalid_arg "Two_pl_system.submit: duplicate transaction id";
  let st =
    { txn; payload; submitted_at = Runtime.now t.rt; attempt = 0; restarts = 0;
      phase = Waiting; awaiting = []; granted = []; reads = []; executed = 0. }
  in
  Int_tbl.add t.states txn.id st;
  t.active <- t.active + 1;
  Runtime.track t.rt txn.id;
  (match t.detector with
   | Some (Central d) when t.config.prevention = No_prevention ->
     Deadlock.start d
   | Some (Central _ | Probing _) | None -> ());
  send_requests t st

let active t = t.active

let detector_cycles t =
  match t.detector with
  | Some (Central d) -> Deadlock.cycles_found d
  | Some (Probing ec) -> Edge_chasing.deadlocks_found ec
  | None -> 0
