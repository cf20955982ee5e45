module Copies = Ccdb_storage.Copy_table
module Int_list = Ccdb_util.Int_list
module L = Lifecycle

type config = { restart_delay : float; thomas_write_rule : bool }

let default_config = { restart_delay = 50.; thomas_write_rule = false }

type phase = Reading | Computing | Prewriting | Done

type txn_state = {
  txn : Ccdb_model.Txn.t;
  payload : L.payload_fn option;
  submitted_at : float;
  mutable ts : int;
  mutable restarts : int;
  mutable phase : phase;
  mutable awaiting : (int * int) list; (* copies with outstanding value/ack *)
  mutable reads : (int * int) list;
  mutable write_values : (int * int) list;
  mutable ignored : (int * int) list; (* dead writes under the TWR *)
}

type t = {
  rt : Runtime.t;
  config : config;
  queues : To_queue.t Copies.t;
  live : txn_state L.live;
}

(* Implement everything the queue made performable: log the reads and send
   their values home, apply the committed writes. *)
let rec drain t ((item, site) as copy) =
  let q = Copies.get t.queues ~item ~site in
  let performed = To_queue.perform_ready q in
  let store = Runtime.store t.rt in
  List.iter
    (fun (p : To_queue.performed) ->
      let at = Runtime.now t.rt in
      if Runtime.has_consumer t.rt then
        Runtime.emit t.rt
          (Runtime.Lock_granted
             { txn = p.txn; protocol = Ccdb_model.Protocol.T_o; op = p.op; item;
               site; mode = None; schedule = Ccdb_model.Lock.Normal;
               ts = Some p.ts; at });
      match p.op, p.value with
      | Ccdb_model.Op.Write, Some value ->
        Ccdb_storage.Store.apply_write store ~item ~site ~txn:p.txn ~value ~at;
        if Runtime.has_consumer t.rt then
          Runtime.emit t.rt
            (Runtime.Lock_released
               { txn = p.txn; protocol = Ccdb_model.Protocol.T_o;
                 op = Ccdb_model.Op.Write; item; site; granted_at = at; at;
                 aborted = false; ts = Some p.ts });
        (* the write phase of the issuing transaction completes only when
           its writes have been applied: acknowledge *)
        (match L.find t.live p.txn with
         | None -> ()
         | Some st ->
           Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
             ~kind:"to-wack" (fun () ->
               on_write_applied t p.txn ~ts:p.ts copy))
      | Ccdb_model.Op.Write, None -> assert false
      | Ccdb_model.Op.Read, _ ->
        Ccdb_storage.Store.log_read store ~item ~site ~txn:p.txn ~at;
        let value = Ccdb_storage.Store.read store ~item ~site in
        (match L.find t.live p.txn with
         | None -> ()
         | Some st ->
           Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
             ~kind:"to-val" (fun () ->
               on_read_value t p.txn ~ts:p.ts copy value)))
    performed

and on_read_value t txn_id ~ts copy value =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Reading && Int_list.mem_pair copy st.awaiting
    then begin
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      let item = fst copy in
      if not (Int_list.mem_assoc item st.reads) then
        st.reads <- (item, value) :: st.reads;
      if st.awaiting = [] then start_compute t st
    end

and start_compute t st =
  st.phase <- Computing;
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after:st.txn.compute_time
       (fun () -> send_prewrites t st))

and send_prewrites t st =
  let txn = st.txn in
  st.write_values <- L.writes st.payload ~reads:st.reads txn;
  if txn.write_set = [] then commit t st
  else begin
    st.phase <- Prewriting;
    let copies = L.write_copies t.rt txn in
    st.awaiting <- copies;
    let ts = st.ts in
    List.iter
      (fun ((item, site) as copy) ->
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"to-prewrite" (fun () ->
            let q = Copies.get t.queues ~item ~site in
            let verdict =
              To_queue.request q ~txn:txn.id ~ts ~op:Ccdb_model.Op.Write
            in
            if Runtime.has_consumer t.rt then
              Runtime.emit t.rt
                (Runtime.Lock_requested
                   { txn = txn.id; protocol = Ccdb_model.Protocol.T_o;
                     op = Ccdb_model.Op.Write; item; site; origin = txn.site;
                     ts = Some ts;
                     outcome =
                       (match verdict with
                        | To_queue.Accepted -> Runtime.Req_admitted
                        | To_queue.Rejected -> Runtime.Req_rejected
                        | To_queue.Ignored -> Runtime.Req_ignored);
                     at = Runtime.now t.rt });
            match verdict with
            | To_queue.Rejected ->
              Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
                ~kind:"to-reject" (fun () ->
                  on_reject t txn.id ~ts copy Ccdb_model.Op.Write)
            | To_queue.Accepted ->
              Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
                ~kind:"to-ack" (fun () -> on_prewrite_ack t txn.id ~ts copy)
            | To_queue.Ignored ->
              (* Thomas Write Rule: the write is dead; acknowledge and mark
                 the copy as never needing a commit or an apply ack *)
              Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
                ~kind:"to-ack" (fun () -> on_prewrite_ignored t txn.id ~ts copy)))
      copies
  end

and on_prewrite_ignored t txn_id ~ts copy =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Prewriting && Int_list.mem_pair copy st.awaiting
    then begin
      st.ignored <- copy :: st.ignored;
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      if st.awaiting = [] then commit t st
    end

and on_prewrite_ack t txn_id ~ts copy =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Prewriting && Int_list.mem_pair copy st.awaiting
    then begin
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      if st.awaiting = [] then commit t st
    end

and commit t st =
  let txn = st.txn in
  st.phase <- Done;
  let value_for item = L.value_for st.write_values txn item in
  let copies =
    List.filter
      (fun copy -> not (Int_list.mem_pair copy st.ignored))
      (L.write_copies t.rt txn)
  in
  st.awaiting <- copies;
  List.iter
    (fun ((item, site) as copy) ->
      let value = value_for item in
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"to-commit" (fun () ->
          To_queue.commit_write (Copies.get t.queues ~item ~site) ~txn:txn.id
            ~value;
          drain t copy))
    copies;
  if copies = [] then finalize t st

and on_write_applied t txn_id ~ts copy =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Done && Int_list.mem_pair copy st.awaiting
    then begin
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      if st.awaiting = [] then finalize t st
    end

(* the transaction leaves the system once every write has been applied *)
and finalize t st =
  L.commit t.live st.txn ~submitted_at:st.submitted_at
    ~executed_at:(Runtime.now t.rt) ~restarts:st.restarts;
  L.remove t.live st.txn.id

and on_reject t txn_id ~ts rejected_copy op =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && (st.phase = Reading || st.phase = Prewriting) then
      restart t st ~except:(Some rejected_copy) ~reason:(Runtime.To_rejected op)

(* Abort the current attempt and schedule a fresh one.  [except] is the
   copy whose queue already dropped the entry (the rejecting queue) and
   must not receive a withdrawal. *)
and restart t st ~except ~reason =
  let txn = st.txn in
  Runtime.emit t.rt
    (Runtime.Txn_restarted { txn; reason; at = Runtime.now t.rt });
  st.restarts <- st.restarts + 1;
  (* invalidate until the next attempt begins so a second in-flight
     rejection of this attempt is ignored *)
  st.ts <- -1;
  (* withdraw the reads (performed ones leave the committed projection of
     the log) and, when prewriting, the buffered prewrites *)
  let touched =
    L.read_copies t.rt txn
    @ (if st.phase = Prewriting then L.write_copies t.rt txn else [])
  in
  List.iter
    (fun ((item, site) as copy) ->
      match except with
      | Some (i, s) when i = item && s = site -> ()
      | Some _ | None ->
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"to-abort" (fun () ->
            To_queue.abort (Copies.get t.queues ~item ~site) ~txn:txn.id;
            if Runtime.has_consumer t.rt then
              Runtime.emit t.rt
                (Runtime.Request_withdrawn
                   { txn = txn.id; item; site; at = Runtime.now t.rt });
            Ccdb_storage.Store.discard_reads (Runtime.store t.rt) ~item ~site
              ~txn:txn.id;
            drain t copy))
    touched;
  st.phase <- Reading;
  st.awaiting <- [];
  st.reads <- [];
  st.write_values <- [];
  st.ignored <- [];
  L.schedule_restart t.rt ~site:txn.site ~base:t.config.restart_delay
    ~attempt:st.restarts (fun () -> begin_attempt t st)

and begin_attempt t st =
  let txn = st.txn in
  st.ts <- Ccdb_model.Timestamp.Source.next (Runtime.ts_source t.rt);
  st.phase <- Reading;
  st.reads <- [];
  st.write_values <- [];
  st.ignored <- [];
  let copies = L.read_copies t.rt txn in
  st.awaiting <- copies;
  if copies = [] then start_compute t st
  else begin
    let ts = st.ts in
    List.iter
      (fun ((item, site) as copy) ->
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"to-read" (fun () ->
            let q = Copies.get t.queues ~item ~site in
            let verdict =
              To_queue.request q ~txn:txn.id ~ts ~op:Ccdb_model.Op.Read
            in
            if Runtime.has_consumer t.rt then
              Runtime.emit t.rt
                (Runtime.Lock_requested
                   { txn = txn.id; protocol = Ccdb_model.Protocol.T_o;
                     op = Ccdb_model.Op.Read; item; site; origin = txn.site;
                     ts = Some ts;
                     outcome =
                       (match verdict with
                        | To_queue.Accepted -> Runtime.Req_admitted
                        | To_queue.Rejected -> Runtime.Req_rejected
                        | To_queue.Ignored -> Runtime.Req_ignored);
                     at = Runtime.now t.rt });
            match verdict with
            | To_queue.Rejected ->
              Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
                ~kind:"to-reject" (fun () ->
                  on_reject t txn.id ~ts copy Ccdb_model.Op.Read)
            | To_queue.Accepted -> drain t copy
            | To_queue.Ignored -> assert false (* reads are never ignored *)))
      copies
  end

(* Crash cleanup: restart transactions still reading or prewriting whose
   home site crashed or that await a reply from the dead site.  Attempts
   already invalidated ([ts = -1]) are
   waiting out their restart delay and are left alone.  Committed-phase
   writes push forward: the transport retries them across the outage, so
   Basic T/O never loses an accepted write. *)
let restartable st =
  st.ts <> -1 && (st.phase = Reading || st.phase = Prewriting)

let depends_on_site st site =
  st.txn.Ccdb_model.Txn.site = site
  || List.exists (fun (_, s) -> s = site) st.awaiting

let create ?(config = default_config) rt =
  let t =
    { rt; config;
      queues =
        Copies.create (Runtime.catalog rt) (fun () ->
            To_queue.create ~thomas_write_rule:config.thomas_write_rule ());
      live = L.live rt }
  in
  L.restart_on_crash t.live ~restartable ~depends_on:depends_on_site
    (restart t ~except:None ~reason:Runtime.Site_failure);
  if Runtime.durable rt then
    (* Fail-stop wipe: pending reads are volatile (no value ever left the
       site); accepted write prewrites were acknowledged and survive, along
       with the timestamp floors — dropping one would turn its
       transaction's later commit into a silent no-op. *)
    L.on_site_wipe rt t.queues ~dropped:To_queue.wipe_reads
      ~preserved:To_queue.pending;
  t

let submit t ?payload txn =
  let st =
    { txn; payload; submitted_at = Runtime.now t.rt; ts = 0; restarts = 0;
      phase = Reading; awaiting = []; reads = []; write_values = [];
      ignored = [] }
  in
  L.admit t.live ~duplicate:"To_system.submit: duplicate transaction id"
    txn.id st;
  begin_attempt t st
