module Copies = Ccdb_storage.Copy_table
module Int_tbl = Ccdb_util.Int_tbl
module Int_list = Ccdb_util.Int_list

type config = { restart_delay : float; thomas_write_rule : bool }

let default_config = { restart_delay = 50.; thomas_write_rule = false }

type payload_fn = (int -> int) -> (int * int) list

type phase = Reading | Computing | Prewriting | Done

type txn_state = {
  txn : Ccdb_model.Txn.t;
  payload : payload_fn option;
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
  states : txn_state Int_tbl.t;
  mutable active : int;
}

let read_copies rt (txn : Ccdb_model.Txn.t) =
  List.map
    (fun item ->
      (item,
       Ccdb_storage.Catalog.read_site (Runtime.catalog rt) ~preferred:txn.site
         item))
    txn.read_set

let write_copies rt (txn : Ccdb_model.Txn.t) =
  List.concat_map
    (fun item ->
      List.map
        (fun site -> (item, site))
        (Ccdb_storage.Catalog.copies (Runtime.catalog rt) item))
    txn.write_set

(* Implement everything the queue made performable: log the reads and send
   their values home, apply the committed writes. *)
let rec drain t ((item, site) as copy) =
  let q = Copies.get t.queues ~item ~site in
  let performed = To_queue.perform_ready q in
  let store = Runtime.store t.rt in
  List.iter
    (fun (p : To_queue.performed) ->
      let at = Runtime.now t.rt in
      Runtime.emit t.rt
        (Runtime.Lock_granted
           { txn = p.txn; protocol = Ccdb_model.Protocol.T_o; op = p.op; item;
             site; mode = None; schedule = Ccdb_model.Lock.Normal;
             ts = Some p.ts; at });
      match p.op, p.value with
      | Ccdb_model.Op.Write, Some value ->
        Ccdb_storage.Store.apply_write store ~item ~site ~txn:p.txn ~value ~at;
        Runtime.emit t.rt
          (Runtime.Lock_released
             { txn = p.txn; protocol = Ccdb_model.Protocol.T_o;
               op = Ccdb_model.Op.Write; item; site; granted_at = at; at;
               aborted = false; ts = Some p.ts });
        (* the write phase of the issuing transaction completes only when
           its writes have been applied: acknowledge *)
        (match Int_tbl.find_opt t.states p.txn with
         | None -> ()
         | Some st ->
           Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
             ~kind:"to-wack" (fun () ->
               on_write_applied t p.txn ~ts:p.ts copy))
      | Ccdb_model.Op.Write, None -> assert false
      | Ccdb_model.Op.Read, _ ->
        Ccdb_storage.Store.log_read store ~item ~site ~txn:p.txn ~at;
        let value = Ccdb_storage.Store.read store ~item ~site in
        (match Int_tbl.find_opt t.states p.txn with
         | None -> ()
         | Some st ->
           Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
             ~kind:"to-val" (fun () ->
               on_read_value t p.txn ~ts:p.ts copy value)))
    performed

and on_read_value t txn_id ~ts copy value =
  match Int_tbl.find_opt t.states txn_id with
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
  let read_value item =
    match Int_list.assoc_opt item st.reads with Some v -> v | None -> 0
  in
  st.write_values <-
    (match st.payload with
     | Some f -> f read_value
     | None -> List.map (fun item -> (item, txn.id)) txn.write_set);
  if txn.write_set = [] then commit t st
  else begin
    st.phase <- Prewriting;
    let copies = write_copies t.rt txn in
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
  match Int_tbl.find_opt t.states txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Prewriting && Int_list.mem_pair copy st.awaiting
    then begin
      st.ignored <- copy :: st.ignored;
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      if st.awaiting = [] then commit t st
    end

and on_prewrite_ack t txn_id ~ts copy =
  match Int_tbl.find_opt t.states txn_id with
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
  let value_for item =
    match Int_list.assoc_opt item st.write_values with
    | Some v -> v
    | None -> txn.id
  in
  let copies =
    List.filter
      (fun copy -> not (Int_list.mem_pair copy st.ignored))
      (write_copies t.rt txn)
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
  match Int_tbl.find_opt t.states txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Done && Int_list.mem_pair copy st.awaiting
    then begin
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      if st.awaiting = [] then finalize t st
    end

(* the transaction leaves the system once every write has been applied *)
and finalize t st =
  let txn = st.txn in
  Runtime.emit t.rt
    (Runtime.Txn_committed
       { txn; submitted_at = st.submitted_at; executed_at = Runtime.now t.rt;
         restarts = st.restarts });
  Int_tbl.remove t.states txn.id;
  t.active <- t.active - 1

and on_reject t txn_id ~ts rejected_copy op =
  match Int_tbl.find_opt t.states txn_id with
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
    read_copies t.rt txn
    @ (if st.phase = Prewriting then write_copies t.rt txn else [])
  in
  List.iter
    (fun ((item, site) as copy) ->
      match except with
      | Some (i, s) when i = item && s = site -> ()
      | Some _ | None ->
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"to-abort" (fun () ->
            To_queue.abort (Copies.get t.queues ~item ~site) ~txn:txn.id;
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
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt)
       ~after:
         (Runtime.restart_backoff t.rt ~site:txn.site
            ~base:t.config.restart_delay ~attempt:st.restarts) (fun () ->
           begin_attempt t st))

and begin_attempt t st =
  let txn = st.txn in
  st.ts <- Ccdb_model.Timestamp.Source.next (Runtime.ts_source t.rt);
  st.phase <- Reading;
  st.reads <- [];
  st.write_values <- [];
  st.ignored <- [];
  let copies = read_copies t.rt txn in
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
   already invalidated ([ts = -1]) are waiting out their restart delay and
   are left alone.  Committed-phase writes push forward: the transport
   retries them across the outage, so Basic T/O never loses an accepted
   write. *)
let crash_restart t ~pred ~reason =
  let victims =
    Int_tbl.fold
      (fun id st acc ->
        if
          st.ts <> -1
          && (st.phase = Reading || st.phase = Prewriting)
          && pred st
        then id :: acc
        else acc)
      t.states []
    |> List.sort Int.compare
  in
  List.iter
    (fun id ->
      match Int_tbl.find_opt t.states id with
      | Some st -> restart t st ~except:None ~reason
      | None -> ())
    victims

let on_site_crash t site =
  crash_restart t ~reason:Runtime.Site_failure ~pred:(fun st ->
      st.txn.Ccdb_model.Txn.site = site
      || List.exists (fun (_, s) -> s = site) st.awaiting)

let on_stall t txn_id =
  match Int_tbl.find_opt t.states txn_id with
  | Some st when st.ts <> -1 && (st.phase = Reading || st.phase = Prewriting)
    ->
    restart t st ~except:None ~reason:Runtime.Site_failure
  | Some _ | None -> ()

(* Fail-stop wipe, in ascending item order: pending reads are volatile (no
   value ever left the site); accepted write prewrites were acknowledged
   and survive, along with the timestamp floors — dropping one would turn
   its transaction's later commit into a silent no-op. *)
let on_site_wipe t site =
  let dropped = ref 0 and preserved = ref 0 in
  Copies.iter_site t.queues site (fun item q ->
      List.iter
        (fun txn ->
          incr dropped;
          Runtime.emit t.rt
            (Runtime.Request_dropped
               { txn; item; site; at = Runtime.now t.rt }))
        (To_queue.wipe_reads q);
      preserved := !preserved + To_queue.pending q);
  (!dropped, !preserved)

let create ?(config = default_config) rt =
  let t =
    { rt; config;
      queues =
        Copies.create (Runtime.catalog rt) (fun () ->
            To_queue.create ~thomas_write_rule:config.thomas_write_rule ());
      states = Int_tbl.create 64; active = 0 }
  in
  Runtime.on_site_crash rt (fun site -> on_site_crash t site);
  Runtime.on_stall rt (fun txn -> on_stall t txn);
  if Runtime.durable rt then
    Runtime.on_site_wipe rt (fun site -> on_site_wipe t site);
  t

let submit t ?payload txn =
  if Int_tbl.mem t.states txn.Ccdb_model.Txn.id then
    invalid_arg "To_system.submit: duplicate transaction id";
  let st =
    { txn; payload; submitted_at = Runtime.now t.rt; ts = 0; restarts = 0;
      phase = Reading; awaiting = []; reads = []; write_values = [];
      ignored = [] }
  in
  Int_tbl.add t.states txn.id st;
  t.active <- t.active + 1;
  Runtime.track t.rt txn.id;
  begin_attempt t st

let active t = t.active
