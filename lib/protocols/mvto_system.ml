module Copies = Ccdb_storage.Copy_table
module Int_tbl = Ccdb_util.Int_tbl
module Int_list = Ccdb_util.Int_list
module L = Lifecycle

type config = { restart_delay : float }

let default_config = { restart_delay = 50. }

type phase = Reading | Computing | Prewriting | Done

type txn_state = {
  txn : Ccdb_model.Txn.t;
  submitted_at : float;
  mutable ts : int;
  mutable restarts : int;
  mutable phase : phase;
  mutable awaiting : (int * int) list;
}

type read_record = {
  r_copy : int * int;
  r_ts : int;
  r_value : int;
}

type t = {
  rt : Runtime.t;
  config : config;
  queues : Mvto_queue.t Copies.t;
  live : txn_state L.live;
  mutable committed_reads : read_record list;
  (* reads observed per attempt, promoted to committed_reads at commit *)
  pending_reads : read_record list Int_tbl.t;
}

let record_read t ~txn_id record =
  let cur =
    Option.value ~default:[] (Int_tbl.find_opt t.pending_reads txn_id)
  in
  Int_tbl.replace t.pending_reads txn_id (record :: cur)

let emit_op t ~txn_id ~op ~item ~site =
  if Runtime.has_consumer t.rt then
    Runtime.emit t.rt
      (Runtime.Lock_granted
         { txn = txn_id; protocol = Ccdb_model.Protocol.T_o; op; item; site;
           mode = None; schedule = Ccdb_model.Lock.Normal; ts = None;
           at = Runtime.now t.rt })

(* deliver a read value home (skipped for a superseded attempt) *)
let rec send_value t ((item, site) as copy) ~reader ~ts ~value =
  match L.find t.live reader with
  | Some st when st.ts = ts ->
    emit_op t ~txn_id:reader ~op:Ccdb_model.Op.Read ~item ~site;
    record_read t ~txn_id:reader
      { r_copy = copy; r_ts = ts; r_value = value };
    Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
      ~kind:"mv-val" (fun () -> on_read_value t reader ~ts copy)
  | Some _ | None -> ()

and drain t ((item, site) as copy) =
  List.iter
    (fun (reader, ts, value) -> send_value t copy ~reader ~ts ~value)
    (Mvto_queue.drain_reads (Copies.get t.queues ~item ~site))

and on_read_value t txn_id ~ts copy =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Reading && Int_list.mem_pair copy st.awaiting
    then begin
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      if st.awaiting = [] then start_compute t st
    end

and start_compute t st =
  st.phase <- Computing;
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after:st.txn.compute_time
       (fun () -> send_prewrites t st))

and send_prewrites t st =
  let txn = st.txn in
  if txn.write_set = [] then commit t st
  else begin
    st.phase <- Prewriting;
    let copies = L.write_copies t.rt txn in
    st.awaiting <- copies;
    let ts = st.ts in
    List.iter
      (fun ((item, site) as copy) ->
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"mv-prewrite" (fun () ->
            match
              Mvto_queue.prewrite (Copies.get t.queues ~item ~site) ~txn:txn.id
                ~ts
            with
            | Mvto_queue.W_rejected ->
              Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
                ~kind:"mv-reject" (fun () -> on_reject t txn.id ~ts copy)
            | Mvto_queue.W_accepted ->
              Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
                ~kind:"mv-ack" (fun () -> on_prewrite_ack t txn.id ~ts copy)))
      copies
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
  let ts = st.ts in
  let copies = L.write_copies t.rt txn in
  st.awaiting <- copies;
  List.iter
    (fun ((item, site) as copy) ->
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"mv-commit" (fun () ->
          let q = Copies.get t.queues ~item ~site in
          Mvto_queue.commit_write q ~txn:txn.id ~value:txn.id;
          emit_op t ~txn_id:txn.id ~op:Ccdb_model.Op.Write ~item ~site;
          (* keep the physical store at the newest committed version *)
          let latest_ts, latest_value = Mvto_queue.latest_committed q in
          if latest_ts = ts then
            Ccdb_storage.Store.apply_write (Runtime.store t.rt) ~item ~site
              ~txn:txn.id ~value:latest_value ~at:(Runtime.now t.rt);
          drain t copy;
          Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
            ~kind:"mv-wack" (fun () -> on_write_applied t txn.id ~ts copy)))
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

and finalize t st =
  let txn = st.txn in
  (* the attempt's reads are now part of the committed execution *)
  (match Int_tbl.find_opt t.pending_reads txn.id with
   | Some reads -> t.committed_reads <- reads @ t.committed_reads
   | None -> ());
  Int_tbl.remove t.pending_reads txn.id;
  L.commit t.live txn ~submitted_at:st.submitted_at
    ~executed_at:(Runtime.now t.rt) ~restarts:st.restarts;
  L.remove t.live txn.id

and on_reject t txn_id ~ts rejected_copy =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Prewriting then
      restart t st ~except:(Some rejected_copy)
        ~reason:(Runtime.To_rejected Ccdb_model.Op.Write)

(* Abort the current attempt and schedule a fresh one.  [except] is the
   copy whose queue already dropped the entry (the rejecting queue). *)
and restart t st ~except ~reason =
  let txn = st.txn in
  Runtime.emit t.rt
    (Runtime.Txn_restarted { txn; reason; at = Runtime.now t.rt });
  st.restarts <- st.restarts + 1;
  st.ts <- -1;
  Int_tbl.remove t.pending_reads txn.id;
  List.iter
    (fun ((item, site) as copy) ->
      match except with
      | Some (i, s) when i = item && s = site -> ()
      | Some _ | None ->
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"mv-abort" (fun () ->
            Mvto_queue.abort (Copies.get t.queues ~item ~site) ~txn:txn.id;
            drain t copy))
    (L.read_copies t.rt txn @ L.write_copies t.rt txn);
  st.phase <- Reading;
  st.awaiting <- [];
  L.schedule_restart t.rt ~site:txn.site ~base:t.config.restart_delay
    ~attempt:st.restarts (fun () -> begin_attempt t st)

and begin_attempt t st =
  let txn = st.txn in
  st.ts <- Ccdb_model.Timestamp.Source.next (Runtime.ts_source t.rt);
  st.phase <- Reading;
  let copies = L.read_copies t.rt txn in
  st.awaiting <- copies;
  if copies = [] then start_compute t st
  else begin
    let ts = st.ts in
    List.iter
      (fun ((item, site) as copy) ->
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"mv-read" (fun () ->
            match
              Mvto_queue.read (Copies.get t.queues ~item ~site) ~txn:txn.id ~ts
            with
            | Mvto_queue.Value value -> send_value t copy ~reader:txn.id ~ts ~value
            | Mvto_queue.Wait -> ()))
      copies
  end

(* Crash cleanup mirrors {!To_system}: restart reading / prewriting
   transactions that depend on the dead site, leave invalidated attempts
   ([ts = -1]) to their pending restart, push committed writes forward. *)
let restartable st =
  st.ts <> -1 && (st.phase = Reading || st.phase = Prewriting)

let depends_on_site st site =
  st.txn.Ccdb_model.Txn.site = site
  || List.exists (fun (_, s) -> s = site) st.awaiting

(* Fail-stop wipe: parked reads are volatile (the issuer never got an
   answer) and vanish; the version chain — committed history, uncommitted
   prewrites and read floors — is WAL-backed and survives. *)
let on_site_wipe t site =
  (* MVTO emits no request events (reads are never rejected), so the
     dropped parked reads are only counted, not per-request announced:
     the replay audits key drop markers to [Lock_requested] events. *)
  let dropped = ref 0 and preserved = ref 0 in
  Copies.iter_site t.queues site (fun _ q ->
      dropped := !dropped + List.length (Mvto_queue.wipe_parked q);
      preserved := !preserved + List.length (Mvto_queue.versions q) - 1);
  (!dropped, !preserved)

let create ?(config = default_config) rt =
  let t =
    { rt; config;
      queues = Copies.create (Runtime.catalog rt) Mvto_queue.create;
      live = L.live rt; committed_reads = [];
      pending_reads = Int_tbl.create 32 }
  in
  L.restart_on_crash t.live ~restartable ~depends_on:depends_on_site
    (restart t ~except:None ~reason:Runtime.Site_failure);
  if Runtime.durable rt then
    Runtime.on_site_wipe rt (fun site -> on_site_wipe t site);
  t

let submit t txn =
  let st =
    { txn; submitted_at = Runtime.now t.rt; ts = 0; restarts = 0;
      phase = Reading; awaiting = [] }
  in
  L.admit t.live ~duplicate:"Mvto_system.submit: duplicate transaction id"
    txn.Ccdb_model.Txn.id st;
  begin_attempt t st

let verify t =
  (* every committed read observed the committed version with the largest
     write timestamp at or below its own *)
  let reads_ok =
    List.for_all
      (fun r ->
        let item, site = r.r_copy in
        let q = Copies.get t.queues ~item ~site in
        let governing =
          List.fold_left
            (fun acc (ts, value, committed) ->
              if committed && ts <= r.r_ts then Some (ts, value) else acc)
            None (Mvto_queue.versions q)
        in
        match governing with
        | Some (_, Some value) -> value = r.r_value
        | Some (_, None) | None -> false)
      t.committed_reads
  in
  (* the physical store holds each copy's newest committed version *)
  let store_ok =
    Copies.fold
      (fun ~item ~site q acc ->
        acc
        && snd (Mvto_queue.latest_committed q)
           = Ccdb_storage.Store.read (Runtime.store t.rt) ~item ~site)
      t.queues true
  in
  reads_ok && store_ok
