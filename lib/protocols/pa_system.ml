module Copies = Ccdb_storage.Copy_table
module Int_list = Ccdb_util.Int_list
module L = Lifecycle

type slot_state = Waiting | Granted of int | Backed of int

(* one per copy the transaction negotiates *)
type slot = { item : int; site : int; mutable state : slot_state }

type phase = Negotiating | Computing | Done

type txn_state = {
  txn : Ccdb_model.Txn.t;
  payload : L.payload_fn option;
  submitted_at : float;
  mutable ts : int;            (* current timestamp (TS, then TS') *)
  mutable backed_off : bool;   (* already in phase 2 *)
  mutable phase : phase;
  slots : slot list;
  mutable reads : (int * int) list;
  mutable executed : float;
}

type t = {
  rt : Runtime.t;
  queues : Pa_queue.t Copies.t;
  live : txn_state L.live;
  mutable committer : Commit.t option; (* durable runtimes only *)
}

let set_slot st ~item ~site state =
  List.iter
    (fun s -> if s.item = item && s.site = site then s.state <- state)
    st.slots

(* --- grant pump -------------------------------------------------------- *)

let rec pump t ~item ~site =
  let q = Copies.get t.queues ~item ~site in
  let newly = Pa_queue.grant_ready q ~now:(Runtime.now t.rt) in
  let store = Runtime.store t.rt in
  List.iter
    (fun (e : Pa_queue.entry) ->
      if Runtime.has_consumer t.rt then
        Runtime.emit t.rt
          (Runtime.Lock_granted
             { txn = e.txn; protocol = Ccdb_model.Protocol.Pa; op = e.op; item;
               site;
               mode =
                 Some
                   (match e.op with
                    | Ccdb_model.Op.Read -> Ccdb_model.Lock.Rl
                    | Ccdb_model.Op.Write -> Ccdb_model.Lock.Wl);
               schedule = Ccdb_model.Lock.Normal; ts = Some e.ts;
               at = Runtime.now t.rt });
      let value = Ccdb_storage.Store.read store ~item ~site in
      let ts = e.ts in
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:e.site
        ~kind:"pa-grant" (fun () -> on_grant t e.txn ~ts ~item ~site value))
    newly

and on_grant t txn_id ~ts ~item ~site value =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Negotiating then begin
      set_slot st ~item ~site (Granted value);
      check_negotiation t st
    end

and on_backoff t txn_id ~ts ~op ~item ~site ts' =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Negotiating then begin
      Runtime.emit t.rt
        (Runtime.Pa_backoff { txn = txn_id; op; at = Runtime.now t.rt });
      set_slot st ~item ~site (Backed ts');
      check_negotiation t st
    end

and check_negotiation t st =
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
      (* phase 2: agree on TS' = max over the back-off timestamps and update
         every queue; everything re-enters Waiting *)
      assert (not st.backed_off);
      st.backed_off <- true;
      let ts' = List.fold_left Int.max st.ts backs in
      st.ts <- ts';
      List.iter (fun s -> s.state <- Waiting) st.slots;
      st.reads <- [];
      List.iter
        (fun { item; site; _ } ->
          Ccdb_sim.Net.send (Runtime.net t.rt) ~src:st.txn.site ~dst:site
            ~kind:"pa-update" (fun () ->
              (match
                 Pa_queue.update_ts (Copies.get t.queues ~item ~site)
                   ~txn:st.txn.id ~ts:ts'
               with
               | `Absent -> ()
               | (`Moved | `Revoked) as r ->
                 if Runtime.has_consumer t.rt then
                   Runtime.emit t.rt
                     (Runtime.Ts_updated
                        { txn = st.txn.id; item; site; ts = ts';
                          revoked = (r = `Revoked); at = Runtime.now t.rt }));
              pump t ~item ~site))
        st.slots
  end

and start_compute t st =
  (* harvest the read values from the grant slots *)
  let copies = L.copies t.rt st.txn in
  List.iter
    (fun (item, site, _) ->
      match
        List.find_opt (fun s -> s.item = item && s.site = site) st.slots
      with
      | Some { state = Granted v; _ } ->
        if not (Int_list.mem_assoc item st.reads) then
          st.reads <- (item, v) :: st.reads
      | Some { state = Waiting | Backed _; _ } | None -> assert false)
    copies;
  st.phase <- Computing;
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after:st.txn.compute_time
       (fun () -> finish t st))

and finish t st =
  let txn = st.txn in
  let writes = L.writes st.payload ~reads:st.reads txn in
  let value_for item = L.value_for writes txn item in
  st.phase <- Done;
  st.executed <- Runtime.now t.rt;
  match t.committer with
  | Some c ->
    (* durable: releases wait for the commit decision *)
    Commit.commit c ~txn:txn.id ~home:txn.site
      ~participants:
        (Commit.participants (L.copies t.rt txn)
           ~site:(fun (_, site, _) -> site)
           ~action:(fun (item, _, op) ->
             let value =
               match op with
               | Ccdb_model.Op.Write -> Some (value_for item)
               | Ccdb_model.Op.Read -> None
             in
             { Ccdb_storage.Wal.item; op; value; attempt = 0;
               granted_at = 0. }))
  | None ->
    List.iter
      (fun (item, site, op) ->
        let wvalue =
          match op with
          | Ccdb_model.Op.Write -> Some (value_for item)
          | Ccdb_model.Op.Read -> None
        in
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"pa-release" (fun () ->
            on_release t ~item ~site txn.id op wvalue))
      (L.copies t.rt txn);
    commit_txn t st

and commit_txn t st =
  L.commit t.live st.txn ~submitted_at:st.submitted_at
    ~executed_at:st.executed ~restarts:0;
  L.remove t.live st.txn.id

and on_release t ~item ~site txn_id op wvalue =
  match Pa_queue.release (Copies.get t.queues ~item ~site) ~txn:txn_id with
  | None -> ()
  | Some entry ->
    let store = Runtime.store t.rt in
    let at = Runtime.now t.rt in
    (* PA operations are implemented at lock release (section 4.3) *)
    (match op, wvalue with
     | Ccdb_model.Op.Write, Some value ->
       Ccdb_storage.Store.apply_write store ~item ~site ~txn:txn_id ~value ~at
     | Ccdb_model.Op.Write, None -> assert false
     | Ccdb_model.Op.Read, _ ->
       Ccdb_storage.Store.log_read store ~item ~site ~txn:txn_id ~at);
    if Runtime.has_consumer t.rt then
      Runtime.emit t.rt
        (Runtime.Lock_released
           { txn = txn_id; protocol = Ccdb_model.Protocol.Pa; op; item; site;
             granted_at = entry.granted_at; at; aborted = false;
             ts = Some entry.ts });
    pump t ~item ~site

(* --- submission --------------------------------------------------------- *)

let submit t ?payload txn =
  let ts = Ccdb_model.Timestamp.Source.next (Runtime.ts_source t.rt) in
  let copies = L.copies t.rt txn in
  let st =
    { txn; payload; submitted_at = Runtime.now t.rt; ts; backed_off = false;
      phase = Negotiating;
      slots =
        List.map
          (fun (item, site, _) -> { item; site; state = Waiting })
          copies;
      reads = []; executed = 0. }
  in
  L.admit t.live ~duplicate:"Pa_system.submit: duplicate transaction id"
    txn.id st;
  List.iter
    (fun (item, site, op) ->
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"pa-req" (fun () ->
          let q = Copies.get t.queues ~item ~site in
          let verdict =
            Pa_queue.request q ~txn:txn.id ~site:txn.site ~ts ~op
          in
          if Runtime.has_consumer t.rt then
            Runtime.emit t.rt
              (Runtime.Lock_requested
                 { txn = txn.id; protocol = Ccdb_model.Protocol.Pa; op; item;
                   site; origin = txn.site; ts = Some ts;
                   outcome =
                     (match verdict with
                      | Pa_queue.Accepted -> Runtime.Req_admitted
                      | Pa_queue.Backoff ts' -> Runtime.Req_backoff ts');
                   at = Runtime.now t.rt });
          (match verdict with
           | Pa_queue.Accepted -> ()
           | Pa_queue.Backoff ts' ->
             Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
               ~kind:"pa-backoff" (fun () ->
                 on_backoff t txn.id ~ts ~op ~item ~site ts'));
          pump t ~item ~site))
    copies

let create rt =
  let t =
    { rt; queues = Copies.create (Runtime.catalog rt) Pa_queue.create;
      live = L.live rt; committer = None }
  in
  if Runtime.durable rt then begin
    (* Fail-stop wipe: every PA entry survives — admissions and back-offs
       were acknowledged during negotiation (Corollary 1 forbids dropping
       them into a restart) — so the wipe only reports preserved counts. *)
    L.on_site_wipe rt t.queues
      ~dropped:(fun _ -> [])
      ~preserved:(fun q -> List.length (Pa_queue.entries q));
    t.committer <-
      Some
        (L.commit_engine t.live
           ~release:(fun ~txn ~site (a : Ccdb_storage.Wal.action) ->
             on_release t ~item:a.item ~site txn a.op a.value)
           ~commit_point:(commit_txn t))
  end;
  t
