module L = Lifecycle

(* period of the null-message broadcast that keeps idle sites from
   stalling the others *)
let tick_interval = 25.

type phase = Reading | Computing | Committing

type txn_state = {
  txn : Ccdb_model.Txn.t;
  payload : L.payload_fn option;
  submitted_at : float;
  ts : int;
  mutable phase : phase;
  mutable awaiting : (int * int) list;
  mutable reads : (int * int) list;
}

(* a buffered operation at one copy *)
type entry = {
  e_txn : int;
  e_ts : int;
  e_op : Ccdb_model.Op.kind;
  e_value : int option; (* writes carry their value *)
}

type t = {
  rt : Runtime.t;
  sites : int;
  (* hw.(qm_site).(origin): origin has promised never to send an op with a
     timestamp <= this value to anyone *)
  hw : int array array;
  (* advertisement each origin last broadcast *)
  advertised : int array;
  (* in-flight timestamps per site, sorted ascending *)
  in_flight : int list array;
  buffers : (int * int, entry list ref) Hashtbl.t; (* sorted by ts *)
  live : txn_state L.live;
  mutable ticks_sent : int;
  mutable ticking : bool;
}

let buffer t copy =
  match Hashtbl.find_opt t.buffers copy with
  | Some b -> b
  | None ->
    let b = ref [] in
    Hashtbl.add t.buffers copy b;
    b

let insert_sorted entries e =
  let rec go = function
    | [] -> [ e ]
    | x :: rest -> if e.e_ts < x.e_ts then e :: x :: rest else x :: go rest
  in
  go entries

(* smallest advertisement visible at a queue-manager site *)
let safe t qm_site = Array.fold_left min max_int t.hw.(qm_site)

(* --- execution --------------------------------------------------------- *)

let rec pump_site t qm_site =
  let horizon = safe t qm_site in
  Hashtbl.iter
    (fun ((item, site) as copy) b ->
      if site = qm_site then begin
        let rec run () =
          match !b with
          | e :: rest when e.e_ts - 1 <= horizon ->
            b := rest;
            execute t copy ~item ~site e;
            run ()
          | _ -> ()
        in
        run ()
      end)
    t.buffers

and execute t copy ~item ~site e =
  let store = Runtime.store t.rt in
  let at = Runtime.now t.rt in
  if Runtime.has_consumer t.rt then
    Runtime.emit t.rt
      (Runtime.Lock_granted
         { txn = e.e_txn; protocol = Ccdb_model.Protocol.T_o; op = e.e_op; item;
           site; mode = None; schedule = Ccdb_model.Lock.Normal;
           ts = Some e.e_ts; at });
  match e.e_op, e.e_value with
  | Ccdb_model.Op.Write, Some value ->
    Ccdb_storage.Store.apply_write store ~item ~site ~txn:e.e_txn ~value ~at;
    if Runtime.has_consumer t.rt then
      Runtime.emit t.rt
        (Runtime.Lock_released
           { txn = e.e_txn; protocol = Ccdb_model.Protocol.T_o;
             op = Ccdb_model.Op.Write; item; site; granted_at = at; at;
             aborted = false; ts = Some e.e_ts });
    (match L.find t.live e.e_txn with
     | None -> ()
     | Some st ->
       Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
         ~kind:"cto-wack" (fun () -> on_write_applied t e.e_txn copy))
  | Ccdb_model.Op.Write, None -> assert false
  | Ccdb_model.Op.Read, _ ->
    Ccdb_storage.Store.log_read store ~item ~site ~txn:e.e_txn ~at;
    let value = Ccdb_storage.Store.read store ~item ~site in
    (match L.find t.live e.e_txn with
     | None -> ()
     | Some st ->
       Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
         ~kind:"cto-val" (fun () -> on_read_value t e.e_txn copy value))

and on_read_value t txn_id copy value =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.phase = Reading && List.mem copy st.awaiting then begin
      st.awaiting <- List.filter (fun c -> c <> copy) st.awaiting;
      let item = fst copy in
      if not (List.mem_assoc item st.reads) then
        st.reads <- (item, value) :: st.reads;
      if st.awaiting = [] then start_compute t st
    end

and start_compute t st =
  st.phase <- Computing;
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after:st.txn.compute_time
       (fun () -> send_writes t st))

and send_writes t st =
  let txn = st.txn in
  let writes = L.writes st.payload ~reads:st.reads txn in
  let value_for item = L.value_for writes txn item in
  st.phase <- Committing;
  let copies = L.write_copies t.rt txn in
  st.awaiting <- copies;
  List.iter
    (fun ((item, site) as copy) ->
      let value = value_for item in
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"cto-write" (fun () ->
          let b = buffer t copy in
          b :=
            insert_sorted !b
              { e_txn = txn.id; e_ts = st.ts; e_op = Ccdb_model.Op.Write;
                e_value = Some value };
          pump_site t site))
    copies;
  (* every message carrying this timestamp is now on a FIFO channel: the
     site's advertisement may move past it *)
  retire t txn.site st.ts;
  if copies = [] then finalize t st

and on_write_applied t txn_id copy =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.phase = Committing && List.mem copy st.awaiting then begin
      st.awaiting <- List.filter (fun c -> c <> copy) st.awaiting;
      if st.awaiting = [] then finalize t st
    end

and finalize t st =
  L.commit t.live st.txn ~submitted_at:st.submitted_at
    ~executed_at:(Runtime.now t.rt) ~restarts:0;
  L.remove t.live st.txn.id

(* --- advertisements ----------------------------------------------------- *)

and advertisement t site =
  match t.in_flight.(site) with
  | ts :: _ -> ts - 1
  | [] -> Ccdb_model.Timestamp.Source.current (Runtime.ts_source t.rt)

and broadcast t origin =
  let adv = advertisement t origin in
  if adv > t.advertised.(origin) then begin
    t.advertised.(origin) <- adv;
    (* every advertisement rides the network — including to the origin
       itself, so it cannot overtake the origin's own in-flight local
       operations (the per-channel FIFO is the safety argument) *)
    for dst = 0 to t.sites - 1 do
      t.ticks_sent <- t.ticks_sent + 1;
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:origin ~dst ~kind:"cto-tick"
        (fun () ->
          if adv > t.hw.(dst).(origin) then begin
            t.hw.(dst).(origin) <- adv;
            pump_site t dst
          end)
    done
  end

and retire t site ts =
  t.in_flight.(site) <- List.filter (fun x -> x <> ts) t.in_flight.(site);
  broadcast t site

let rec tick_loop t =
  if L.active t.live > 0 then begin
    for site = 0 to t.sites - 1 do
      broadcast t site
    done;
    ignore
      (Ccdb_sim.Engine.schedule (Runtime.engine t.rt)
         ~after:tick_interval (fun () -> tick_loop t))
  end
  else t.ticking <- false

let create rt =
  let sites = Ccdb_storage.Catalog.sites (Runtime.catalog rt) in
  { rt; sites;
    hw = Array.make_matrix sites sites (-1);
    advertised = Array.make sites (-1);
    in_flight = Array.make sites [];
    buffers = Hashtbl.create 64; live = L.live rt; ticks_sent = 0;
    ticking = false }

let submit t ?payload txn =
  let ts = Ccdb_model.Timestamp.Source.next (Runtime.ts_source t.rt) in
  let st =
    { txn; payload; submitted_at = Runtime.now t.rt; ts; phase = Reading;
      awaiting = []; reads = [] }
  in
  L.admit t.live ~duplicate:"Cto_system.submit: duplicate transaction id"
    txn.Ccdb_model.Txn.id st;
  t.in_flight.(txn.site) <-
    List.sort Int.compare (ts :: t.in_flight.(txn.site));
  let copies = L.read_copies t.rt txn in
  st.awaiting <- copies;
  List.iter
    (fun ((_item, site) as copy) ->
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"cto-read" (fun () ->
          let b = buffer t copy in
          b :=
            insert_sorted !b
              { e_txn = txn.id; e_ts = ts; e_op = Ccdb_model.Op.Read;
                e_value = None };
          pump_site t site))
    copies;
  if copies = [] then start_compute t st;
  if not t.ticking then begin
    t.ticking <- true;
    tick_loop t
  end

let ticks_sent t = t.ticks_sent
