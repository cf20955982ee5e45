module Int_list = Ccdb_util.Int_list
module L = Lifecycle
module Pair_tbl = Ccdb_util.Pair_tbl

(* period of the null-message broadcast that keeps idle sites from
   stalling the others *)
let tick_interval = 25.

type phase = Reading | Computing | Committing

type txn_state = {
  txn : Ccdb_model.Txn.t;
  submitted_at : float;
  ts : int;
  mutable phase : phase;
  mutable awaiting : (int * int) list;
}

(* a buffered operation at one copy; a write implements its transaction
   id *)
type entry = { e_txn : int; e_ts : int; e_op : Ccdb_model.Op.kind }

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
  buffers : entry list ref Pair_tbl.t; (* sorted by ts *)
  live : txn_state L.live;
  mutable ticks_sent : int;
  mutable ticking : bool;
}

let buffer t copy =
  match Pair_tbl.find_opt t.buffers copy with
  | Some b -> b
  | None ->
    let b = ref [] in
    Pair_tbl.add t.buffers copy b;
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
  Pair_tbl.iter
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
  match e.e_op with
  | Ccdb_model.Op.Write ->
    Ccdb_storage.Store.apply_write store ~item ~site ~txn:e.e_txn
      ~value:e.e_txn ~at;
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
  | Ccdb_model.Op.Read ->
    Ccdb_storage.Store.log_read store ~item ~site ~txn:e.e_txn ~at;
    (match L.find t.live e.e_txn with
     | None -> ()
     | Some st ->
       Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
         ~kind:"cto-val" (fun () -> on_read_value t e.e_txn copy))

and on_read_value t txn_id copy =
  match L.find t.live txn_id with
  | None -> ()
  | Some st ->
    if st.phase = Reading && Int_list.mem_pair copy st.awaiting then begin
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
      if st.awaiting = [] then start_compute t st
    end

and start_compute t st =
  st.phase <- Computing;
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after:st.txn.compute_time
       (fun () -> send_writes t st))

and send_writes t st =
  let txn = st.txn in
  st.phase <- Committing;
  let copies = L.write_copies t.rt txn in
  st.awaiting <- copies;
  List.iter
    (fun ((_, site) as copy) ->
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"cto-write" (fun () ->
          let b = buffer t copy in
          b :=
            insert_sorted !b
              { e_txn = txn.id; e_ts = st.ts; e_op = Ccdb_model.Op.Write };
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
    if st.phase = Committing && Int_list.mem_pair copy st.awaiting then begin
      st.awaiting <- Int_list.remove_pair copy st.awaiting;
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
    buffers = Pair_tbl.create 64; live = L.live rt; ticks_sent = 0;
    ticking = false }

let submit t txn =
  let ts = Ccdb_model.Timestamp.Source.next (Runtime.ts_source t.rt) in
  let st =
    { txn; submitted_at = Runtime.now t.rt; ts; phase = Reading;
      awaiting = [] }
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
              { e_txn = txn.id; e_ts = ts; e_op = Ccdb_model.Op.Read };
          pump_site t site))
    copies;
  if copies = [] then start_compute t st;
  if not t.ticking then begin
    t.ticking <- true;
    tick_loop t
  end

let ticks_sent t = t.ticks_sent
