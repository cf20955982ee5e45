module Copies = Ccdb_storage.Copy_table
module Int_list = Ccdb_util.Int_list

(* Only ever looked up, except by the crash handler's fold, which sorts
   what it collects; so the key is its own hash. *)
module Live_tbl = Ccdb_util.Lookup_tbl.Int

type payload_fn = (int -> int) -> (int * int) list

type detector = Off | Central of Deadlock.t | Probing of Edge_chasing.t

type 'st live = {
  rt : Runtime.t;
  states : 'st Live_tbl.t;
  mutable active : int;
  mutable detector : detector;
}

let live rt = { rt; states = Live_tbl.create 64; active = 0; detector = Off }

let admit live ~duplicate id st =
  if Live_tbl.mem live.states id then invalid_arg duplicate;
  Live_tbl.add live.states id st;
  live.active <- live.active + 1

let find live id = Live_tbl.find_opt live.states id
let remove live id = Live_tbl.remove live.states id

let commit live txn ~submitted_at ~executed_at ~restarts =
  Runtime.emit live.rt
    (Runtime.Txn_committed { txn; submitted_at; executed_at; restarts });
  live.active <- live.active - 1;
  if live.active = 0 then
    match live.detector with
    | Central d -> Deadlock.stop d
    | Probing _ | Off -> ()

let active live = live.active

let commit_engine live ~release ~commit_point =
  Commit.create live.rt
    { Commit.apply =
        (fun ~txn ~site actions ->
          List.iter (fun action -> release ~txn ~site action) actions);
      commit_point =
        (fun ~txn ->
          match find live txn with Some st -> commit_point st | None -> ()) }

(* --- footprint and payload ------------------------------------------------ *)

let copies rt (txn : Ccdb_model.Txn.t) =
  Ccdb_storage.Catalog.footprint (Runtime.catalog rt) ~site:txn.site
    ~read_set:txn.read_set ~write_set:txn.write_set

let read_copies rt (txn : Ccdb_model.Txn.t) =
  Ccdb_storage.Catalog.read_copies (Runtime.catalog rt) ~site:txn.site
    txn.read_set

let write_copies rt (txn : Ccdb_model.Txn.t) =
  Ccdb_storage.Catalog.write_copies (Runtime.catalog rt) txn.write_set

let writes payload ~reads (txn : Ccdb_model.Txn.t) =
  let read_value item =
    match Int_list.assoc_opt item reads with Some v -> v | None -> 0
  in
  match payload with
  | Some f -> f read_value
  | None -> List.map (fun item -> (item, txn.id)) txn.write_set

let value_for writes (txn : Ccdb_model.Txn.t) item =
  match Int_list.assoc_opt item writes with Some v -> v | None -> txn.id

(* --- restarts and failures ------------------------------------------------ *)

let schedule_restart rt ~site ~base ~attempt k =
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine rt)
       ~after:(Runtime.restart_backoff rt ~site ~base ~attempt) k)

let restart_on_crash live ~restartable ~depends_on restart =
  Runtime.on_site_crash live.rt (fun site ->
      Live_tbl.fold
        (fun id st acc ->
          if restartable st && depends_on st site then id :: acc else acc)
        live.states []
      |> List.sort Int.compare
      |> List.iter (fun id ->
             match find live id with Some st -> restart st | None -> ()))

let on_site_wipe rt tables ~dropped ~preserved =
  Runtime.on_site_wipe rt (fun site ->
      let n_dropped = ref 0 and n_preserved = ref 0 in
      Copies.iter_site tables site (fun item q ->
          List.iter
            (fun txn ->
              incr n_dropped;
              Runtime.emit rt
                (Runtime.Request_dropped
                   { txn; item; site; at = Runtime.now rt }))
            (dropped q);
          n_preserved := !n_preserved + preserved q);
      (!n_dropped, !n_preserved))

(* --- deadlock detection --------------------------------------------------- *)

type 'st deadlock_policy = {
  home : 'st -> int;
  abortable : 'st -> bool;
  restarting : 'st -> bool;
  eligible : int -> bool;
  waiting : 'st -> bool;
  pending_sites : 'st -> int list;
  may_initiate : 'st -> bool;
  abort : int -> unit;
}

let detect_deadlocks live detection tables ~waits_for p =
  let rt = live.rt in
  let detected cycle victim =
    Runtime.emit rt
      (Runtime.Deadlock_detected { cycle; victim; at = Runtime.now rt })
  in
  let holds pred id = match find live id with Some st -> pred st | None -> false in
  live.detector <-
    (match detection with
     | Deadlock.Centralized { interval } ->
       let restarting = holds p.restarting in
       Central
         (Deadlock.create_centralized ~engine:(Runtime.engine rt)
            ~net:(Runtime.net rt) ~interval
            ~edges:(fun add ->
              Copies.fold
                (fun ~item:_ ~site:_ q () -> waits_for q add)
                tables ())
            ~choose_victim:(fun cycle ->
              (* a member already aborted for this cycle will break it on
                 its own; aborting a second member is pure churn (and with
                 repeated collisions can alternate forever) *)
              let victim =
                if List.exists restarting cycle then None
                else Deadlock.youngest (List.filter p.eligible cycle)
              in
              detected cycle victim;
              victim)
            ~victim_site:(fun id ->
              match find live id with
              | Some st when p.abortable st -> Some (p.home st)
              | Some _ | None -> None)
            ~abort:p.abort)
     | Deadlock.Edge_chasing { probe_delay } ->
       Probing
         (Edge_chasing.create (Runtime.engine rt) (Runtime.net rt)
            { Edge_chasing.probe_delay }
            { Edge_chasing.is_waiting = holds p.waiting;
              home_site =
                (fun id ->
                  match find live id with
                  | Some st -> Some (p.home st)
                  | None -> None);
              pending_sites =
                (fun id ->
                  match find live id with
                  | Some st -> p.pending_sites st
                  | None -> []);
              local_waits_on =
                (fun ~site ~txn ->
                  let holders = ref [] in
                  Copies.iter_site tables site (fun _ q ->
                      waits_for q (fun waiter holder ->
                          if waiter = txn then holders := holder :: !holders));
                  List.sort_uniq Int.compare !holders);
              may_initiate = holds p.may_initiate;
              on_deadlock =
                (fun initiator ->
                  detected [ initiator ] (Some initiator);
                  p.abort initiator) }))

let start_detector live =
  match live.detector with
  | Central d -> Deadlock.start d
  | Probing _ | Off -> ()

let blocked live id =
  match live.detector with
  | Probing ec -> Edge_chasing.txn_blocked ec id
  | Central _ | Off -> ()

let unblocked live id =
  match live.detector with
  | Probing ec -> Edge_chasing.txn_unblocked ec id
  | Central _ | Off -> ()

let progress live id =
  match live.detector with
  | Probing ec -> Edge_chasing.txn_progress ec id
  | Central _ | Off -> ()

let detector_cycles live =
  match live.detector with
  | Central d -> Deadlock.cycles_found d
  | Probing ec -> Edge_chasing.deadlocks_found ec
  | Off -> 0
