(* Which atomic-commitment protocol the durable paths run (inert unless the
   runtime is durable; see Commit). *)
type commit_protocol = Paxos of { f : int }

type restart_reason =
  | To_rejected of Ccdb_model.Op.kind
  | Deadlock_victim
  | Prevention_kill
  | Site_failure

(* Verdict a queue manager returned for a freshly arrived request. *)
type request_outcome =
  | Req_admitted
  | Req_rejected                (* T/O: timestamp at or below r_ts/w_ts *)
  | Req_backoff of int          (* PA: admitted blocked, proposed TS' *)
  | Req_ignored                 (* Thomas Write Rule: dead write dropped *)

type event =
  | Lock_requested of {
      txn : int;
      protocol : Ccdb_model.Protocol.t;
      op : Ccdb_model.Op.kind;
      item : int;
      site : int;
      origin : int;             (* issuer's home site (precedence tie-break) *)
      ts : int option;          (* None for 2PL requests *)
      outcome : request_outcome;
      at : float;
    }
  | Lock_granted of {
      txn : int;
      protocol : Ccdb_model.Protocol.t;
      op : Ccdb_model.Op.kind;
      item : int;
      site : int;
      mode : Ccdb_model.Lock.mode option;
          (* None for timestamp-scheduled systems that hold no locks
             (basic T/O performs, MVTO, conservative T/O) *)
      schedule : Ccdb_model.Lock.schedule;
      ts : int option;
          (* the precedence timestamp the queue assigned this entry; for 2PL
             under the unified queue this is the pinned high-water mark.
             None when the system has no precedence space (pure 2PL, MVTO). *)
      at : float;
    }
  | Lock_promoted of {
      (* a pre-scheduled grant became normal: every conflicting earlier
         grant is gone (semi-lock protocol, section 4.2 rule 3) *)
      txn : int;
      item : int;
      site : int;
      at : float;
    }
  | Lock_transformed of {
      (* rule 4: a T/O transaction finished executing and turned this lock
         into a semi-lock; writes are implemented at this point *)
      txn : int;
      item : int;
      site : int;
      mode : Ccdb_model.Lock.mode;
      at : float;
    }
  | Lock_released of {
      txn : int;
      protocol : Ccdb_model.Protocol.t;
      op : Ccdb_model.Op.kind;
      item : int;
      site : int;
      granted_at : float;
      at : float;
      aborted : bool;
      ts : int option;          (* entry's precedence timestamp at release *)
    }
  | Request_withdrawn of {
      (* a never-granted request left the queue (issuer restarted) *)
      txn : int;
      item : int;
      site : int;
      at : float;
    }
  | Ts_updated of {
      (* PA phase 2: the queue re-positioned this entry at the agreed TS';
         a grant already held at the old position is revoked *)
      txn : int;
      item : int;
      site : int;
      ts : int;
      revoked : bool;
      at : float;
    }
  | Deadlock_detected of {
      (* a detector observed a wait-for cycle; [victim], when chosen, is the
         transaction aborted to break it.  Edge-chasing detectors know only
         the initiating transaction, so [cycle] may be a singleton. *)
      cycle : int list;
      victim : int option;
      at : float;
    }
  | Txn_committed of {
      txn : Ccdb_model.Txn.t;
      submitted_at : float;
      executed_at : float;
      restarts : int;
    }
  | Txn_restarted of {
      txn : Ccdb_model.Txn.t;
      reason : restart_reason;
      at : float;
    }
  | Pa_backoff of { txn : int; op : Ccdb_model.Op.kind; at : float }
  | Site_crashed of { site : int; at : float }
  | Site_recovered of { site : int; at : float }
  | Request_dropped of {
      (* fail-stop wipe erased a volatile (never-promised) queue entry *)
      txn : int;
      item : int;
      site : int;
      at : float;
    }
  | Site_wiped of {
      (* summary of one fail-stop wipe: entries erased vs kept via the WAL *)
      site : int;
      dropped : int;
      preserved : int;
      at : float;
    }
  | Wal_replayed of {
      (* recovery scanned the site's stable log before rejoining *)
      site : int;
      records : int;
      reacquired : int;         (* live grants/semi-locks restored *)
      in_doubt : int;           (* voted commit rounds awaiting a decision *)
      at : float;
    }
  | Prepared of {
      (* commit participant force-logged its prewrites and voted yes *)
      txn : int;
      site : int;
      round : int;
      at : float;
    }
  | Decision_logged of {
      (* commit participant learned and force-logged the round's outcome *)
      txn : int;
      site : int;
      round : int;
      commit : bool;
      at : float;
    }
  | Acceptor_promised of {
      (* Paxos Commit acceptor force-logged a phase-1 promise for the round *)
      txn : int;
      site : int;
      round : int;
      ballot : int;
      at : float;
    }
  | Acceptor_accepted of {
      (* Paxos Commit acceptor force-logged a phase-2 accept for one
         instance (the participant site whose vote the instance decides) *)
      txn : int;
      site : int;
      round : int;
      instance : int;
      ballot : int;
      prepared : bool;
      at : float;
    }
  | Op_implemented of {
      (* a physical operation landed in a copy's implementation log; mirrors
         Store.on_append so streaming audits see the log grow in-line *)
      txn : int;
      op : Ccdb_model.Op.kind;
      item : int;
      site : int;
      at : float;
    }
  | Reads_discarded of {
      (* Store.discard_reads withdrew [removed] read entries of [txn] from
         the copy's log (basic T/O restart after an elsewhere-rejection) *)
      txn : int;
      item : int;
      site : int;
      removed : int;
      at : float;
    }

type counters = {
  mutable committed : int;
  mutable restarts : int;
  mutable rejections : int;
  mutable deadlock_aborts : int;
  mutable prevention_aborts : int;
  mutable backoffs : int;
  mutable site_aborts : int;
  mutable wiped_entries : int;
}

(* The summary of S, [executed_at - submitted_at] of each commit, that
   [emit] folds the commits into.  Its floats sit in float-only records
   (Stats.t and [latest]), which OCaml stores unboxed. *)
type latest = { mutable executed_at : float }

type system_time = {
  all : Ccdb_util.Stats.t;
  by_protocol : Ccdb_util.Stats.t array; (* by Protocol.rank *)
  histogram : Ccdb_util.Histogram.t;
  latest : latest;
}

type t = {
  engine : Ccdb_sim.Engine.t;
  net : Ccdb_sim.Net.t;
  rng : Ccdb_util.Rng.t;
  catalog : Ccdb_storage.Catalog.t;
  store : Ccdb_storage.Store.t;
  ts_source : Ccdb_model.Timestamp.Source.t;
  counters : counters;
  system_time : system_time;
  mutable listeners : (event -> unit) list;
  mutable observers : (event -> unit) list; (* newest first *)
  mutable pipe : event Ccdb_util.Pipeline.t option;
      (* set while a [run]/[quiesce] call feeds the observers on a worker *)
  (* --- durability (active only when the fault plan says wipe=true) ------ *)
  durable : bool;
  wal : Ccdb_storage.Wal.t;
  mutable recovery : Ccdb_sim.Recovery.t option;
  mutable wipe_handlers : (int -> int * int) list;  (* newest first *)
  mutable replay_handlers : (int -> Ccdb_storage.Wal.replay -> unit) list;
      (* newest first *)
  (* --- restart backoff (jittered only under an installed fault plan) ---- *)
  restart_rngs : Ccdb_util.Rng.t array option; (* one stream per site *)
  (* --- atomic commitment (durable paths only) --------------------------- *)
  commit_protocol : commit_protocol;
}

let engine t = t.engine
let net t = t.net
let rng t = t.rng
let catalog t = t.catalog
let store t = t.store
let ts_source t = t.ts_source
let now t = Ccdb_sim.Engine.now t.engine

let durable t = t.durable
let commit_protocol t = t.commit_protocol
let wal t = t.wal
let recovery_stats t = Option.map Ccdb_sim.Recovery.stats t.recovery

let subscribe t f = t.listeners <- f :: t.listeners

let has_consumer t = t.durable || t.listeners != [] || t.observers != []

(* Calls each function in turn; unlike [List.iter (fun f -> f event)] it
   builds no closure around the event. *)
let rec fan_out event = function
  | [] -> ()
  | f :: rest ->
    f event;
    fan_out event rest

(* A free slot of the observer ring. *)
let vacant = Site_recovered { site = -1; at = 0. }

(* A ring whose worker calls [observers].  The list is fixed for the
   worker's life, so the worker reads nothing of the runtime record,
   whose fields the simulation keeps writing. *)
let pipeline observers =
  (* 1024 slots published every 256 events: a quarter of the ring is in
     flight while the worker drains the rest, and the simulation touches
     the shared counters once per 256 events *)
  Ccdb_util.Pipeline.create ~capacity:1024 ~batch:256 ~dummy:vacant
    (fun e -> fan_out e observers)

let observe t f =
  t.observers <- f :: t.observers;
  match t.pipe with
  | None -> ()
  | Some p ->
    (* registered mid-run: the worker finishes the events emitted so far,
       and the rest of the run feeds a new one that calls [f] too *)
    Ccdb_util.Pipeline.finish p;
    t.pipe <- Some (pipeline t.observers)

(* Lock-point events double as redo/undo records: under a durable plan every
   grant, release, admission and PA revocation is forced to the site's WAL at
   the instant it is emitted — before any acknowledgement leaves the site
   (messages are sent after the emitting call returns, within the same atomic
   event, so the log write strictly precedes the ack on the simulated wire). *)
let wal_log t event =
  match event with
  | Lock_granted { txn; op; item; site; ts; at; _ } ->
    Ccdb_storage.Wal.append t.wal ~site ~at
      (Ccdb_storage.Wal.Grant { txn; item; op; ts })
  | Lock_released { txn; op; item; site; at; aborted; _ } ->
    Ccdb_storage.Wal.append t.wal ~site ~at
      (Ccdb_storage.Wal.Release { txn; item; op; aborted })
  | Lock_requested
      { txn; op; item; site; ts = Some ts;
        outcome = Req_admitted | Req_backoff _; at; _ } ->
    Ccdb_storage.Wal.append t.wal ~site ~at
      (Ccdb_storage.Wal.Admit { txn; item; op; ts })
  | Ts_updated { txn; item; site; revoked = true; at; _ } ->
    Ccdb_storage.Wal.append t.wal ~site ~at
      (Ccdb_storage.Wal.Revoke { txn; item })
  | _ -> ()

let emit t event =
  if t.durable then wal_log t event;
  (match event with
   | Txn_committed { txn; submitted_at; executed_at; _ } ->
     t.counters.committed <- t.counters.committed + 1;
     (* the event's own boxed floats are passed on, and compared here,
        so folding a commit allocates nothing *)
     let st = t.system_time in
     let rank = Ccdb_model.Protocol.rank txn.protocol in
     Ccdb_util.Stats.add_span st.all ~from:submitted_at ~until:executed_at;
     Ccdb_util.Stats.add_span st.by_protocol.(rank) ~from:submitted_at
       ~until:executed_at;
     Ccdb_util.Histogram.record_span st.histogram ~from:submitted_at
       ~until:executed_at;
     (* [Float.max] on times, which are never nan *)
     if executed_at > st.latest.executed_at then
       st.latest.executed_at <- executed_at
   | Txn_restarted { reason; _ } ->
     t.counters.restarts <- t.counters.restarts + 1;
     (match reason with
      | To_rejected _ -> t.counters.rejections <- t.counters.rejections + 1
      | Deadlock_victim ->
        t.counters.deadlock_aborts <- t.counters.deadlock_aborts + 1
      | Prevention_kill ->
        t.counters.prevention_aborts <- t.counters.prevention_aborts + 1
      | Site_failure ->
        t.counters.site_aborts <- t.counters.site_aborts + 1)
   | Pa_backoff _ -> t.counters.backoffs <- t.counters.backoffs + 1
   | Site_wiped { dropped; _ } ->
     t.counters.wiped_entries <- t.counters.wiped_entries + dropped
   | Lock_requested _ | Lock_granted _ | Lock_promoted _ | Lock_transformed _
   | Lock_released _ | Request_withdrawn _ | Ts_updated _
   | Deadlock_detected _ | Site_crashed _ | Site_recovered _
   | Request_dropped _ | Wal_replayed _ | Prepared _ | Decision_logged _
   | Acceptor_promised _ | Acceptor_accepted _ | Op_implemented _
   | Reads_discarded _ -> ());
  fan_out event t.listeners;
  match t.observers with
  | [] -> ()
  | observers -> (
    match t.pipe with
    | Some p -> Ccdb_util.Pipeline.push p event
    | None -> fan_out event observers)

let on_site_crash t f = Ccdb_sim.Net.on_crash t.net f

let on_site_wipe t f = t.wipe_handlers <- f :: t.wipe_handlers
let on_wal_replay t f = t.replay_handlers <- f :: t.replay_handlers

(* The cap on a restart's backoff under faults. *)
let restart_cap = 800.

(* Resubmission delay for the [attempt]-th restart of a transaction: plain
   [base] on a fault-free run (pinned by the byte-identity tests), capped
   exponential backoff with seeded jitter in [base/2, base) units of the
   doubled delay under faults, so crash-abort restart storms desynchronize
   instead of hammering the recovering site in lockstep.  Jitter comes from
   a per-[site] stream (the caller passes the transaction's home site):
   sites draw independently, so the sequence each site sees is a function
   of its own restarts only, never of how restarts interleave across
   sites.  The faulted experiment tables are pinned to these streams. *)
let restart_backoff t ~site ~base ~attempt =
  match t.restart_rngs with
  | None -> base
  | Some rngs ->
    if site < 0 || site >= Array.length rngs then
      invalid_arg "Runtime.restart_backoff: site out of range";
    if base <= 0. then base
    else
      let doubled = base *. (2. ** float_of_int (Int.min attempt 16)) in
      let capped = Float.min restart_cap doubled in
      capped *. Ccdb_util.Rng.uniform_in rngs.(site) ~lo:0.5 ~hi:1.0

let create ?(seed = 42) ?faults ?(commit = Paxos { f = 0 }) ~net_config
    ~catalog () =
  let sites = Ccdb_storage.Catalog.sites catalog in
  (let (Paxos { f }) = commit in
   if f < 0 then invalid_arg "Runtime.create: negative Paxos f";
   if (2 * f) + 1 > sites then
     invalid_arg
       "Runtime.create: Paxos needs 2f+1 acceptor sites (not enough sites)");
  let rng = Ccdb_util.Rng.create ~seed in
  let engine = Ccdb_sim.Engine.create () in
  let net_rng = Ccdb_util.Rng.split rng in
  let net = Ccdb_sim.Net.create engine net_rng ~sites net_config in
  let t =
    { engine;
      net;
      rng;
      catalog;
      store = Ccdb_storage.Store.create catalog;
      ts_source = Ccdb_model.Timestamp.Source.create ();
      counters =
        { committed = 0; restarts = 0; rejections = 0; deadlock_aborts = 0;
          prevention_aborts = 0; backoffs = 0; site_aborts = 0;
          wiped_entries = 0 };
      system_time =
        { all = Ccdb_util.Stats.create ();
          by_protocol =
            Array.init (List.length Ccdb_model.Protocol.all) (fun _ ->
                Ccdb_util.Stats.create ());
          histogram = Ccdb_util.Histogram.create ();
          latest = { executed_at = 0. } };
      listeners = [];
      observers = [];
      pipe = None;
      durable =
        (match faults with
         | Some plan -> Ccdb_sim.Fault_plan.wipe plan
         | None -> false);
      wal = Ccdb_storage.Wal.create ~sites;
      recovery = None;
      wipe_handlers = [];
      replay_handlers = [];
      restart_rngs =
        (* one independent jitter stream per site (home sites draw from
           their own stream; see [restart_backoff]) *)
        (match faults with
         | Some _ ->
           Some (Array.init sites (fun _ -> Ccdb_util.Rng.split rng))
         | None -> None);
      commit_protocol = commit }
  in
  (* Mirror every implementation-log mutation as a runtime event, so the
     streaming analyzer can grow its conflict graph in-line instead of
     re-scanning the store's logs after the run. *)
  Ccdb_storage.Store.on_append t.store (fun ~item ~site entry ->
      if has_consumer t then
        emit t
          (Op_implemented
             { txn = entry.Ccdb_storage.Store.txn; op = entry.kind; item;
               site; at = entry.at }));
  Ccdb_storage.Store.on_discard t.store (fun ~item ~site ~txn ~removed ->
      if has_consumer t then
        emit t (Reads_discarded { txn; item; site; removed; at = now t }));
  (match faults with
   | None -> ()
   | Some plan ->
     Ccdb_sim.Net.install_faults t.net plan;
     (* registered first, so the trace records the crash before any
        crash-triggered abort the systems perform *)
     Ccdb_sim.Net.on_crash t.net (fun site ->
         emit t (Site_crashed { site; at = now t }));
     Ccdb_sim.Net.on_recover t.net (fun site ->
         emit t (Site_recovered { site; at = now t }));
     if t.durable then
       (* between the Site_crashed emitter above and the systems' own crash
          handlers (registered later, in each system's [create]): wipes run
          after the crash is recorded, and the restart logic sees the
          post-wipe queues *)
       t.recovery <-
         Some
           (Ccdb_sim.Recovery.create ~net:t.net ~engine
              ~records:(fun site -> Ccdb_storage.Wal.site_appends t.wal site)
              ~on_wipe:(fun site ->
                  let dropped = ref 0 and preserved = ref 0 in
                  List.iter
                    (fun f ->
                       let d, p = f site in
                       dropped := !dropped + d;
                       preserved := !preserved + p)
                    (List.rev t.wipe_handlers);
                  emit t
                    (Site_wiped
                       { site; dropped = !dropped; preserved = !preserved;
                         at = now t }))
              ~on_replay:(fun site ~records ->
                  let r = Ccdb_storage.Wal.replay t.wal ~site in
                  emit t
                    (Wal_replayed
                       { site; records;
                         reacquired = r.Ccdb_storage.Wal.live_grants;
                         in_doubt = List.length r.Ccdb_storage.Wal.in_doubt;
                         at = now t });
                  List.iter (fun f -> f site r) (List.rev t.replay_handlers))
              ()));
  t

let counters t = t.counters

let system_time t = t.system_time.all

let protocol_system_time t p =
  t.system_time.by_protocol.(Ccdb_model.Protocol.rank p)

let system_time_histogram t = t.system_time.histogram
let last_executed t = t.system_time.latest.executed_at

exception Event_budget_exhausted of { fired : int; pending : int; clock : float }

let () =
  Printexc.register_printer (function
    | Event_budget_exhausted { fired; pending; clock } ->
      Some
        (Printf.sprintf
           "event budget exhausted after %d events at simulated time %.1f, \
            %d still pending (possible livelock)"
           fired clock pending)
    | _ -> None)

(* Drives the engine, feeding the observers on a worker domain when there
   are any and a core is spare, and joins the worker before returning or
   raising.  An observer's exception wins over the run's: in event order
   it came first. *)
let drive ~max_events t =
  if t.observers == [] || not (Ccdb_util.Pool.reserve_domain ()) then
    Ccdb_sim.Engine.run ~max_events t.engine
  else begin
    t.pipe <- Some (pipeline t.observers);
    let stop () =
      let p = t.pipe in
      t.pipe <- None;
      Fun.protect ~finally:Ccdb_util.Pool.release_domain (fun () ->
          Option.iter Ccdb_util.Pipeline.finish p)
    in
    match Ccdb_sim.Engine.run ~max_events t.engine with
    | () -> stop ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      stop ();
      Printexc.raise_with_backtrace e bt
  end

let quiesce ?(max_events = 10_000_000) t =
  drive ~max_events t;
  let pending = Ccdb_sim.Engine.pending t.engine in
  if pending > 0 then
    raise
      (Event_budget_exhausted
         { fired = Ccdb_sim.Engine.processed t.engine; pending; clock = now t })
