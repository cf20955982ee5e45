type config = { probe_delay : float }

let default_config = { probe_delay = 150. }

type callbacks = {
  is_waiting : int -> bool;
  home_site : int -> int option;
  pending_sites : int -> int list;
  local_waits_on : site:int -> txn:int -> int list;
  may_initiate : int -> bool;
  on_deadlock : int -> unit;
}

(* Every table is keyed by transaction id or by an (initiator, round, txn)
   triple and only looked up, never iterated. *)
module Lookup = Ccdb_util.Lookup_tbl

type t = {
  engine : Ccdb_sim.Engine.t;
  net : Ccdb_sim.Net.t;
  config : config;
  cb : callbacks;
  (* one armed timer per blocked transaction *)
  timers : unit Lookup.Int.t;
  (* next round id to allocate, per initiator *)
  next_round : int Lookup.Int.t;
  (* smallest round id still considered valid, per initiator; bumped when
     the initiator makes progress, which retires every outstanding round *)
  valid_from : int Lookup.Int.t;
  (* (initiator, round, txn) triples already forwarded *)
  seen : unit Lookup.Triple.t;
  (* rounds whose probe came home without intervening progress *)
  confirmations : int Lookup.Int.t;
  mutable rounds_started : int;
  mutable deadlocks_found : int;
}

let create engine net config cb =
  if not (config.probe_delay > 0.) then
    invalid_arg "Edge_chasing.create: probe_delay must be positive";
  { engine; net; config; cb; timers = Lookup.Int.create 32;
    next_round = Lookup.Int.create 32; valid_from = Lookup.Int.create 32;
    seen = Lookup.Triple.create 256; confirmations = Lookup.Int.create 32;
    rounds_started = 0; deadlocks_found = 0 }

let get tbl key = Option.value ~default:0 (Lookup.Int.find_opt tbl key)

let fresh_round t initiator =
  let r = get t.next_round initiator + 1 in
  Lookup.Int.replace t.next_round initiator r;
  t.rounds_started <- t.rounds_started + 1;
  r

let round_valid t initiator round = round >= get t.valid_from initiator

(* retire every outstanding round and pending suspicion *)
let invalidate t initiator =
  Lookup.Int.replace t.valid_from initiator (get t.next_round initiator + 1);
  Lookup.Int.remove t.confirmations initiator

(* Ask each queue-manager site for [txn]'s local wait-for targets and probe
   their home sites.  [from_site] pays for the query hop. *)
let rec fan_out t ~initiator ~round ~txn ~from_site =
  List.iter
    (fun qm_site ->
      Ccdb_sim.Net.send t.net ~src:from_site ~dst:qm_site ~kind:"probe-scan"
        (fun () ->
          let targets = t.cb.local_waits_on ~site:qm_site ~txn in
          List.iter
            (fun target ->
              match t.cb.home_site target with
              | None -> ()
              | Some home ->
                Ccdb_sim.Net.send t.net ~src:qm_site ~dst:home ~kind:"probe"
                  (fun () -> on_probe t ~initiator ~round ~txn:target))
            targets))
    (t.cb.pending_sites txn)

and on_probe t ~initiator ~round ~txn =
  if round_valid t initiator round then begin
    if txn = initiator then begin
      if Lookup.Triple.mem t.seen (initiator, round, initiator) then ()
      else begin
      Lookup.Triple.replace t.seen (initiator, round, initiator) ();
      (* The probe came home.  Edges are sampled at different instants along
         the path, so with incremental lock grants this can be a phantom: a
         chain that never existed all at once.  Require a second round to
         come home with no progress in between ({!txn_progress} resets the
         suspicion) before declaring a deadlock.  A genuine cycle keeps
         confirming, because none of its members can move. *)
      let confirmed = 1 + get t.confirmations initiator in
      Lookup.Int.replace t.confirmations initiator confirmed;
      (* this particular round is spent *)
      if confirmed >= 2 then begin
        t.deadlocks_found <- t.deadlocks_found + 1;
        invalidate t initiator;
        t.cb.on_deadlock initiator
      end
      else begin
        (* re-probe immediately for confirmation; the periodic timer keeps
           further rounds coming regardless *)
        let round = fresh_round t initiator in
        match t.cb.home_site initiator with
        | Some home -> fan_out t ~initiator ~round ~txn:initiator ~from_site:home
        | None -> ()
      end
      end
    end
    else if t.cb.is_waiting txn
            && not (Lookup.Triple.mem t.seen (initiator, round, txn)) then begin
      Lookup.Triple.replace t.seen (initiator, round, txn) ();
      match t.cb.home_site txn with
      | None -> ()
      | Some home -> fan_out t ~initiator ~round ~txn ~from_site:home
    end
  end

let rec tick t txn =
  if Lookup.Int.mem t.timers txn then begin
    if t.cb.is_waiting txn && t.cb.may_initiate txn then begin
      (* a new round per period; outstanding rounds stay valid — a slow
         cycle's probe may take longer than one period to come home *)
      let round = fresh_round t txn in
      (match t.cb.home_site txn with
       | Some home -> fan_out t ~initiator:txn ~round ~txn ~from_site:home
       | None -> ());
      arm t txn
    end
    else Lookup.Int.remove t.timers txn
  end

and arm t txn =
  ignore
    (Ccdb_sim.Engine.schedule t.engine ~after:t.config.probe_delay (fun () ->
         tick t txn))

let txn_blocked t txn =
  if t.cb.may_initiate txn && not (Lookup.Int.mem t.timers txn) then begin
    Lookup.Int.replace t.timers txn ();
    arm t txn
  end

let txn_unblocked t txn =
  Lookup.Int.remove t.timers txn;
  invalidate t txn

let txn_progress t txn =
  (* a grant arrived: whatever chain a probe observed has moved *)
  invalidate t txn

let rounds_started t = t.rounds_started
let deadlocks_found t = t.deadlocks_found
