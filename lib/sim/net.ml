type config = {
  base_delay : float;
  jitter : float;
}

let default_config = { base_delay = 10.0; jitter = 2.0 }

(* latency of a message a site sends to itself *)
let local_delay = 0.1

(* retransmission schedule of the reliable transport: the [k]-th
   retransmission fires [min (rto * rto_backoff^k) rto_cap] after the
   [k]-th transmission *)
let rto = 60.
let rto_backoff = 2.
let rto_cap = 480.

type fault_stats = {
  transmissions : int;
  dropped : int;
  duplicated : int;
  retransmitted : int;
  suppressed : int;
  acks_lost : int;
  crashes : int;
  recoveries : int;
}

(* internal mutable counterpart of [fault_stats] *)
type fstats = {
  mutable s_transmissions : int;
  mutable s_dropped : int;
  mutable s_duplicated : int;
  mutable s_retransmitted : int;
  mutable s_suppressed : int;
  mutable s_acks_lost : int;
  mutable s_crashes : int;
  mutable s_recoveries : int;
}

(* Int-keyed tables that are only looked up, never iterated, so their
   order is never observed and the key can be its own hash: the
   per-(src, dst) channel tables, keyed by [src * sites + dst], and each
   channel's [ready] set, keyed by sequence number. *)
module Lookup = Ccdb_util.Lookup_tbl

(* Per-kind message counters; [messages_by_kind] sorts, so their order is
   never observed either.  Kinds are short literals: their length and last
   two bytes spread them well enough, and [equal] settles collisions. *)
module Kind_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash (k : string) =
    let n = String.length k in
    if n < 2 then n
    else
      (n * 961)
      + (Char.code (String.unsafe_get k (n - 1)) * 31)
      + Char.code (String.unsafe_get k (n - 2))
end)

(* one logical message of the reliable transport; every physical copy
   (first transmission, retransmissions, duplicates) shares this record *)
type fmessage = {
  m_src : int;
  m_dst : int;
  m_seq : int;
  m_channel : fchannel;
  m_deliver : unit -> unit;
  mutable m_attempts : int;       (* physical transmissions so far *)
  mutable m_received : bool;      (* a copy reached the destination *)
  (* The retransmission timer of the latest transmission, due at [m_due]:
     reserved (its engine key [m_key], not in the heap yet), pushed
     ([m_timer]), or neither once the message is acked. *)
  mutable m_due : float;
  mutable m_key : int;            (* -1 unless reserved *)
  mutable m_timer : Engine.handle; (* -1 unless pushed *)
}

(* per-(src, dst) transport channel *)
and fchannel = {
  mutable next_seq : int;      (* sender side: next sequence number *)
  mutable deliver_next : int;  (* receiver side: next seq to release in order *)
  ready : fmessage Lookup.Int.t; (* received, waiting for in-order release *)
}

type faults = {
  plan : Fault_plan.t;
  frng : Ccdb_util.Rng.t;
  channels : fchannel Lookup.Int.t;
  crashed : bool array;
  stats : fstats;
  mutable crash_listeners : (int -> unit) list;   (* registration order *)
  mutable recover_listeners : (int -> unit) list;
}

type t = {
  engine : Engine.t;
  rng : Ccdb_util.Rng.t;
  sites : int;
  (* [config]'s fields, kept boxed here: a [config] holds only floats, so
     its fields are stored flat, and passing one to [Rng.float] would box
     it on every send *)
  base_delay : float;
  jitter : float;
  counts : int ref Kind_tbl.t;
  mutable last_kind : string; (* the kind [last_count] counts *)
  mutable last_count : int ref;
  mutable total : int;
  (* Earliest admissible delivery time per ordered (src, dst) pair, to keep
     per-channel delivery FIFO even with jitter. *)
  channel_front : front Lookup.Int.t;
  mutable faults : faults option;
}

and front = { mutable front : float }

(* a string no caller holds, so no kind is identical to it *)
let no_kind = String.make 1 '?'

let create engine rng ~sites (config : config) =
  if sites <= 0 then invalid_arg "Net.create: need at least one site";
  { engine; rng; sites; base_delay = config.base_delay;
    jitter = config.jitter; counts = Kind_tbl.create 16;
    last_kind = no_kind; last_count = ref 0; total = 0;
    channel_front = Lookup.Int.create 64; faults = None }

let sites t = t.sites

(* Kinds are literals at their call sites, and runs of sends share one
   (a message to each copy, participant or acceptor), so the counter of
   the last kind is kept and the kind compared with it by identity; only
   a different kind is hashed. *)
let count t kind =
  t.total <- t.total + 1;
  if kind != t.last_kind then begin
    let r =
      match Kind_tbl.find t.counts kind with
      | r -> r
      | exception Not_found ->
        let r = ref 0 in
        Kind_tbl.add t.counts kind r;
        r
    in
    t.last_kind <- kind;
    t.last_count <- r
  end;
  incr t.last_count

(* --- reliable transport over faulty links ------------------------------- *)

(* Fault semantics (DESIGN.md §9): each Net.send becomes one logical message
   with a per-channel sequence number.  Physical transmissions may be
   dropped, duplicated or delayed per the plan's link distributions, and are
   suppressed entirely while either endpoint is crashed.  The receiver acks
   every copy (the ack rides the lossy reverse link), deduplicates, and
   releases messages to the application strictly in sequence order, so
   protocol code sees the same FIFO-channel abstraction as the fault-free
   network.  The sender retransmits on a capped exponential-backoff timer
   until acked, however long that takes: no message is ever abandoned, so
   a channel never has a gap to skip (DESIGN.md §9.2 says why every message
   arrives).

   Only what changes state becomes an event (DESIGN.md §9.2).  Crash
   windows are fixed by the plan, and an ack's loss coin and delay are
   drawn when its copy arrives, so the arrival already knows what the ack
   will do: nothing if it is lost, lands on a crashed sender or finds the
   message settled; cancel the timer if it lands before the timer is due.
   The arrival does that at once, and only an ack landing at or after the
   due time, which the timer beats, is scheduled.  A timer draws its key
   at transmission but enters the heap only if no copy of that
   transmission arrives before it is due; otherwise the first arrival
   pushes it if its ack cannot settle it.  Either way it is pushed
   strictly before it is due, so every event that fires keeps its place. *)

let fchannel t fr ~src ~dst =
  let key = (src * t.sites) + dst in
  match Lookup.Int.find fr.channels key with
  | ch -> ch
  | exception Not_found ->
    let ch = { next_seq = 0; deliver_next = 0; ready = Lookup.Int.create 8 } in
    Lookup.Int.add fr.channels key ch;
    ch

(* transit delay of one physical copy, jitter and extra delay drawn from the
   plan's private RNG *)
let faulty_delay t fr (link : Fault_plan.link) ~src ~dst =
  let base =
    if src = dst then local_delay
    else t.base_delay +. Ccdb_util.Rng.float fr.frng t.jitter
  in
  let extra =
    if link.Fault_plan.delay_prob > 0.
       && Ccdb_util.Rng.float fr.frng 1.0 < link.Fault_plan.delay_prob
    then Ccdb_util.Rng.exponential fr.frng ~mean:link.Fault_plan.delay_mean
    else 0.
  in
  base +. extra

let rec release_ready ch =
  match Lookup.Int.find_opt ch.ready ch.deliver_next with
  | Some m ->
    Lookup.Int.remove ch.ready ch.deliver_next;
    ch.deliver_next <- ch.deliver_next + 1;
    m.m_deliver ();
    release_ready ch
  | None -> ()

let armed msg = msg.m_key >= 0 || msg.m_timer >= 0

(* the message is acknowledged: its timer is cancelled or never pushed *)
let settle t msg =
  msg.m_key <- -1;
  if msg.m_timer >= 0 then begin
    ignore (Engine.cancel t.engine msg.m_timer);
    msg.m_timer <- -1
  end

let rec transmit t fr msg =
  msg.m_attempts <- msg.m_attempts + 1;
  fr.stats.s_transmissions <- fr.stats.s_transmissions + 1;
  if msg.m_attempts > 1 then
    fr.stats.s_retransmitted <- fr.stats.s_retransmitted + 1;
  (* the timer's due time, which each copy's arrival is compared with; the
     first timeout is [rto *. rto_backoff ** 0.], which is [rto] *)
  let k = msg.m_attempts - 1 in
  let timeout =
    if k = 0 then rto else rto *. (rto_backoff ** float_of_int k)
  in
  msg.m_due <- Engine.now t.engine +. Float.min timeout rto_cap;
  let link = Fault_plan.link_for fr.plan ~src:msg.m_src ~dst:msg.m_dst in
  let early =
    if fr.crashed.(msg.m_src) then begin
      (* a crashed sender transmits nothing; the timer keeps the message
         alive until recovery *)
      fr.stats.s_suppressed <- fr.stats.s_suppressed + 1;
      false
    end
    else begin
      let early = physical_copy t fr link msg in
      if link.Fault_plan.duplicate > 0.
         && Ccdb_util.Rng.float fr.frng 1.0 < link.Fault_plan.duplicate
      then begin
        fr.stats.s_duplicated <- fr.stats.s_duplicated + 1;
        let second = physical_copy t fr link msg in
        early || second
      end
      else early
    end
  in
  (* the timer's key comes after its copies' keys, where scheduling it
     would draw it; the timer enters the heap now only if no copy arrives
     before it is due *)
  msg.m_key <- Engine.reserve t.engine 1;
  if not early then push_timer t fr msg

(* Puts one copy on the wire; whether it arrives before the timer is due
   ([false] if the link loses it). *)
and physical_copy t fr link msg =
  if link.Fault_plan.drop > 0.
     && Ccdb_util.Rng.float fr.frng 1.0 < link.Fault_plan.drop
  then begin
    fr.stats.s_dropped <- fr.stats.s_dropped + 1;
    false
  end
  else begin
    let at =
      Engine.now t.engine
      +. faulty_delay t fr link ~src:msg.m_src ~dst:msg.m_dst
    in
    ignore (Engine.schedule_at t.engine ~at (fun () -> arrive t fr msg));
    at < msg.m_due
  end

(* pushes a reserved timer under its key; nothing once pushed or settled *)
and push_timer t fr msg =
  let seq = msg.m_key in
  if seq >= 0 then begin
    msg.m_key <- -1;
    msg.m_timer <-
      Engine.schedule_reserved t.engine ~at:msg.m_due ~seq (fun () ->
          msg.m_timer <- -1;
          transmit t fr msg)
  end

and arrive t fr msg =
  if fr.crashed.(msg.m_dst) then begin
    (* fail-pause: a dead site neither processes nor acknowledges; the
       sender's timer will retransmit after recovery *)
    fr.stats.s_suppressed <- fr.stats.s_suppressed + 1;
    push_timer t fr msg
  end
  else begin
    send_ack t fr msg;
    if not msg.m_received then begin
      (* the channel releases only received messages, so this one is at
         or past its front; at the front it is released at once, with
         whatever it unblocks, and past it it waits in [ready] *)
      msg.m_received <- true;
      let ch = msg.m_channel in
      if msg.m_seq = ch.deliver_next then begin
        ch.deliver_next <- ch.deliver_next + 1;
        msg.m_deliver ();
        release_ready ch
      end
      else Lookup.Int.replace ch.ready msg.m_seq msg
    end
  end

(* The ack travels the reverse link and is subject to its loss rate; a lost
   ack just means one more retransmission.  Its effect is known here: see
   the fault semantics above. *)
and send_ack t fr msg =
  let back = Fault_plan.link_for fr.plan ~src:msg.m_dst ~dst:msg.m_src in
  if back.Fault_plan.drop > 0.
     && Ccdb_util.Rng.float fr.frng 1.0 < back.Fault_plan.drop
  then begin
    fr.stats.s_acks_lost <- fr.stats.s_acks_lost + 1;
    push_timer t fr msg
  end
  else begin
    let lands =
      Engine.now t.engine
      +. faulty_delay t fr back ~src:msg.m_dst ~dst:msg.m_src
    in
    if armed msg then
      if Fault_plan.is_crashed fr.plan ~site:msg.m_src ~at:lands then
        push_timer t fr msg
      else if lands < msg.m_due then settle t msg
      else begin
        (* the timer's older key wins a tie: it fires first *)
        push_timer t fr msg;
        ignore (Engine.schedule_at t.engine ~at:lands (fun () -> settle t msg))
      end
  end

let send_faulted t fr ~src ~dst deliver =
  let ch = fchannel t fr ~src ~dst in
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  let msg =
    { m_src = src; m_dst = dst; m_seq = seq; m_channel = ch;
      m_deliver = deliver; m_attempts = 0; m_received = false;
      m_due = 0.; m_key = -1; m_timer = -1 }
  in
  transmit t fr msg

(* --- the send entry point ----------------------------------------------- *)

let send t ~src ~dst ~kind deliver =
  let n = t.sites in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Net.send: site out of range";
  count t kind;
  match t.faults with
  | Some fr -> send_faulted t fr ~src ~dst deliver
  | None ->
    let delay =
      if src = dst then local_delay
      else t.base_delay +. Ccdb_util.Rng.float t.rng t.jitter
    in
    let naive = Engine.now t.engine +. delay in
    let key = (src * n) + dst in
    let f =
      match Lookup.Int.find t.channel_front key with
      | f -> f
      | exception Not_found ->
        let f = { front = 0. } in
        Lookup.Int.add t.channel_front key f;
        f
    in
    let at = if naive > f.front then naive else f.front +. 1e-9 in
    f.front <- at;
    ignore (Engine.schedule_at t.engine ~at deliver)

(* --- fault-plan installation -------------------------------------------- *)

let install_faults t plan =
  if t.faults <> None then
    invalid_arg "Net.install_faults: a fault plan is already installed";
  if t.total > 0 then
    invalid_arg "Net.install_faults: traffic has already been sent";
  if Fault_plan.max_site plan >= t.sites then
    invalid_arg "Net.install_faults: plan names an out-of-range site";
  if Fault_plan.role_crashes plan <> [] then
    invalid_arg
      "Net.install_faults: plan has unresolved role-targeted crashes (use \
       Fault_plan.resolve first)";
  let fr =
    { plan;
      frng = Ccdb_util.Rng.create ~seed:(Fault_plan.seed plan);
      channels = Lookup.Int.create 64;
      crashed = Array.make t.sites false;
      stats =
        { s_transmissions = 0; s_dropped = 0; s_duplicated = 0;
          s_retransmitted = 0; s_suppressed = 0;
          s_acks_lost = 0; s_crashes = 0; s_recoveries = 0 };
      crash_listeners = []; recover_listeners = [] }
  in
  t.faults <- Some fr;
  List.iter
    (fun (c : Fault_plan.crash) ->
      ignore
        (Engine.schedule_at t.engine ~at:c.Fault_plan.at (fun () ->
             fr.crashed.(c.Fault_plan.site) <- true;
             fr.stats.s_crashes <- fr.stats.s_crashes + 1;
             List.iter (fun f -> f c.Fault_plan.site) fr.crash_listeners));
      ignore
        (Engine.schedule_at t.engine ~at:c.Fault_plan.recover_at (fun () ->
             fr.crashed.(c.Fault_plan.site) <- false;
             fr.stats.s_recoveries <- fr.stats.s_recoveries + 1;
             List.iter (fun f -> f c.Fault_plan.site) fr.recover_listeners)))
    (Fault_plan.crashes plan)

let fault_plan t = Option.map (fun fr -> fr.plan) t.faults

let fault_stats t =
  Option.map
    (fun fr ->
      { transmissions = fr.stats.s_transmissions;
        dropped = fr.stats.s_dropped;
        duplicated = fr.stats.s_duplicated;
        retransmitted = fr.stats.s_retransmitted;
        suppressed = fr.stats.s_suppressed;
        acks_lost = fr.stats.s_acks_lost;
        crashes = fr.stats.s_crashes;
        recoveries = fr.stats.s_recoveries })
    t.faults

let is_crashed t site =
  if site < 0 || site >= t.sites then
    invalid_arg "Net.is_crashed: site out of range";
  match t.faults with Some fr -> fr.crashed.(site) | None -> false

let on_crash t f =
  match t.faults with
  | Some fr -> fr.crash_listeners <- fr.crash_listeners @ [ f ]
  | None -> ()

let on_recover t f =
  match t.faults with
  | Some fr -> fr.recover_listeners <- fr.recover_listeners @ [ f ]
  | None -> ()

(* --- counters ----------------------------------------------------------- *)

let messages_sent t = t.total

let messages_by_kind t =
  Kind_tbl.fold (fun k r acc -> (k, !r) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
