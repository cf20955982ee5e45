module Rt = Ccdb_protocols.Runtime

type t = {
  mutable events : Rt.event list; (* newest first *)
  mutable n_events : int;         (* List.length events, maintained O(1) *)
}

let attach rt =
  let t = { events = []; n_events = 0 } in
  Rt.observe rt (fun e ->
      t.events <- e :: t.events;
      t.n_events <- t.n_events + 1);
  t

let events t = List.rev t.events
let count t = t.n_events

let to_array t =
  match t.events with
  | [] -> [||]
  | hd :: _ ->
    let arr = Array.make t.n_events hd in
    let rec fill i = function
      | [] -> ()
      | e :: rest ->
        arr.(i) <- e;
        fill (i - 1) rest
    in
    fill (t.n_events - 1) t.events;
    arr

let pp_ts ppf = function
  | Some ts -> Format.fprintf ppf " ts=%d" ts
  | None -> ()

let pp_event ppf (e : Rt.event) =
  match e with
  | Rt.Lock_requested { txn; protocol; op; item; site; ts; outcome; at; _ } ->
    let verdict =
      match outcome with
      | Rt.Req_admitted -> "admitted"
      | Rt.Req_rejected -> "rejected"
      | Rt.Req_backoff ts' -> Printf.sprintf "backoff->%d" ts'
      | Rt.Req_ignored -> "ignored"
    in
    Format.fprintf ppf "%8.1f  request  t%d [%a] %a(item%d@@s%d)%a %s" at txn
      Ccdb_model.Protocol.pp protocol Ccdb_model.Op.pp op item site pp_ts ts
      verdict
  | Rt.Lock_granted { txn; protocol; op; item; site; mode; schedule; ts; at } ->
    Format.fprintf ppf "%8.1f  grant    t%d [%a] %a(item%d@@s%d)%s%s%a" at txn
      Ccdb_model.Protocol.pp protocol Ccdb_model.Op.pp op item site
      (match mode with
       | Some m -> " " ^ Ccdb_model.Lock.to_string m
       | None -> "")
      (match schedule with
       | Ccdb_model.Lock.Pre_scheduled -> " presched"
       | Ccdb_model.Lock.Normal -> "")
      pp_ts ts
  | Rt.Lock_promoted { txn; item; site; at } ->
    Format.fprintf ppf "%8.1f  promote  t%d (item%d@@s%d)" at txn item site
  | Rt.Lock_transformed { txn; item; site; mode; at } ->
    Format.fprintf ppf "%8.1f  semi     t%d (item%d@@s%d) -> %s" at txn item
      site (Ccdb_model.Lock.to_string mode)
  | Rt.Lock_released { txn; protocol; op; item; site; at; aborted; granted_at;
                       ts } ->
    Format.fprintf ppf "%8.1f  %s  t%d [%a] %a(item%d@@s%d)%a held %.1f" at
      (if aborted then "abort  " else "release")
      txn Ccdb_model.Protocol.pp protocol Ccdb_model.Op.pp op item site pp_ts
      ts
      (at -. granted_at)
  | Rt.Request_withdrawn { txn; item; site; at } ->
    Format.fprintf ppf "%8.1f  withdraw t%d (item%d@@s%d)" at txn item site
  | Rt.Ts_updated { txn; item; site; ts; revoked; at } ->
    Format.fprintf ppf "%8.1f  re-ts    t%d (item%d@@s%d) ts=%d%s" at txn item
      site ts
      (if revoked then " (grant revoked)" else "")
  | Rt.Deadlock_detected { cycle; victim; at } ->
    Format.fprintf ppf "%8.1f  deadlock cycle={%s} victim=%s" at
      (String.concat " " (List.map (Printf.sprintf "t%d") cycle))
      (match victim with Some v -> Printf.sprintf "t%d" v | None -> "-")
  | Rt.Txn_committed { txn; submitted_at; executed_at; restarts } ->
    Format.fprintf ppf "%8.1f  commit   t%d [%a] after %d restarts (S=%.1f)"
      executed_at txn.id Ccdb_model.Protocol.pp txn.protocol restarts
      (executed_at -. submitted_at)
  | Rt.Txn_restarted { txn; reason; at } ->
    let why =
      match reason with
      | Rt.To_rejected op ->
        Printf.sprintf "%s request rejected" (Ccdb_model.Op.to_string op)
      | Rt.Deadlock_victim -> "deadlock victim"
      | Rt.Prevention_kill -> "prevention kill"
      | Rt.Site_failure -> "site failure"
    in
    Format.fprintf ppf "%8.1f  restart  t%d [%a] (%s)" at txn.id
      Ccdb_model.Protocol.pp txn.protocol why
  | Rt.Pa_backoff { txn; op; at } ->
    Format.fprintf ppf "%8.1f  backoff  t%d %a request" at txn
      Ccdb_model.Op.pp op
  | Rt.Site_crashed { site; at } ->
    Format.fprintf ppf "%8.1f  crash    site s%d down" at site
  | Rt.Site_recovered { site; at } ->
    Format.fprintf ppf "%8.1f  recover  site s%d up" at site
  | Rt.Request_dropped { txn; item; site; at } ->
    Format.fprintf ppf "%8.1f  dropped  t%d (item%d@@s%d) lost in wipe" at txn
      item site
  | Rt.Site_wiped { site; dropped; preserved; at } ->
    Format.fprintf ppf
      "%8.1f  wipe     site s%d volatile state gone (%d dropped, %d held by \
       WAL)"
      at site dropped preserved
  | Rt.Wal_replayed { site; records; reacquired; in_doubt; at } ->
    Format.fprintf ppf
      "%8.1f  replay   site s%d %d records (%d locks reacquired, %d in-doubt)"
      at site records reacquired in_doubt
  | Rt.Prepared { txn; site; round; at } ->
    Format.fprintf ppf "%8.1f  prepared t%d@@s%d round %d voted yes" at txn
      site round
  | Rt.Decision_logged { txn; site; round; commit; at } ->
    Format.fprintf ppf "%8.1f  decide   t%d@@s%d round %d -> %s" at txn site
      round
      (if commit then "commit" else "abort")
  | Rt.Acceptor_promised { txn; site; round; ballot; at } ->
    Format.fprintf ppf "%8.1f  promise  t%d@@s%d round %d ballot %d" at txn
      site round ballot
  | Rt.Acceptor_accepted { txn; site; round; instance; ballot; prepared; at }
    ->
    Format.fprintf ppf
      "%8.1f  accept   t%d@@s%d round %d instance %d ballot %d -> %s" at txn
      site round instance ballot
      (if prepared then "prepared" else "aborted")
  | Rt.Op_implemented { txn; op; item; site; at } ->
    Format.fprintf ppf "%8.1f  impl     t%d %a(item%d@@s%d)" at txn
      Ccdb_model.Op.pp op item site
  | Rt.Reads_discarded { txn; item; site; removed; at } ->
    Format.fprintf ppf "%8.1f  unread   t%d (item%d@@s%d) %d read%s withdrawn"
      at txn item site removed
      (if removed = 1 then "" else "s")

let render t =
  let buf = Buffer.create (256 * (t.n_events + 1)) in
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (Format.asprintf "%a" pp_event e))
    (List.rev t.events);
  Buffer.contents buf
