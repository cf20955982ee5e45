type entry = {
  txn : int;
  attempt : int;
  op : Ccdb_model.Op.kind;
  arrival : int;
  mutable granted : bool;
}

(* The index is keyed by [(txn, attempt)] and only looked up, never
   iterated, so its hash need not be the generic one. *)
module Lookup = Ccdb_util.Lookup_tbl

(* FCFS queue as a front list (oldest first) plus a reversed back list, so
   [request] is O(1) instead of the old [queue @ [entry]] append; the two
   halves are normalised into [front] before any in-order traversal.  The
   [(txn, attempt)] index makes [release] of an absent or stale entry (the
   common retransmission case) a hash probe instead of a full scan. *)
type t = {
  mutable front : entry list; (* FCFS order, oldest first *)
  mutable back : entry list;  (* newest first *)
  mutable next_arrival : int;
  index : entry Lookup.Pair.t;
}

let create () =
  { front = []; back = []; next_arrival = 0; index = Lookup.Pair.create 16 }

let normalize t =
  (match t.back with
   | [] -> ()
   | back ->
     t.front <- t.front @ List.rev back;
     t.back <- []);
  t.front

let request t ~txn ~attempt ~op =
  let entry = { txn; attempt; op; arrival = t.next_arrival; granted = false } in
  t.next_arrival <- t.next_arrival + 1;
  t.back <- entry :: t.back;
  (* a transaction may queue several requests here (e.g. read and write of
     the same copy); the index keeps the oldest, which is the one a release
     must remove first *)
  if not (Lookup.Pair.mem t.index (txn, attempt)) then
    Lookup.Pair.add t.index (txn, attempt) entry;
  entry

(* One pass, oldest first: an entry is grantable when no earlier entry of
   another transaction conflicts with it.  A read conflicts only with
   earlier writes, so it is grantable iff every earlier write belongs to
   its own transaction; a write conflicts with anything earlier, so it is
   grantable iff every earlier entry does.  "Every earlier X is mine"
   needs only the unique owner of the X-prefix (when one exists), making
   the sweep O(n) with O(1) state — no per-transaction table, no O(n^2)
   rescan of [earlier]. *)
let grant_ready t =
  let queue = normalize t in
  let newly = ref [] in
  (* owner of all earlier entries / earlier writes; -1 = none yet,
     -2 = more than one owner *)
  let any_owner = ref (-1) and write_owner = ref (-1) in
  List.iter
    (fun e ->
      let grantable =
        match e.op with
        | Ccdb_model.Op.Read -> !write_owner = -1 || !write_owner = e.txn
        | Ccdb_model.Op.Write -> !any_owner = -1 || !any_owner = e.txn
      in
      if (not e.granted) && grantable then begin
        e.granted <- true;
        newly := e :: !newly
      end;
      if !any_owner = -1 then any_owner := e.txn
      else if !any_owner <> e.txn then any_owner := -2;
      if Ccdb_model.Op.equal e.op Ccdb_model.Op.Write then
        if !write_owner = -1 then write_owner := e.txn
        else if !write_owner <> e.txn then write_owner := -2)
    queue;
  List.rev !newly

let release t ~txn ~attempt =
  match Lookup.Pair.find_opt t.index (txn, attempt) with
  | None -> None
  | Some entry ->
    Lookup.Pair.remove t.index (txn, attempt);
    (* the index held the oldest same-key entry, so any other one sits
       later in FCFS order: filtering the normalised queue front-to-back
       meets the replacement (the new oldest) first *)
    let replaced = ref false in
    t.front <-
      List.filter
        (fun e ->
          if e == entry then false
          else begin
            if (not !replaced) && e.txn = txn && e.attempt = attempt then begin
              Lookup.Pair.add t.index (txn, attempt) e;
              replaced := true
            end;
            true
          end)
        (normalize t);
    Some entry

let wipe_waiting t =
  let queue = normalize t in
  let kept, dropped = List.partition (fun e -> e.granted) queue in
  t.front <- kept;
  (* rebuild the index over the survivors: oldest same-key entry wins *)
  Lookup.Pair.reset t.index;
  List.iter
    (fun e ->
      if not (Lookup.Pair.mem t.index (e.txn, e.attempt)) then
        Lookup.Pair.add t.index (e.txn, e.attempt) e)
    kept;
  dropped

let entries t = normalize t

(* [f e.txn e'.txn] for each entry [e'] of another transaction before [e]
   in FCFS order that conflicts with it *)
let rec waits_on f (e : entry) = function
  | e' :: rest when e' != e ->
    if e'.txn <> e.txn && Ccdb_model.Op.conflicts e'.op e.op then
      f e.txn e'.txn;
    waits_on f e rest
  | _ -> ()

let rec waiters f queue = function
  | [] -> ()
  | e :: rest ->
    if not e.granted then waits_on f e queue;
    waiters f queue rest

let iter_waits_for t f =
  let queue = normalize t in
  waiters f queue queue

let holders t =
  List.filter_map
    (fun e -> if e.granted then Some (e.txn, e.op) else None)
    (normalize t)
