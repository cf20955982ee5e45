type origin =
  | Timestamped of { site : int; txn : int }
  | Queue_local of { arrival : int }

type t = { ts : Timestamp.t; origin : origin }

let timestamped ~ts ~site ~txn = { ts; origin = Timestamped { site; txn } }
let queue_local ~ts ~arrival = { ts; origin = Queue_local { arrival } }

let compare a b =
  let c = Timestamp.compare a.ts b.ts in
  if c <> 0 then c
  else
    match a.origin, b.origin with
    (* Rule 2: a 2PL transaction has the biggest site id. *)
    | Timestamped _, Queue_local _ -> -1
    | Queue_local _, Timestamped _ -> 1
    (* Rule 3, both 2PL: arrival order at the data queue. *)
    | Queue_local { arrival = x }, Queue_local { arrival = y } ->
      Int.compare x y
    (* Rule 2 then rule 3, both timestamped: site id, then transaction id. *)
    | Timestamped { site = sa; txn = ta }, Timestamped { site = sb; txn = tb } ->
      let c = Int.compare sa sb in
      if c <> 0 then c else Int.compare ta tb

let is_two_pl t =
  match t.origin with Queue_local _ -> true | Timestamped _ -> false

let pp ppf t =
  match t.origin with
  | Timestamped { site; txn } ->
    Format.fprintf ppf "ts:%d@@s%d/t%d" t.ts site txn
  | Queue_local { arrival } -> Format.fprintf ppf "ts:%d@@q#%d" t.ts arrival
