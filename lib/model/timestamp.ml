type t = int

let compare = Int.compare

let backoff_interval = 8

let backoff ~ts ~floor =
  if ts > floor then ts + backoff_interval
  else
    (* smallest k >= 1 with ts + k * backoff_interval > floor *)
    let k = ((floor - ts) / backoff_interval) + 1 in
    ts + (k * backoff_interval)

module Source = struct
  type nonrec t = { mutable counter : int }

  let create () = { counter = 0 }

  let next src =
    src.counter <- src.counter + 1;
    src.counter

  let current src = src.counter
end
