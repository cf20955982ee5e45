type t = int

let compare = Int.compare
let pp = Format.pp_print_int

module Tuple = struct
  type nonrec t = { ts : t; interval : int }

  let backoff_interval = 8

  let make ~ts ~interval =
    if interval <= 0 then invalid_arg "Timestamp.Tuple.make: interval <= 0";
    { ts; interval }

  let backoff { ts; interval } ~floor =
    if ts > floor then ts + interval
    else begin
      (* smallest k >= 1 with ts + k * interval > floor *)
      let gap = floor - ts in
      let k = (gap / interval) + 1 in
      ts + (k * interval)
    end
end

module Source = struct
  type nonrec t = { mutable counter : int }

  let create () = { counter = 0 }

  let next src =
    src.counter <- src.counter + 1;
    src.counter

  let advance_past src ts = if src.counter < ts then src.counter <- ts

  let current src = src.counter
end
