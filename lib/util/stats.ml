(* the count is a float too, so the record is all floats and stored flat *)
type t = { mutable n : float; mutable mean : float }

let create () = { n = 0.; mean = 0. }

let[@inline] add t x =
  t.n <- t.n +. 1.;
  t.mean <- t.mean +. ((x -. t.mean) /. t.n)

let add_span t ~from ~until = add t (until -. from)
let count t = int_of_float t.n
let mean t = t.mean
