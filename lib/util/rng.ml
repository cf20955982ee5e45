(* The state is one int64 held unboxed in 8 bytes, so advancing it
   allocates nothing; [next] and [mix] are inlined into each draw, which
   keeps the intermediate values unboxed too. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

(* SplitMix64 finalizer (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (next t)

let copy t = Bytes.copy t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (next t) mask) in
  v mod bound

let[@inline] float t bound =
  (* 53 random bits mapped to [0, 1), scaled. *)
  let bits = Int64.shift_right_logical (next t) 11 in
  let unit = Int64.to_float bits *. (1.0 /. 9007199254740992.0) in
  unit *. bound

let bool t = Int64.logand (next t) 1L = 1L

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -. mean *. log u

let uniform_in t ~lo ~hi = lo +. float t (hi -. lo)

let zipf_sampler ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf_sampler: n must be positive";
  if theta < 0. then invalid_arg "Rng.zipf_sampler: theta must be >= 0";
  let weights = Array.init n (fun i -> 1.0 /. ((float_of_int (i + 1)) ** theta)) in
  let cdf = Array.make n 0.0 in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cdf.(i) <- !acc /. total)
    weights;
  fun t ->
    let u = float t 1.0 in
    (* binary search for the first index with cdf.(i) >= u *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (n - 1)

let sample_distinct t ~n ~universe =
  if n < 0 || n > universe then
    invalid_arg "Rng.sample_distinct: need 0 <= n <= universe";
  (* Floyd's algorithm: O(n) expected draws, no O(universe) allocation. *)
  let module Iset = Set.Make (Int) in
  let rec fill chosen j =
    if j >= universe then chosen
    else
      let r = int t (j + 1) in
      let chosen = if Iset.mem r chosen then Iset.add j chosen else Iset.add r chosen in
      fill chosen (j + 1)
  in
  let chosen = fill Iset.empty (universe - n) in
  Iset.elements chosen
