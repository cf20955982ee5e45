let sub_buckets = 16

type t = {
  mutable counts : int array; (* samples by bucket index, grown on demand *)
  mutable total : int;
}

let create () = { counts = [||]; total = 0 }

(* Bucket 0 is [0, 1); index 1 + 16*e + sub covers
   [2^e * (1 + sub/16), 2^e * (1 + (sub+1)/16)).  The layout is a pure
   function of the value, so two histograms always agree on it.  For
   v >= 1 the top 16 bits of the double are its sign (0), its exponent e
   biased by 1023, and the top four bits of its mantissa, which are sub;
   reading them allocates nothing. *)
let[@inline] index_of v =
  if v < 1. then 0
  else
    let top =
      Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 48)
    in
    1 + (sub_buckets * ((top lsr 4) - 1023)) + (top land (sub_buckets - 1))

let bounds idx =
  if idx = 0 then (0., 1.)
  else
    let e = (idx - 1) / sub_buckets in
    let sub = (idx - 1) mod sub_buckets in
    let edge s =
      Float.ldexp (1. +. (float_of_int s /. float_of_int sub_buckets)) e
    in
    (edge sub, edge (sub + 1))

(* the index of the largest finite double *)
let max_index = index_of Float.max_float

let grow t idx =
  let counts = Array.make (Int.max (idx + 1) (2 * Array.length t.counts)) 0 in
  Array.blit t.counts 0 counts 0 (Array.length t.counts);
  t.counts <- counts

let add t idx n =
  if idx >= Array.length t.counts then grow t idx;
  t.counts.(idx) <- t.counts.(idx) + n;
  t.total <- t.total + n

let[@inline] record t v =
  if not (Float.is_finite v) || v < 0. then
    invalid_arg "Histogram.record: negative or non-finite value";
  add t (index_of v) 1

let record_span t ~from ~until = record t (until -. from)

let count t = t.total

(* non-empty buckets, ascending: (index, count) *)
let sorted_buckets t =
  let acc = ref [] in
  for idx = Array.length t.counts - 1 downto 0 do
    if t.counts.(idx) > 0 then acc := (idx, t.counts.(idx)) :: !acc
  done;
  !acc

let percentile t p =
  if p < 0. || p > 100. then
    invalid_arg "Histogram.percentile: p outside [0, 100]";
  if t.total = 0 then Float.nan
  else begin
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.total)))
    in
    (* the cumulative count reaches [total] at the last non-empty bucket *)
    let rec walk idx seen =
      let seen = seen + t.counts.(idx) in
      if seen >= rank then snd (bounds idx) else walk (idx + 1) seen
    in
    walk 0 0
  end

let buckets t =
  List.map
    (fun (idx, n) ->
      let lo, hi = bounds idx in
      (idx, lo, hi, n))
    (sorted_buckets t)

let equal a b = sorted_buckets a = sorted_buckets b

let to_json t =
  let open Json in
  let percentiles =
    if t.total = 0 then []
    else
      [ ("p50", Num (percentile t 50.)); ("p90", Num (percentile t 90.));
        ("p99", Num (percentile t 99.)) ]
  in
  Obj
    (("count", Num (float_of_int t.total))
     :: percentiles
    @ [ ( "buckets",
          List
            (List.map
               (fun (idx, lo, hi, n) ->
                 Obj
                   [ ("bucket", Num (float_of_int idx)); ("lo", Num lo);
                     ("hi", Num hi); ("n", Num (float_of_int n)) ])
               (buckets t)) ) ])

let of_json j =
  let open Json in
  match Option.bind (member "buckets" j) to_list with
  | None -> Error "histogram: missing buckets list"
  | Some bs ->
    let t = create () in
    let rec load = function
      | [] -> Ok t
      | b :: rest -> (
        match
          ( Option.bind (member "bucket" b) to_float,
            Option.bind (member "n" b) to_float )
        with
        | Some idx, Some n
          when Float.is_integer idx && Float.is_integer n && idx >= 0.
               && idx <= float_of_int max_index && n > 0. ->
          add t (int_of_float idx) (int_of_float n);
          load rest
        | _ ->
          Error
            (Printf.sprintf
               "histogram: bucket entry needs integer bucket in [0, %d], n > 0"
               max_index))
    in
    load bs
