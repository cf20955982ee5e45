type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable samples : float list;
  (* sorted cache, invalidated on add *)
  mutable sorted : float array option;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; sum = 0.; min_v = infinity; max_v = neg_infinity;
    samples = []; sorted = None }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  t.samples <- x :: t.samples;
  t.sorted <- None

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let min_value t =
  if t.n = 0 then invalid_arg "Stats.min_value: empty";
  t.min_v

let max_value t =
  if t.n = 0 then invalid_arg "Stats.max_value: empty";
  t.max_v

(* [compare x y < 0] on floats: nan sorts before everything else *)
let[@inline] lt (x : float) y = x < y || (x <> x && y = y)

(* In the ternary heap of [a.(0) .. a.(l - 1)], the greatest child of
   node [i], or -1 when [i] is a leaf. *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if lt a.(i31) a.(i31 + 1) then i31 + 1 else i31 in
    if lt a.(x) a.(i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && lt a.(i31) a.(i31 + 1) then i31 + 1
  else if i31 < l then i31
  else -1

(* [Array.sort]'s ternary heap sort, step for step, on unboxed floats: the
   same comparisons and moves, so ties (-0. and 0., nans) land where
   [Array.sort compare] puts them, without boxing a float per
   comparison. *)
let sort_floats (a : float array) =
  let l = Array.length a in
  for i0 = ((l + 1) / 3) - 1 downto 0 do
    (* trickle [a.(i0)] down *)
    let e = a.(i0) in
    let i = ref i0 and j = ref (maxson a l i0) in
    while !j >= 0 && lt e a.(!j) do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a l !i
    done;
    a.(!i) <- e
  done;
  for n = l - 1 downto 2 do
    let e = a.(n) in
    a.(n) <- a.(0);
    (* bubble the hole at the root down to a leaf ... *)
    let i = ref 0 and j = ref (maxson a n 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a n !i
    done;
    (* ... and trickle [e] up from there *)
    let placed = ref false in
    while not !placed do
      let father = (!i - 1) / 3 in
      if lt a.(father) e then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          placed := true
        end
      end
      else begin
        a.(!i) <- e;
        placed := true
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.samples in
    sort_floats a;
    t.sorted <- Some a;
    a

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let a = sorted t in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
  let idx = max 0 (min (t.n - 1) (rank - 1)) in
  a.(idx)

let merge a b =
  let t = create () in
  List.iter (add t) (List.rev a.samples);
  List.iter (add t) (List.rev b.samples);
  t

module Ci = struct
  let mean_ci95 xs =
    let n = Array.length xs in
    if n = 0 then (0., 0.)
    else begin
      let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
      if n < 2 then (mean, 0.)
      else begin
        let var =
          Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
          /. float_of_int (n - 1)
        in
        let halfwidth = 1.96 *. sqrt (var /. float_of_int n) in
        (mean, halfwidth)
      end
    end
end
