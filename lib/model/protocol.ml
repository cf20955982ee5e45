type t = Two_pl | T_o | Pa

let all = [ Two_pl; T_o; Pa ]

let equal a b =
  match a, b with
  | Two_pl, Two_pl | T_o, T_o | Pa, Pa -> true
  | (Two_pl | T_o | Pa), _ -> false

let rank = function Two_pl -> 0 | T_o -> 1 | Pa -> 2
let compare a b = Int.compare (rank a) (rank b)

let counted tally =
  List.filter_map
    (fun p -> match tally.(rank p) with 0 -> None | n -> Some (p, n))
    all

let to_string = function Two_pl -> "2PL" | T_o -> "T/O" | Pa -> "PA"
let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  match String.lowercase_ascii s with
  | "2pl" | "two_pl" | "twopl" -> Some Two_pl
  | "to" | "t/o" | "t_o" | "tso" -> Some T_o
  | "pa" -> Some Pa
  | _ -> None
