module Int = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = k
end)

module Pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (a', b') = a = a' && b = b'
  let hash ((a, b) : t) = (a * 65599) + b
end)

module Triple = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((a, b, c) : t) (a', b', c') = a = a' && b = b' && c = c'
  let hash ((a, b, c) : t) = (((a * 65599) + b) * 65599) + c
end)
