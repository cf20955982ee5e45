include Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (a', b') = a = a' && b = b'
  let hash (k : t) = Hashtbl.hash k
end)
