include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = Hashtbl.hash k
end)
