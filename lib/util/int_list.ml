let rec mem (x : int) = function
  | [] -> false
  | y :: rest -> x = y || mem x rest

let rec assoc_opt (x : int) = function
  | [] -> None
  | (k, v) :: rest -> if k = x then Some v else assoc_opt x rest

let rec mem_assoc (x : int) = function
  | [] -> false
  | (k, _) :: rest -> k = x || mem_assoc x rest

let rec remove_assoc (x : int) = function
  | [] -> []
  | ((k, _) as pair) :: rest ->
    if k = x then rest else pair :: remove_assoc x rest

let rec mem_pair ((a, b) as p : int * int) = function
  | [] -> false
  | (x, y) :: rest -> (x = a && y = b) || mem_pair p rest

let remove_pair ((a, b) : int * int) l =
  List.filter (fun (x, y) -> not (x = a && y = b)) l
