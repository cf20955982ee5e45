(** [List.mem], [List.assoc_opt], [List.mem_assoc] and [List.remove_assoc]
    specialised to int keys: the same results (first match wins), compared
    inline instead of through the polymorphic compare. *)

val mem : int -> int list -> bool
val assoc_opt : int -> (int * 'a) list -> 'a option
val mem_assoc : int -> (int * 'a) list -> bool
val remove_assoc : int -> (int * 'a) list -> (int * 'a) list

val mem_pair : int * int -> (int * int) list -> bool
(** [List.mem] on int pairs, such as [(item, site)] copies. *)

val remove_pair : int * int -> (int * int) list -> (int * int) list
(** Drops every occurrence of the pair. *)
