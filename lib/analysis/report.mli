(** Structured result of one analyzer run. *)

type t

val make : events_scanned:int -> Finding.t list -> t
(** Sorts findings: errors first, then by event index. *)

val findings : t -> Finding.t list
val events_scanned : t -> int
val errors : t -> Finding.t list

val is_clean : t -> bool
(** No [Error]-severity findings ([Warning]/[Info] may be present). *)

val summary : t -> string
(** One line: events scanned and finding counts. *)

val pp : Format.formatter -> t -> unit
(** Summary line followed by one line per finding. *)
