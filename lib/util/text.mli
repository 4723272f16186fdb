(** String helpers shared by the bench and the tests. *)

val contains : sub:string -> string -> bool
(** [contains ~sub s] is [true] iff [sub] occurs in [s]; the empty string
    occurs everywhere. *)
