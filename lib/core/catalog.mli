(** Table registry of one engine instance: an immutable name → table map
    over one string dictionary, so string equi-joins compare int codes. A
    catalog is a value: an epoch snapshot holds one as it is, sharing every
    table (and its indexes) with the engine it came from. *)

type t

val create : unit -> t

val dict : t -> Lh_storage.Dict.t

val register : t -> Lh_storage.Table.t -> t
(** The catalog with the table bound to its name, replacing any previous
    table of that name. Raises [Failure] when the table was built against
    a different dictionary. *)

val find : t -> string -> Lh_storage.Table.t option
val find_exn : t -> string -> Lh_storage.Table.t
val names : t -> string list

val tables : t -> Lh_storage.Table.t list
(** Every registered table, in {!names} (sorted) order — the
    deterministic enumeration the durable checkpoint writer snapshots. *)
