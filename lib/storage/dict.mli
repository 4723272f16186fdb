(** Shared string dictionary.

    All string attributes of one engine instance are encoded against a
    single pool so that equi-joins and cross-relation comparisons on string
    columns compare plain int codes. Codes are assigned in first-seen order,
    so they are not order-preserving: range predicates on strings are
    rejected upstream (none of the paper's workloads use them).

    {2 Concurrency}

    Append-only: a code names one string forever. One writer (the caller
    of {!encode}) runs beside any number of reader domains ({!find},
    {!decode}, {!size}), so the writer and every epoch snapshot share one
    dictionary. The writer's lookup of a present string takes no lock;
    interning and {!find} exclude each other through one mutex; {!decode}
    never locks and never sees an unfilled slot.

    A reader may find a string interned after its snapshot. That code is
    held by no row of the snapshot's tables, so it matches no row, exactly
    as [None] would; the tables' memoized indexes rely on this too. *)

type t

val create : unit -> t

val encode : t -> string -> int
(** Returns the existing code or assigns the next one. Writer only. *)

val find : t -> string -> int option
(** Lookup without inserting; safe from any domain. *)

val merge_into : into:t -> t -> int array
(** [merge_into ~into local] encodes every string of [local] into [into] in
    [local]-code order and returns the remap: local code [c] becomes [into]
    code [remap.(c)]. Because local codes are themselves first-seen order,
    folding per-chunk dictionaries into a shared one in chunk order assigns
    exactly the codes a sequential scan of the concatenated chunks would
    have — the keystone of the parallel ingest's determinism. *)

val decode : t -> int -> string
(** Safe from any domain. Raises [Invalid_argument] for an unknown code. *)

val size : t -> int
