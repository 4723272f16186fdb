(** Checkpoint files: a full snapshot of every relation's rows at one
    durable sequence number, written install-on-success (temp + fsync +
    rename + directory fsync) so a crash mid-write never produces a
    half-installed file.

    File layout: magic ["LHCKPT01"], one framed header record carrying
    the sequence number and table count, then one framed {!Wal.batch}
    record per table (same codec and CRC framing as the WAL, each
    batch's [b_seq] set to the checkpoint's). A load validates every
    frame with the WAL's frame reader ({!Wal.read_frame}); any
    corruption invalidates the whole file and the store falls back to
    the next-newest valid checkpoint.

    Fault sites: [checkpoint.write] (before the temp file is written,
    torn kill point mid-file), [checkpoint.load] (before a file is
    read, short-read kill point). *)

type table = string * Lh_storage.Schema.t * Lh_storage.Dtype.value list list

val filename : seq:int -> string
(** [ckpt-%012d.lhc]. *)

val seq_of_filename : string -> int option
(** Inverse of {!filename}, accepting any digit width — [%012d] pads
    but does not cap, so names widen past sequence [10{^12}]. *)

val write : dir:string -> seq:int -> table list -> unit
(** Writes and installs [ckpt-<seq>.lhc] in [dir]. Raises on I/O
    failure (the temp file is removed best-effort; nothing is
    installed). *)

val load : string -> (int * table list, string) result
(** Full-path load; [Ok (seq, tables)] only if every frame validates. *)

val scan : dir:string -> (int * string) list
(** Installed checkpoint basenames, newest (highest seq) first. *)

val truncate_file : path:string -> len:int -> unit
(** Test helper: short-read / torn-file simulation. *)
