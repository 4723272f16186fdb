(** A durable store directory: one WAL and installed checkpoint files.

    {v
      <dir>/wal.log           magic + framed records (see Wal)
      <dir>/ckpt-<seq>.lhc    installed checkpoints (see Checkpoint)
    v}

    Recovery ({!open_dir}) is one path, whatever the directory holds:
    + load the newest installed checkpoint that validates, skipping
      corrupt ones; with none, start from sequence 0 and no tables;
    + replay the WAL suffix: records with [seq <=] the checkpoint's are
      skipped; of records sharing a [seq] (a failed-then-retried append
      whose first frame survived) only the last — the acknowledged
      retry — is kept; replay stops at the first bad frame and the torn
      tail is truncated in place;
    + the writer resumes at the end of the last good frame and the next
      durable sequence number is one past the highest recovered.

    Recovery writes nothing but that truncation (and, in a fresh or
    unreadable WAL, its header). Any other file in the directory — a
    [.tmp] left by a torn checkpoint write, or a [MANIFEST] from an
    older build — is ignored.

    A checkpoint ({!checkpoint}) installs the file (temp + fsync +
    rename + directory fsync), resets the WAL to its header in place
    ({!Wal.reset}, which fires the [wal.reset] fault site and kill point
    first) and prunes older checkpoints. A crash or failure between any
    two steps recovers to the same state: the newest checkpoint plus
    whatever WAL records it does not cover.

    Acknowledgement contract: {!log_batch} returns only after the
    record has reached the OS (and the disk, under [Wal.Always]) — the
    caller may acknowledge the batch as soon as it returns. *)

type t

type recovered = {
  rc_tables : Checkpoint.table list;  (** from the winning checkpoint *)
  rc_batches : Wal.batch list;  (** WAL suffix, file order, deduped *)
  rc_seq : int;  (** highest durable sequence recovered, 0 if none *)
  rc_checkpoint_seq : int;  (** 0 when no checkpoint was loaded *)
  rc_torn : bool;  (** a torn WAL tail was truncated *)
}

val open_dir : ?sync:Wal.sync -> string -> t * recovered
(** Opens (creating if needed) the store at [dir] and runs recovery.
    [sync] defaults to {!Wal.default_sync}. *)

val replay_into :
  recovered ->
  (name:string -> schema:Lh_storage.Schema.t -> Lh_storage.Dtype.value list list -> unit) ->
  unit
(** Applies the recovered state in order: checkpoint tables first, then
    each WAL batch. With a register function whose semantics are
    whole-table replacement (the engine's), the result is exactly the
    state at the last durable sequence. *)

val log_batch :
  t -> name:string -> schema:Lh_storage.Schema.t -> Lh_storage.Dtype.value list list -> int
(** Appends one batch under the next sequence number and observes the
    writer's sync point; returns the sequence. *)

val checkpoint : t -> Checkpoint.table list -> unit
(** Snapshot [tables] at the current sequence, reset the WAL and prune
    older checkpoints. On failure the store stays usable: the next
    {!log_batch} appends to a writer that matches its file. *)

val close : t -> unit
(** fsync the WAL, then release its descriptor. Idempotent. *)

val dir : t -> string
val wal_path : t -> string
