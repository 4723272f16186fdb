(** Append-only write-ahead log of ingest batches.

    File layout: an 8-byte magic header ({!magic}) followed by framed
    records. Each record is [u32 len ++ u32 crc ++ payload] (all
    little-endian); [crc] is CRC-32 ({!Crc32}) of the payload. The
    payload serializes one {!batch}: durable sequence number, relation
    name, schema, and the full row set (values carry a 1-byte tag, so a
    frame is self-describing and replay never consults the catalog).

    Durability discipline ({!sync}): [Always] fsyncs after every append
    (power-safe); [Group n] fsyncs every [n] appends (kill-safe — the
    [write(2)] has reached the page cache before the ack, so a SIGKILL
    of the process loses nothing, only a machine crash can); [Never]
    leaves syncing to the OS. The default comes from [LH_WAL_SYNC]
    ([always] | [group] | [group:N] | [none]).

    Replay walks frames until end-of-file or the first bad frame —
    short header, impossible length, zero-length tail (preallocated
    blocks), CRC mismatch, or undecodable payload — and reports the
    byte offset of the last good frame so the caller can truncate the
    torn tail. A torn tail is an expected crash artifact, never fatal.

    Fault sites: [wal.append] (before a frame is written), [wal.fsync]
    (before fsync), [wal.replay] (per frame during replay), [wal.reset]
    (before a checkpoint truncates the log). Kill points (see {!Kill})
    share those names. *)

type sync = Always | Group of int | Never

val sync_of_string : string -> (sync, string) result

val default_sync : unit -> sync
(** From [LH_WAL_SYNC]; [Group 8] when unset or unparsable. *)

type batch = {
  b_seq : int;  (** durable sequence number, 1-based, monotone *)
  b_name : string;
  b_schema : Lh_storage.Schema.t;
  b_rows : Lh_storage.Dtype.value list list;
}

val magic : string
val header_len : int
val frame_header_len : int

(** {1 Record codec} — exposed for the property tests. *)

val encode_payload : batch -> string
val decode_payload : string -> (batch, string) result
val frame : string -> string
(** [frame payload] = [len ++ crc ++ payload]. *)

val read_frame : string -> int -> (string * int) option
(** [read_frame data off] reads the frame at byte [off] of a whole-file
    read: [Some (payload, next_off)] when its header, length and CRC are
    all good; [None] on a short header, a zero or overlong length, or a
    checksum mismatch. Shared by {!replay} and [Checkpoint.load]. *)

val read_file : string -> string option
(** The whole file, or [None] when it cannot be read. *)

val write_all : Unix.file_descr -> string -> unit

(** {1 Writer} *)

type writer

val open_at : path:string -> sync:sync -> valid_len:int -> writer
(** Opens (creating if missing) a log, truncates it to [valid_len]
    (dropping any torn tail found by {!replay}; [header_len] empties it)
    and positions the writer there. A
    missing, short or bad-magic header (the empty-and-torn replay case)
    rewrites the file to a fresh header first — frames are never
    appended after garbage that replay would refuse to walk. *)

val append : writer -> batch -> unit
(** Write one frame, then observe the sync point per the writer's
    {!sync} mode. On any failure — a torn write {e or} a failed sync
    point — the file is truncated back to the last good offset
    (best-effort) before the exception escapes: a failed append leaves
    neither a torn middle nor a complete frame that the caller regards
    as unacknowledged (callers reuse the sequence number on retry). *)

val reset : writer -> unit
(** Truncates the log to its header in place, after a checkpoint has
    superseded every frame in it, then observes the sync point (fsync
    unless [Never]). The writer's offset moves to the header before the
    truncate, so it matches the file and stays usable even when the
    truncate or the fsync fails. Raises on a closed writer. *)

val close : writer -> unit
(** fsync regardless of mode, then close the descriptor. Idempotent. *)

val tell : writer -> int
(** Byte offset of the end of the last complete frame. *)

(** {1 Replay} *)

type replayed = {
  r_batches : batch list;  (** in file order *)
  r_valid_len : int;  (** offset just past the last good frame *)
  r_torn : bool;  (** a bad tail was detected after [r_valid_len] *)
}

val replay : string -> replayed
(** A missing file replays as empty ([r_valid_len = header_len] so a
    subsequent {!open_at} recreates it); a file with a corrupt magic
    header replays as empty-and-torn. *)

(** {1 Test helpers} *)

val append_torn : writer -> batch -> keep:int -> unit
(** Writes only the first [keep] bytes of the frame — a deterministic
    torn write, used by the adversarial corpus and the bench smoke. *)

val corrupt_byte : path:string -> off:int -> unit
(** XOR-flips one byte in place (checksum-corruption corpus). *)
