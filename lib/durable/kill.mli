(** Deterministic crash-point simulation for the kill-and-restart
    harness: [LH_KILL=site[:nth=N][:torn=K]] makes the process SIGKILL
    {e itself} at the [N]th hit of the named durable-I/O kill point
    (default [nth=1]). The site may be a glob ([Fault.glob_match]
    semantics). [torn=K] asks the site to perform the first [K] bytes of
    its write before dying — a torn-write simulation; without it the
    site dies before writing anything.

    This deliberately mirrors [Fault]/[LH_FAULT] but lives below it in
    spirit: a fired fault site raises (in-process crash-only recovery);
    a fired kill point terminates the process with SIGKILL so the
    restart path is exercised for real. Kill points share names with the
    durable fault sites ([wal.append], [wal.fsync], [wal.replay],
    [wal.reset], [checkpoint.write], [checkpoint.load]). *)

type spec = { k_site : string; k_nth : int; k_torn : int }

val parse : string -> (spec, string) result
(** Parses an [LH_KILL]-syntax spec. *)

val armed : unit -> spec option
(** The process-wide spec from [LH_KILL], read once. *)

val probe : string -> int option
(** [probe site] counts a hit when the armed spec matches [site] and
    returns [Some torn_bytes] on the firing hit. The caller performs the
    partial write it describes, then calls {!now}. *)

val now : unit -> 'a
(** SIGKILL the current process. Never returns. *)
