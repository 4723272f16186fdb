(** Concurrent-sessions fuzzer: the snapshot-consistency oracle.

    [run] stands up a {!Lh_serve.Serve} service over the pinned fuzzing
    dataset and drives it from [domains] reader domains — each issuing a
    mix of ad-hoc, one-shot-prepared and long-lived-prepared generated
    queries, and one that decodes the strings of [z_a] — while the main
    domain ingests fresh generations of [m_a] and of [z_a] (256 strings
    new to the shared dictionary, racing the readers' lookups and
    decodes) through the service, gated on reader progress so that
    queries and epoch publications genuinely interleave.

    Every query records the epoch id it actually ran under
    ({!Lh_serve.Serve.query_epoch}). Afterwards the harness rebuilds, for
    each observed epoch, a sequential oracle engine in the same state
    (same dataset build, same deterministic ingest sequence up to that
    epoch's generation) and replays every query against it, demanding a
    bit-identical result — the snapshot-isolation contract: a query
    observes exactly the catalog state of the epoch it pinned, never a
    torn mix, no matter what ingest published meanwhile.

    The run fails if any query errors, any replay differs, or fewer than
    two distinct epochs were observed (which would mean the interleaving
    never actually exercised a swap). *)

type failure = {
  f_domain : int;
  f_index : int;  (** generator index (replayable via {!Gen.generate}) *)
  f_kind : string;  (** [adhoc], [prepared], [persist], [ingest] or [coverage] *)
  f_sql : string;
  f_epoch : int;  (** epoch the query ran under; [-1] for non-query failures *)
  f_detail : string;
}

type summary = {
  c_domains : int;
  c_queries : int;  (** total queries completed across all sessions *)
  c_adhoc : int;
  c_prepared : int;  (** one-shot prepared (lifted literals, bound at exec) *)
  c_persist : int;  (** executions of the per-session long-lived statement *)
  c_ingests : int;  (** epochs published by the writer *)
  c_epochs_observed : int;  (** distinct epoch ids pinned by at least one query *)
  c_failures : failure list;
}

val run :
  ?progress:(string -> unit) ->
  seed:int ->
  domains:int ->
  per_domain:int ->
  ingests:int ->
  unit ->
  summary

val ok : summary -> bool
val to_text : summary -> string
