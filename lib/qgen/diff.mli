(** The differential fuzzing harness.

    Runs each generated query through every evaluator — the LevelHeaded
    engine under several configurations (serial and 4-domain, cost-based /
    naive / worst attribute orders, LogicBlox-like, unsorted emit, plan
    cache off, prepared), the pairwise hash-join baselines (pipelined and materializing) — and
    checks each row set against the brute-force {!Lh_baseline.Oracle}
    reference with {!Rows.diff} (float-tolerant, canonicalized order).

    On a mismatch the query is {!Shrink}ed against that evaluator to a
    minimal failing repro, and the discrepancy record carries both the
    original and the minimized SQL plus the [(seed, index)] pair that
    replays it.

    Counters under the [fuzz.*] prefix (queries per engine path,
    evaluations, discrepancies, shrink steps) are wired into {!Lh_obs};
    enable telemetry around {!run} to collect them. *)

type discrepancy = {
  d_seed : int;
  d_index : int;  (** replay: [run ~seed ~count:1] starting at this index *)
  d_shape : Gen.shape;
  d_evaluator : string;
  d_sql : string;  (** the generated query *)
  d_detail : string;  (** first differing row, or the exception raised *)
  d_min_sql : string;  (** shrunk repro *)
  d_min_relations : int;  (** FROM-list length of the shrunk repro *)
  d_shrink_steps : int;
}

type summary = {
  s_count : int;  (** queries generated and run *)
  s_evaluations : int;  (** evaluator runs (excludes the oracle) *)
  s_scan : int;
  s_wcoj : int;
  s_blas : int;  (** engine-path counts over the generated queries *)
  s_by_shape : (Gen.shape * int) list;
  s_discrepancies : discrepancy list;
}

val evaluator_names : inject_bug:bool -> string list

val run :
  ?progress:(int -> unit) ->
  ?inject_bug:bool ->
  ?layout_stress:bool ->
  ?first_index:int ->
  seed:int ->
  count:int ->
  Gen.spec ->
  summary
(** Builds the {!Dataset}, generates [count] queries for indices
    [first_index .. first_index + count - 1] (default 0) and runs the
    differential check on each. [inject_bug] adds a deliberately wrong
    evaluator (sign-flips every float) to demonstrate detection and
    shrinking. [layout_stress] builds the dataset with the sparse/dense
    crossover relations ([ls_d]/[ls_s]/[ls_m]) so generated joins cover
    every set-layout pair and the count-only leaves. [progress] is called
    with each finished index. *)

val discrepancy_to_string : discrepancy -> string
val summary_to_string : summary -> string
