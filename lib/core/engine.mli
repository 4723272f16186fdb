(** The LevelHeaded engine: the public entry point of this library.

    {[
      let eng = Engine.create () in
      let matrix = Lh_storage.Schema.create [ ("i", Int, Key); ("j", Int, Key); ("v", Float, Annotation) ] in
      let _ = Engine.load_csv eng ~name:"m" ~schema:matrix "matrix.csv" in
      (* one-shot *)
      let result = Engine.query eng
        "select m1.i, m2.j, sum(m1.v * m2.v) as v from m m1, m m2 where m1.j = m2.i group by m1.i, m2.j" in
      (* plan once, execute many: *)
      let stmt = Engine.prepare eng
        "select count(*) as n from m m1, m m2 where m1.j = m2.i and m1.v > $1" in
      List.iter
        (fun threshold ->
          let r = Engine.Stmt.exec stmt [ Lh_storage.Dtype.VFloat threshold ] in
          ignore r)
        [ 0.1; 0.5; 0.9 ]
    ]}

    A query runs through: SQL parse → hypergraph translation (§IV-A) →
    either the scan path (no join keys), the BLAS path (dense LA kernels,
    §III-D), or GHD selection (§IV-B) + cost-based attribute ordering (§V)
    + the generic WCOJ interpreter. The result is an ordinary table
    registered against the same catalog, so results can be queried again
    (e.g. a matrix product fed into another multiplication).

    {2 Plan cache}

    Behind {!query}, literals are hoisted out of the AST
    ({!Lh_sql.Normalize.lift_literals}) and the parameterized plan — parse,
    hypergraph, GHD, attribute order — is cached keyed on the normalized
    AST, LRU-bounded by [Config.plan_cache_capacity]. With capacity [0],
    plans are built per query and never cached; the query still takes the
    same normalize → plan → bind → execute path. Repeating a query shape with different constants only re-binds the
    constants; selectivity-dependent choices (BLAS-vs-WCOJ dispatch,
    equality-selection weights) are re-checked cheaply at bind time.
    A plan stays valid while the catalog maps every table it bound to the
    {e same} value ([==]) and the plan-shaping knobs (see {!set_config})
    are unchanged; otherwise its next use re-plans it in place, and a
    stale cache entry counts as a [plan_cache.miss], so a {!register}
    re-plans only the plans that read the replaced table. Hits, misses and
    evictions are the [plan_cache.*] counters. Tries and dense shapes are
    memoized on the table value ({!Lh_storage.Table.trie}). *)

type t

(** Typed query failures. {!query_result} returns these; the raising entry
    points throw them wrapped in the {!Error} exception. *)
module Error : sig
  type t =
    | Parse_error of string  (** lexer or parser rejection *)
    | Unsupported of string  (** outside the supported subset (§III) *)
    | Unknown_table of string
    | Unknown_column of string
    | Budget_exceeded  (** memory or time budget hit mid-execution *)
    | Semantic of string
        (** anything else wrong with the statement: parameter arity or
            numbering, parameters in an unprepared query, execution-time
            semantic failures *)
    | Fault_injected of string
        (** an armed {!Lh_fault.Fault} site fired; the payload names the
            site. Only ever seen under fault injection (tests, the
            [lhfuzz --inject-fault] harness); the engine remains fully
            usable afterwards — re-running the same query must succeed. *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

exception Error of Error.t

val error_of_exn : exn -> Error.t
(** The engine's failure classifier, made total: the mapping every
    result-typed entry point and every profile outcome reads. Budget
    exceptions become [Budget_exceeded]; an exception the engine does not
    recognize becomes [Semantic] with its printed form. *)

type path = Scan_path | Wcoj_path | Blas_path

type explain = {
  epath : path;
  efhw : float option;  (** fractional hypertree width of the chosen GHD *)
  etext : string;  (** human-readable plan: hypergraph, GHD, attribute orders *)
}

val create : ?config:Config.t -> unit -> t
val config : t -> Config.t

val set_config : t -> Config.t -> unit
(** Swap the configuration. Bumps {!epoch} iff a plan-shaping knob
    changed: [attribute_elimination], [attr_order],
    [relax_materialized_first] or [ghd_heuristics]. A plan made under
    other values of these knobs re-plans on its next use; nothing is
    flushed. *)

val catalog : t -> Catalog.t

val register : t -> Lh_storage.Table.t -> unit
val register_rows : t -> name:string -> schema:Lh_storage.Schema.t -> Lh_storage.Dtype.value list list -> Lh_storage.Table.t
val load_csv : t -> name:string -> schema:Lh_storage.Schema.t -> ?sep:char -> string -> Lh_storage.Table.t
val dict : t -> Lh_storage.Dict.t

val dump : t -> (string * Lh_storage.Schema.t * Lh_storage.Dtype.value list list) list
(** Every relation decoded back to rows, in sorted-name order — the
    checkpoint writer's input (see [Lh_durable.Store.checkpoint]).
    Recovery replays a checkpoint and its WAL suffix through
    [Lh_durable.Store.replay_into] with {!register_rows} (whole-table
    replacement), landing on the state at the last durable sequence. *)

(** {2 Snapshots}

    A snapshot is the engine's catalog value at one epoch. Tables are
    immutable and the dictionary is append-only and shared
    ({!Lh_storage.Dict}), so it copies nothing and holds the engine's own
    table values and indexes. A view engine ({!of_snapshot}) queries it
    from another domain while the engine keeps ingesting. This is the
    storage half of the serving layer's epoch-pinned reads ([Lh_serve]). *)

type snapshot

val epoch : t -> int
(** Generation number naming epochs: bumped by {!register} /
    {!register_rows} / {!load_csv} and by {!set_config} when a
    plan-shaping knob changes. Plans do not depend on it. *)

val snapshot : t -> snapshot
(** The current catalog. O(1). *)

val snapshot_epoch : snapshot -> int
(** The {!epoch} the snapshot was taken at. *)

val set_snapshot : t -> snapshot -> unit
(** Point a view engine at another snapshot of the same engine: its
    catalog and {!epoch} become the snapshot's. Its configuration, cached
    plans and prepared statements stay; a plan that read a table the
    snapshot replaced re-plans on its next use. O(1). *)

val of_snapshot : ?config:Config.t -> snapshot -> t
(** {!create} then {!set_snapshot}: a view engine with a private plan
    cache and a cloned budget ({!Lh_util.Budget.clone}). Views may query
    concurrently; do not ingest into a view (the dictionary has one
    writer). [config] defaults to the engine's at the snapshot. *)

val query_result : t -> string -> (Lh_storage.Table.t, Error.t) result
(** The canonical one-shot entry point: parse and execute; the result
    table is named ["result"] (not registered). Every failure mode is a
    typed {!Error.t}; budget overruns (memory or time) map to
    [Error Budget_exceeded]. *)

val query : t -> string -> Lh_storage.Table.t
(** Raising wrapper over {!query_result}, kept for callers that prefer
    exceptions: raises {!Error} for everything wrong with the statement
    itself (see {!module-Error}), and lets the {!Lh_util.Budget}
    exceptions pass through raw so callers can tell OOM from timeout.
    [test/test_fuzz.ml] holds the engine to exactly this contract. New
    code should prefer {!query_result}. *)

val semirings : unit -> string list
(** The names registered in the {!Semiring} registry, sorted — exactly
    the names [agg('<name>', expr)] accepts in SQL and
    {!iterate}'s [Accumulate] accepts as a merge operator. Extend the set
    with {!Semiring.register} before translating queries that use it. *)

val query_into : t -> name:string -> string -> Lh_storage.Table.t
(** Like {!query} but names the result table [name] and registers it in
    the catalog so later queries can read it. Only plans that read an
    earlier table of that name re-plan. *)

val query_analyze : t -> string -> Lh_storage.Table.t * explain * Lh_obs.Report.t
(** [EXPLAIN ANALYZE]: runs the query with telemetry enabled for exactly
    that run (the previous enabled state is restored afterwards) and
    returns the result, the plan, and a telemetry report — per-phase
    span tree, counter deltas (trie-cache hits/misses, intersections,
    rows emitted, …) and gauges. Render with {!Lh_obs.Report.to_text},
    {!Lh_obs.Report.metrics_json} or {!Lh_obs.Report.chrome_trace}. *)

val explain : t -> string -> explain
(** The plan {!query} would run, without the execution: the same parse,
    plan-cache lookup and bind, so the reported path (BLAS/WCOJ/scan) is
    the one a query would take. *)

(** {2 Prepared statements} *)

type stmt
(** A statement prepared against one engine: parsed, translated to a
    hypergraph, GHD-decomposed and attribute-ordered exactly once.
    Executing it only binds parameter values (re-checking the cheap
    selectivity-dependent decisions) and runs. A statement survives
    catalog and config changes: it transparently re-plans when a table it
    read was replaced or a plan-shaping knob changed, and only then. *)

val prepare : t -> string -> stmt
(** Parse and plan a parameterized statement. Parameters are written
    [$1], [$2], … (or [?], numbered left to right; the two styles cannot
    be mixed) and may appear wherever a literal may. Indices must be
    contiguous from [$1]. Raises {!Error} like {!query}. *)

val prepare_result : t -> string -> (stmt, Error.t) result
(** Non-raising variant of {!prepare}: the canonical form for callers on
    the result-typed API. *)

module Stmt : sig
  val sql : stmt -> string
  (** The source text. *)

  val nparams : stmt -> int

  val exec_result :
    ?name:string -> stmt -> Lh_storage.Dtype.value list -> (Lh_storage.Table.t, Error.t) result
  (** The canonical prepared-execution entry point: bind the parameter
      values (positionally: the i-th value binds [$i]) and execute.
      Arity mismatches surface as [Error (Semantic _)]; budget overruns
      as [Error Budget_exceeded]. [name] names the result table (default
      ["result"]; the result is not registered). *)

  val exec : ?name:string -> stmt -> Lh_storage.Dtype.value list -> Lh_storage.Table.t
  (** Raising wrapper over {!exec_result}: raises {!Error} ([Semantic])
      on arity mismatch and lets budget exceptions pass through raw,
      mirroring {!val:query}. New code should prefer {!exec_result}. *)

  val exec_analyze :
    ?name:string -> stmt -> Lh_storage.Dtype.value list -> Lh_storage.Table.t * Lh_obs.Report.t
  (** {!exec} with telemetry, like {!query_analyze}. The report's span
      tree shows [bind] instead of [translate]/[plan]: no planning
      happens on a prepared execution. *)
end

val reset_plan_cache : t -> unit
(** Drop every cached plan (counters are untouched). Prepared statements
    are unaffected. Meant for benchmarks that measure cold planning. *)

(** {2 Iterative queries}

    Semiring aggregates make one WCOJ pass compute a relaxation step
    (min-plus SpMV for shortest paths, boolean SpMV for reachability, a
    plain SpMV for power iteration); {!iterate} drives the fixpoint loop
    around it, reusing the engine's own SpMV machinery each round. *)

type merge =
  | Replace  (** the step result becomes the new state (power iteration) *)
  | Accumulate of string
      (** named semiring: key-wise ⊕-merge of the step result into the
          carried state — ["min_plus"] for Bellman-Ford style relaxation,
          ["bool_or_and"] for BFS frontiers. Unknown names are a
          [Semantic] error listing {!semirings}. *)

val iterate :
  ?max_rounds:int ->
  ?tolerance:float ->
  ?merge:merge ->
  t ->
  name:string ->
  init:string ->
  step:string ->
  Lh_storage.Table.t * int
(** [iterate t ~name ~init ~step] registers the result of [init] as
    [name], then repeatedly executes [step] (a query reading [name],
    prepared once and re-executed per round) and merges its rows into the
    state per [merge] (default [Replace]), re-registering [name] after
    every round. Rows are keyed by the state's [Schema.Key] columns; the
    loop stops when the largest per-cell movement is at most [tolerance]
    (default [0.]; a key appearing or disappearing counts as infinite
    movement) or after [max_rounds] (default [100]) rounds. Returns the
    fixpoint table and the number of [step] executions. The state table
    stays registered under [name] afterwards. Raises like {!query}. *)

(** {2 Per-query profiles}

    When telemetry is enabled ({!Lh_obs.Obs.set_enabled}, or implicitly
    inside {!query_analyze} / {!Stmt.exec_analyze}), every query entry
    point assembles one {!Profile.t} — for successes and for every
    failure mode — and records the end-to-end latency in the
    ["query.latency"] histogram plus the per-phase histograms
    (["phase.parse"], ["phase.plan"], ["phase.bind"],
    ["phase.trie_build"], ["phase.wcoj"], ["phase.blas"], …). When
    telemetry is disabled, the profile machinery costs one atomic load
    per query. *)

val last_profile : t -> Profile.t option
(** The profile of the most recent query execution on this engine, if
    any was recorded (i.e. telemetry was enabled during it). *)

val set_profile_sink : t -> (Profile.t -> unit) option -> unit
(** Install (or clear) the slow-query sink: profiles of queries whose
    end-to-end latency is at least [Config.slow_log_ms] milliseconds are
    passed to the sink — failures included. Serialize with
    {!Profile.to_string} for a JSONL slow-query log. The sink runs on
    the querying thread; keep it cheap and don't query the engine from
    inside it. *)
