(** Seeded crash-only recovery harness over the fault-injection registry.

    Every registered {!Lh_fault.Fault} site has a scenario that supplies a
    fixture, a step that reaches the site — a fuzzer-generated or pinned
    query, a direct kernel call, a CSV ingest, a service request, a
    durable ingest or a store recovery — and its post-fault checks. One
    driver, {!trial}, runs the crash-only protocol for every scenario,
    once per fault kind (generic, timeout, OOM) — for the durable and
    recovery scenarios, once per hit their step makes — and asserts:

    + the armed fault fires deterministically and surfaces as the typed
      error the engine contract promises ([Fault_injected] for generic
      faults, [Budget_exceeded] for timeout/OOM kinds) — never a crash,
      hang, or silent success;
    + whatever absorbed the fault (engine, pool, kernel state, service,
      store directory) is immediately reusable: the scenario's recovery
      check, run once the site is disarmed, answers bit-identically to an
      oracle engine holding only the acknowledged state.

    Every site must be covered: a registered site with no scenario, or a
    scenario whose workload cannot reach its site, is a failure — the
    harness is the executable inventory of the fault surface. Sites that
    are unreachable {e by construction} under the current configuration
    (e.g. ["pool.chunk"] at [domains = 1]) are excused, and covered by the
    [LH_DOMAINS=4] CI leg instead. The [test.*] name prefix is reserved
    for the registry's own unit tests and exempt from coverage.

    The harness is deterministic per [seed]: it generates queries with
    {!Gen.generate} over the pinned {!Dataset}, so a failing [(site,
    seed)] pair replays exactly. Wired into [lhfuzz --inject-fault] and
    the fault-injection legs of [ci.sh]. *)

type outcome =
  | Passed
  | Excused of string  (** unreachable by construction under this config *)
  | Failed of string

type site_report = { sr_site : string; sr_outcome : outcome }

type summary = {
  s_seed : int;
  s_sites : site_report list;  (** one report per registered site *)
}

val trial :
  ?trigger:Lh_fault.Fault.trigger ->
  ?release:('f -> unit) ->
  site:string ->
  fixture:(unit -> 'f) ->
  step:('f -> ('a, Lh_serve.Serve.error) result) ->
  check:(Lh_fault.Fault.kind -> 'f -> (unit, string) result) ->
  unit ->
  outcome option
(** The crash-only protocol at [site], once per fault kind (generic,
    timeout, OOM, in that order): build a fresh [fixture ()], arm the site
    with [trigger] (default [Nth 1]), run [step], disarm, and classify —
    the step succeeded despite the firing fault, the site was never
    reached, the step failed with the wrong error (a {!Lh_serve.Serve}
    error that is not the kind's [Engine_error]), or it failed with the
    expected typed error, in which case [check kind fixture] must pass.
    [release] (default a no-op) disposes of each fixture. An exception
    escaping [step] is a failure: a step whose contract is to raise must
    map its exception to an error itself.

    [None] when the first (generic) kind never reached the site — a query
    search then tries its next candidate; later kinds must reach it.
    Otherwise [Some Passed], or [Some (Failed m)] with [m] naming the
    kind. Leaves the fault registry disarmed. *)

val run :
  ?progress:(string -> unit) -> ?attempts:int -> ?site:string -> seed:int -> unit -> summary
(** Run every scenario. [attempts] (default 40) bounds the per-site search
    for a generated query that reaches the site. [site] is a glob pattern
    (see {!Lh_fault.Fault.glob_match}) restricting the run to matching
    sites — the repro loop behind [lhfuzz --inject-fault --site]; the
    uncovered-site coverage check is restricted the same way. [progress]
    is called with a short line as each site starts. Leaves the fault
    registry disarmed. *)

val run_kill : ?progress:(string -> unit) -> ?count:int -> seed:int -> unit -> summary
(** Kill-and-restart harness: spawns a real [lhserve] child on a
    temporary [--data-dir], streams [count] deterministic ingest batches
    (default [LH_KILL_COUNT], else 6; at least 4, the shortest schedule
    that reaches every kill point), SIGKILLs it at an [LH_KILL]-selected
    point — every durable fault site, as both a pre-write kill and a
    deterministic torn write, plus kills {e during} a restart's own
    recovery — then restarts on the same directory and asserts every
    {e acknowledged} batch is query-visible and bit-identical to a
    sequential oracle rebuilt from the ack transcript. The batch in
    flight at the kill may be absent or (once its WAL frame completed)
    present — never partial. Scenarios are [Excused] when the [lhserve]
    binary cannot be found next to the running executable (override with
    [LH_SERVE_BIN]). *)

val ok : summary -> bool
(** No [Failed] site ([Excused] is acceptable). *)

val to_text : summary -> string
(** One line per site plus a pass/fail tail, for CLI output. *)
