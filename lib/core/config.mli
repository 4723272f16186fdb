(** Engine configuration and ablation toggles.

    The defaults are the full LevelHeaded design. Each toggle disables one
    of the paper's optimizations so the micro-benchmarks (Table III) can
    measure its contribution, and so the "LogicBlox-like" comparison engine
    (a WCOJ engine without LevelHeaded's optimizations) can be expressed as
    a configuration. *)

type attr_order_policy =
  | Cost_based  (** the §V cost-based optimizer *)
  | Naive  (** first valid order (what a WCOJ engine without the optimizer,
               e.g. EmptyHeaded, might select) *)
  | Worst_cost  (** highest-cost valid order; used by Table III / Fig. 5 *)

type t = {
  attribute_elimination : bool;
      (** §IV-A: only referenced attributes enter the hypergraph and only
          referenced buffers are touched. Disabling also disables BLAS
          targeting (dense annotations are no longer isolated buffers). *)
  attr_order : attr_order_policy;
  relax_materialized_first : bool;  (** §V-A2 last-two-attribute swap *)
  sorted_emit : bool;
      (** stream GROUP BY prefixes with a sparse accumulator instead of
          hashing the output — the path that keeps SMM's output out of a
          hash table. Disable to measure its contribution. *)
  blas_targeting : bool;  (** §III-D: hand dense LA kernels to the BLAS substrate *)
  ghd_heuristics : bool;  (** §IV-B tie-breaking among equal-FHW GHDs *)
  domains : int;
      (** worker domains for the outermost WCOJ loop, trie builds and BLAS
          kernels. [default] starts from [Lh_util.Parfor.default_domains]:
          1 unless the [LH_DOMAINS] environment variable overrides it. *)
  budget : Lh_util.Budget.t;  (** memory/time budget; checked cooperatively *)
  plan_cache_capacity : int;
      (** max entries in the engine's normalized-AST plan cache; [0]
          disables caching entirely. Default 64, overridable via the
          [LH_PLAN_CACHE] environment variable. *)
  slow_log_ms : float;
      (** slow-query threshold in milliseconds: when telemetry is enabled
          and a profile sink is installed ([Engine.set_profile_sink]),
          queries whose end-to-end latency meets the threshold are handed
          to the sink. [0.0] logs every query; [infinity] — the default —
          logs none. Overridable via the [LH_SLOW_MS] environment
          variable. Not a plan-shaping knob (changing it keeps cached
          plans). *)
}

val default : t
val logicblox_like : t
(** WCOJ engine without LevelHeaded's optimizations: no attribute
    elimination, naive attribute order, no relaxation, no GHD
    tie-breaking, no BLAS targeting. Its WCOJ leaves are the same
    specialized kernels the default runs. *)
