type attr_order_policy = Cost_based | Naive | Worst_cost

type t = {
  attribute_elimination : bool;
  attr_order : attr_order_policy;
  relax_materialized_first : bool;
  sorted_emit : bool;
  blas_targeting : bool;
  ghd_heuristics : bool;
  domains : int;
  budget : Lh_util.Budget.t;
  plan_cache_capacity : int;
  slow_log_ms : float;
}

let default_plan_cache_capacity () =
  match Sys.getenv_opt "LH_PLAN_CACHE" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> 64)
  | None -> 64

let default_slow_log_ms () =
  match Sys.getenv_opt "LH_SLOW_MS" with
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some ms when ms >= 0.0 && not (Float.is_nan ms) -> ms
      | _ -> infinity)
  | None -> infinity

let default =
  {
    attribute_elimination = true;
    attr_order = Cost_based;
    relax_materialized_first = true;
    sorted_emit = true;
    blas_targeting = true;
    ghd_heuristics = true;
    domains = Lh_util.Parfor.default_domains ();
    budget = Lh_util.Budget.unlimited;
    plan_cache_capacity = default_plan_cache_capacity ();
    slow_log_ms = default_slow_log_ms ();
  }

let logicblox_like =
  {
    default with
    attribute_elimination = false;
    attr_order = Naive;
    relax_materialized_first = false;
    blas_targeting = false;
    ghd_heuristics = false;
  }
