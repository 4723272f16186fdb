module T = Lh_storage.Table
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Obs = Lh_obs.Obs
module Hist = Lh_obs.Hist
module Ast = Lh_sql.Ast
module Normalize = Lh_sql.Normalize

let c_rows_emitted = Obs.counter "rows.emitted"
let c_dense_hit = Obs.counter "dense_cache.hit"
let c_dense_miss = Obs.counter "dense_cache.miss"
let c_plan_hit = Obs.counter "plan_cache.hit"
let c_plan_miss = Obs.counter "plan_cache.miss"
let c_plan_evict = Obs.counter "plan_cache.evict"
let c_profile_records = Obs.counter "profile.records"
let c_slowlog_lines = Obs.counter "slowlog.lines"

(* Latency histograms (lib/obs): end-to-end plus one per pipeline phase,
   fed by [~record] hooks on the existing spans — disabled runs still pay
   only the span's single atomic load. The trie-build and BLAS-kernel
   histograms are registered by Executor / Blas_bridge; re-registering by
   name here returns the same cells. *)
let h_query = Hist.histogram "query.latency"
let h_parse = Hist.histogram "phase.parse"
let h_plan = Hist.histogram "phase.plan"
let h_bind = Hist.histogram "phase.bind"
let h_scan = Hist.histogram "phase.scan"
let h_wcoj = Hist.histogram "phase.wcoj"
let h_blas = Hist.histogram "phase.blas"
let h_finalize = Hist.histogram "phase.finalize"

(* Per-query phase durations are recovered by diffing these histograms'
   running sums around the query (the engine is single-caller per
   instance, so the delta is exactly this query's work). *)
let profile_phases =
  [
    ("parse", h_parse);
    ("plan", h_plan);
    ("bind", h_bind);
    ("trie_build", Hist.histogram "phase.trie_build");
    ("scan", h_scan);
    ("wcoj", h_wcoj);
    ("blas", h_blas);
    ("blas_kernel", Hist.histogram "phase.blas_kernel");
    ("finalize", h_finalize);
  ]

(* Fault sites covering the engine's own control points; the executor,
   storage and BLAS layers register their sites locally. *)
let fault_query = Lh_fault.Fault.site "engine.query"
let fault_prepare = Lh_fault.Fault.site "engine.prepare"
let fault_bind = Lh_fault.Fault.site "engine.bind"
let fault_plan_fill = Lh_fault.Fault.site "plan_cache.fill"

(* ------------------------------------------------------------------ *)
(* Typed errors                                                         *)

module Error = struct
  type t =
    | Parse_error of string
    | Unsupported of string
    | Unknown_table of string
    | Unknown_column of string
    | Budget_exceeded
    | Semantic of string
    | Fault_injected of string

  let to_string = function
    | Parse_error m -> Printf.sprintf "parse error: %s" m
    | Unsupported m -> Printf.sprintf "unsupported query: %s" m
    | Unknown_table n -> Printf.sprintf "unknown table %S" n
    | Unknown_column n -> Printf.sprintf "unknown column %S" n
    | Budget_exceeded -> "budget exceeded"
    | Semantic m -> m
    | Fault_injected site -> Printf.sprintf "fault injected at site %S" site

  let pp fmt e = Format.pp_print_string fmt (to_string e)
end

exception Error of Error.t

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Engine.Error: %s" (Error.to_string e))
    | _ -> None)


let err e = raise (Error e)
let semantic fmt = Printf.ksprintf (fun s -> err (Error.Semantic s)) fmt

(* The engine's one failure classifier: the result-typed entry points, the
   raising forms and the profile outcome all read it. Budget exceptions
   stay distinct so the raising forms can re-raise them raw (callers tell
   OOM from timeout; [test/test_fuzz.ml] holds the engine to that
   contract); anything unrecognized is a bug and propagates raw. *)
type failure = Typed of Error.t | Budget of exn

let classify = function
  | Error e -> Some (Typed e)
  | (Lh_util.Budget.Out_of_memory_budget | Lh_util.Budget.Timed_out) as exn -> Some (Budget exn)
  | Lh_sql.Lexer.Lex_error m | Lh_sql.Parser.Parse_error m -> Some (Typed (Error.Parse_error m))
  | Logical.Unknown_table n -> Some (Typed (Error.Unknown_table n))
  | Logical.Unknown_column n -> Some (Typed (Error.Unknown_column n))
  | Logical.Unsupported_query m | Compile.Unsupported m -> Some (Typed (Error.Unsupported m))
  | Lh_fault.Fault.Injected site -> Some (Typed (Error.Fault_injected site))
  | Failure m -> Some (Typed (Error.Semantic m))
  | _ -> None

let error_of_failure = function Typed e -> e | Budget _ -> Error.Budget_exceeded

let error_of classified exn =
  match classified with
  | Some f -> error_of_failure f
  | None -> Error.Semantic (Printexc.to_string exn)

let error_of_exn exn = error_of (classify exn) exn

let outcome_of_error = function
  | Error.Budget_exceeded -> Profile.Budget_overrun
  | Error.Fault_injected site -> Profile.Injected_fault site
  | e -> Profile.Typed_error (Error.to_string e)

let no_profile (_ : Profile.outcome) = ()

(* The single failure boundary: runs [f], classifies a failure exactly
   once and hands the outcome to [finish] (the in-flight profile, or
   [no_profile]). *)
let caught ~finish f =
  match f () with
  | v ->
      finish Profile.Ok_result;
      Ok v
  | exception exn -> (
      let c = classify exn in
      finish (outcome_of_error (error_of c exn));
      match c with Some c -> Stdlib.Error c | None -> raise exn)

let unwrap = function
  | Ok v -> v
  | Stdlib.Error (Typed e) -> raise (Error e)
  | Stdlib.Error (Budget exn) -> raise exn

let to_result r = Result.map_error error_of_failure r

let wrap f = unwrap (caught ~finish:no_profile f)

(* ------------------------------------------------------------------ *)

type centry = { c_plan : plan; mutable c_used : int }

and plan = {
  p_ast : Ast.query;  (** parameterized (normalized) AST *)
  p_nparams : int;
  mutable p_lq : Logical.t;  (** unbound: filters/owners may hold [Param]s *)
  mutable p_wcoj : (Ghd.t * Executor.pnode) option;  (** [None] on the scan path *)
  mutable p_epoch : int;
}

(* Accumulator for the in-flight query's profile: pipeline stages fill it
   in as facts become known (normalized text, cache disposition, chosen
   path). Only allocated when telemetry is enabled. *)
type prof_acc = {
  mutable a_sql : string;
  mutable a_plan : string;
  mutable a_path : string;
  mutable a_cache : string;
  mutable a_rows_in : int;
  mutable a_rows_out : int;
}

type t = {
  cat : Catalog.t;
  mutable cfg : Config.t;
  dense_cache : (string, Blas_bridge.dense_info option) Hashtbl.t;
  trie_cache : Executor.trie_cache;
  plans : (string, centry) Hashtbl.t;  (** normalized-AST text -> plan *)
  mutable plan_tick : int;  (** logical clock for LRU eviction *)
  mutable epoch : int;  (** bumped on catalog / plan-relevant config change *)
  mutable last_prof : Profile.t option;
  mutable prof_sink : (Profile.t -> unit) option;
  mutable prof : prof_acc option;  (** in-flight accumulator *)
}

type stmt = { s_eng : t; s_sql : string; s_plan : plan }

(* What one call into the request path runs: a one-shot query (planned
   through the cache) or a prepared statement with its parameter values
   (already planned). *)
type source = Sql of string | Ast of Ast.query
type request = Query of source | Exec of stmt * Dtype.value list

type path = Scan_path | Wcoj_path | Blas_path

type explain = { epath : path; efhw : float option; etext : string }

let create ?(config = Config.default) () =
  {
    cat = Catalog.create ();
    cfg = config;
    dense_cache = Hashtbl.create 8;
    trie_cache = Hashtbl.create 32;
    plans = Hashtbl.create 16;
    plan_tick = 0;
    epoch = 0;
    last_prof = None;
    prof_sink = None;
    prof = None;
  }

let last_profile t = t.last_prof
let set_profile_sink t sink = t.prof_sink <- sink

let config t = t.cfg
let catalog t = t.cat

let reset_plan_cache t = Hashtbl.reset t.plans

(* Only the knobs that shape the plan itself (hypergraph, GHD, attribute
   order) invalidate cached plans. Execution-time knobs (domains, budget,
   sorted_emit, capacity) don't; blas_targeting doesn't either because the
   BLAS-vs-WCOJ dispatch is re-checked at bind time against the live
   config. *)
let plan_relevant (c : Config.t) =
  ( c.Config.attribute_elimination,
    c.Config.attr_order,
    c.Config.relax_materialized_first,
    c.Config.ghd_heuristics )

let set_config t cfg =
  let changed = plan_relevant cfg <> plan_relevant t.cfg in
  t.cfg <- cfg;
  if changed then begin
    Hashtbl.reset t.plans;
    t.epoch <- t.epoch + 1
  end

(* (Re-)registering a name invalidates cached plans/tries for it. Every
   entry point that mutates the catalog must go through this: serving a
   cached trie or plan for a replaced table would silently return stale
   rows (plans capture table values in their bindings). *)
let invalidate_caches t =
  Hashtbl.reset t.trie_cache;
  Hashtbl.reset t.dense_cache;
  Hashtbl.reset t.plans;
  t.epoch <- t.epoch + 1

let register t table =
  invalidate_caches t;
  Catalog.register t.cat table
let dict t = Catalog.dict t.cat

(* Ingest entry points wrap like the query entry points do, so an aborted
   load (bad row, injected fault) surfaces as a typed [Error] with the
   catalog unchanged: the caches are dropped up front (cheap and
   idempotent) and the table is only registered after a fully successful
   build. *)
let register_rows t ~name ~schema rows =
  wrap (fun () ->
      invalidate_caches t;
      let table = T.of_rows ~name ~schema ~dict:(Catalog.dict t.cat) rows in
      Catalog.register t.cat table;
      table)

let load_csv t ~name ~schema ?sep path =
  wrap (fun () ->
      invalidate_caches t;
      Catalog.load_csv t.cat ~name ~schema ~domains:(max 1 t.cfg.Config.domains) ?sep path)

(* Durable-checkpoint writer and loader (see Lh_durable.Store): the dump
   decodes every relation back to rows in deterministic (sorted-name)
   order; restore is a batch of ordinary registrations, so replaying a
   recovered checkpoint + WAL suffix re-encodes strings against this
   engine's dictionary exactly like the original ingests did. *)
let dump t =
  List.map (fun tbl -> (tbl.T.name, tbl.T.schema, T.to_rows tbl)) (Catalog.tables t.cat)

let restore t batches =
  List.iter
    (fun (name, schema, rows) -> ignore (register_rows t ~name ~schema rows))
    batches

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type snapshot = { snap_epoch : int; snap_cat : Catalog.t; snap_cfg : Config.t }

let epoch t = t.epoch

(* Freeze the current catalog: one deep dictionary copy, every table
   repointed at it. Table columns are immutable after construction, so the
   snapshot shares them; only the dictionary — the one structure ingest
   keeps mutating — is copied. Must be called with no ingest in flight
   (the serving layer serializes writers). *)
let snapshot t =
  let dict = Lh_storage.Dict.copy (Catalog.dict t.cat) in
  let cat = Catalog.of_dict dict in
  List.iter
    (fun name -> Catalog.register cat (T.with_dict (Catalog.find_exn t.cat name) ~dict))
    (Catalog.names t.cat);
  { snap_epoch = t.epoch; snap_cat = cat; snap_cfg = t.cfg }

let snapshot_epoch s = s.snap_epoch

(* A read-only view engine over a snapshot: private caches and a private
   catalog (so a [query_into] on one view cannot race another), sharing the
   snapshot's frozen dictionary and table buffers. The budget is cloned —
   its per-run cells are mutable and views execute concurrently. The view's
   epoch is pinned to the snapshot's, so prepared statements created on a
   view never spuriously revalidate. *)
let of_snapshot ?config snap =
  let cat = Catalog.of_dict (Catalog.dict snap.snap_cat) in
  List.iter
    (fun name -> Catalog.register cat (Catalog.find_exn snap.snap_cat name))
    (Catalog.names snap.snap_cat);
  let cfg = Option.value config ~default:snap.snap_cfg in
  let cfg = { cfg with Config.budget = Lh_util.Budget.clone cfg.Config.budget } in
  { (create ~config:cfg ()) with cat; epoch = snap.snap_epoch }

let dense_info t (table : T.t) =
  let key = Printf.sprintf "%s/%d" table.T.name table.T.nrows in
  match Hashtbl.find_opt t.dense_cache key with
  | Some i ->
      Obs.incr c_dense_hit;
      i
  | None ->
      Obs.incr c_dense_miss;
      let i = Blas_bridge.dense_rect table in
      Hashtbl.replace t.dense_cache key i;
      i

(* ------------------------------------------------------------------ *)
(* Per-query profiles                                                   *)

let note_cache t tag = match t.prof with Some a -> a.a_cache <- tag | None -> ()
let note_sql t sql = match t.prof with Some a -> a.a_sql <- sql | None -> ()

let phase_sums () =
  List.map (fun (n, h) -> (n, (Hist.snapshot h).Hist.ssum_ns)) profile_phases

(* Starts one request's profile and returns the function that finishes it
   with the request's outcome: it records the end-to-end latency
   histogram, assembles a {!Profile.t} for every outcome (success, typed
   error, injected fault, budget overrun) and hands the record to the
   slow-query sink when the query met the threshold. When telemetry is
   disabled the cost is the single [Obs.is_enabled] load. *)
let profile_start t req =
  if not (Obs.is_enabled ()) then no_profile
  else begin
    let sql =
      match req with
      | Query (Sql sql) -> sql
      | Query (Ast ast) -> Format.asprintf "%a" Ast.pp_query ast
      | Exec (s, _) -> s.s_sql
    in
    let acc =
      {
        a_sql = sql;
        a_plan = "none";
        a_path = "none";
        a_cache = "none";
        a_rows_in = 0;
        a_rows_out = 0;
      }
    in
    t.prof <- Some acc;
    let cbefore = Obs.snapshot () in
    let pbefore = phase_sums () in
    let gc0 = (Gc.quick_stat ()).Gc.major_words in
    let t0 = Lh_util.Timing.monotonic_now () in
    fun outcome ->
      let total = Lh_util.Timing.monotonic_now () -. t0 in
      Hist.observe_always h_query total;
      let phases =
        List.filter_map
          (fun ((n, after), (_, before)) ->
            let d = after - before in
            if d > 0 then Some (n, float_of_int d *. 1e-9) else None)
          (List.combine (phase_sums ()) pbefore)
      in
      let counters =
        List.filter
          (fun (n, v) -> v <> 0 && not (Obs.is_gauge n))
          (Obs.diff ~before:cbefore ~after:(Obs.snapshot ()))
      in
      let p =
        {
          Profile.p_sql = acc.a_sql;
          p_plan = acc.a_plan;
          p_path = acc.a_path;
          p_cache = acc.a_cache;
          p_epoch = t.epoch;
          p_rows_in = acc.a_rows_in;
          p_rows_out = acc.a_rows_out;
          p_domains = max 1 t.cfg.Config.domains;
          p_total_s = total;
          p_phases = phases;
          p_counters = counters;
          p_gc_major_words = (Gc.quick_stat ()).Gc.major_words -. gc0;
          p_outcome = outcome;
        }
      in
      t.prof <- None;
      t.last_prof <- Some p;
      Obs.incr c_profile_records;
      match t.prof_sink with
      | Some sink when total *. 1000.0 >= t.cfg.Config.slow_log_ms ->
          Obs.incr c_slowlog_lines;
          sink p
      | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Result assembly                                                      *)

let finalize_rows (lq : Logical.t) (rows : Executor.row list) ~dict ~name =
  let n = List.length rows in
  let rows_arr = Array.of_list rows in
  let columns =
    List.map
      (fun (o : Logical.out_col) ->
        match o.Logical.okind with
        | Logical.Out_group i ->
            T.Icol (Array.init n (fun r -> rows_arr.(r).Executor.gcodes.(i)))
        | Logical.Out_sum slots ->
            (* All listed slots share one semiring (Logical guarantees it);
               the decomposed per-slot folds are ⊕-combined here. *)
            let sr = lq.Logical.slots.(List.hd slots).Logical.sr in
            let value r =
              List.fold_left
                (fun acc j -> sr.Semiring.add acc rows_arr.(r).Executor.slots.(j))
                sr.Semiring.zero slots
            in
            if o.Logical.odtype = Dtype.Int then
              T.Icol (Array.init n (fun r -> int_of_float (Float.round (value r))))
            else T.Fcol (Array.init n value)
        | Logical.Out_avg (slots, cnt) ->
            T.Fcol
              (Array.init n (fun r ->
                   let c = rows_arr.(r).Executor.slots.(cnt) in
                   if c = 0.0 then 0.0
                   else
                     List.fold_left (fun acc j -> acc +. rows_arr.(r).Executor.slots.(j)) 0.0 slots
                     /. c))
        | Logical.Out_fold j ->
            let value r = rows_arr.(r).Executor.slots.(j) in
            if o.Logical.odtype = Dtype.Int then
              T.Icol (Array.init n (fun r -> int_of_float (Float.round (value r))))
            else T.Fcol (Array.init n value))
      lq.Logical.outputs
  in
  let schema =
    Schema.create
      (List.map
         (fun (o : Logical.out_col) ->
           let kind =
             match o.Logical.okind with
             | Logical.Out_group i -> (
                 match lq.Logical.group_by.(i) with
                 | Logical.Group_key _ -> Schema.Key
                 | Logical.Group_ann _ -> Schema.Annotation)
             | Logical.Out_sum _ | Logical.Out_avg _ | Logical.Out_fold _ -> Schema.Annotation
           in
           (o.Logical.oname, o.Logical.odtype, kind))
         lq.Logical.outputs)
  in
  T.create ~name ~schema ~dict (Array.of_list columns)

(* ------------------------------------------------------------------ *)
(* Execution paths                                                      *)

type decided =
  | Use_scan
  | Use_blas of Blas_bridge.kernel
  | Use_wcoj of Ghd.t * Executor.pnode

let explain_of lq decided =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "%a@." Logical.pp lq;
  let path, fhw =
    match decided with
    | Use_scan ->
        Format.fprintf fmt "path: columnar scan (no join keys)@.";
        (Scan_path, None)
    | Use_blas _ ->
        Format.fprintf fmt "path: dense BLAS kernel (attribute-eliminated buffers)@.";
        (Blas_path, None)
    | Use_wcoj (ghd, pnode) ->
        Format.fprintf fmt "%a@.%a@." (Ghd.pp lq) ghd (Executor.pp_plan lq) pnode;
        (Wcoj_path, Some ghd.Ghd.fhw)
  in
  Format.pp_print_flush fmt ();
  { epath = path; efhw = fhw; etext = Buffer.contents buf }

let wcoj_summary (lq : Logical.t) (ghd : Ghd.t) (pnode : Executor.pnode) =
  let names =
    List.map (fun i -> lq.Logical.vertices.(i).Logical.vname) pnode.Executor.porder
  in
  (* The leaf kernel disposition is resolved (and cached on the pnode) at
     execution time; before the first execution there is nothing to show. *)
  let kernel =
    match pnode.Executor.pkernel with
    | Some k -> Printf.sprintf " leaf=%s" (Compile.Leaf.mode_to_string k.Executor.k_mode)
    | None -> ""
  in
  (* Chosen semiring per live aggregate slot. *)
  let aggs =
    match
      Array.to_list lq.Logical.slots
      |> List.filter_map (fun (s : Logical.slot) ->
             if s.Logical.dead then None else Some s.Logical.sr.Semiring.name)
    with
    | [] -> ""
    | l -> " agg=" ^ String.concat "," l
  in
  Printf.sprintf "wcoj fhw=%.2f order=%s%s%s" ghd.Ghd.fhw (String.concat "," names) kernel aggs

let note_decided t (lq : Logical.t) decided =
  match t.prof with
  | None -> ()
  | Some a ->
      a.a_rows_in <-
        List.fold_left (fun acc (_, tb) -> acc + tb.T.nrows) 0 lq.Logical.bindings;
      (match decided with
      | Use_scan ->
          a.a_path <- "scan";
          a.a_plan <- "columnar scan"
      | Use_blas k ->
          a.a_path <- "blas";
          a.a_plan <- Blas_bridge.describe k
      | Use_wcoj (ghd, pnode) ->
          a.a_path <- "wcoj";
          a.a_plan <- wcoj_summary lq ghd pnode)

let execute t ~name lq decided =
  Lh_util.Budget.start t.cfg.Config.budget;
  let rows =
    match decided with
    | Use_scan ->
        Obs.span "execute.scan" ~record:(Hist.observe_always h_scan) (fun () ->
            Executor.run_scan t.cfg lq)
    | Use_blas k ->
        Obs.span "execute.blas" ~record:(Hist.observe_always h_blas) (fun () ->
            Blas_bridge.execute ~domains:(max 1 t.cfg.Config.domains)
              ~budget:t.cfg.Config.budget k)
    | Use_wcoj (_, pnode) ->
        Obs.span "execute.wcoj" ~record:(Hist.observe_always h_wcoj) (fun () ->
            Executor.run t.cfg ~cache:t.trie_cache lq pnode)
  in
  (* Refresh the profile's plan line now that execution resolved the leaf
     kernel disposition onto the pnode. *)
  (match (t.prof, decided) with
  | Some a, Use_wcoj (ghd, pnode) -> a.a_plan <- wcoj_summary lq ghd pnode
  | _ -> ());
  Obs.span "finalize" ~record:(Hist.observe_always h_finalize) (fun () ->
      let result = finalize_rows lq rows ~dict:(Catalog.dict t.cat) ~name in
      Obs.add c_rows_emitted result.T.nrows;
      (match t.prof with Some a -> a.a_rows_out <- result.T.nrows | None -> ());
      result)

let explained lq decided = Obs.span "explain" (fun () -> explain_of lq decided)

let execute_explained t ~name lq decided =
  let ex = explained lq decided in
  (execute t ~name lq decided, ex)

(* ------------------------------------------------------------------ *)
(* Planning                                                             *)

let parse = function
  | Sql sql ->
      Obs.span "parse" ~record:(Hist.observe_always h_parse) (fun () -> Lh_sql.Parser.parse sql)
  | Ast ast -> ast

(* GHD and attribute order are computed on the unbound (parameterized)
   plan: [Logical.bind_params] cannot change the hypergraph shape, so both
   stay valid for every binding. The BLAS decision does depend on bound
   filter values, so it is made at bind time instead. *)
let translate_and_plan t ast =
  let lq =
    Obs.span "translate" (fun () ->
        Logical.translate t.cat ~attribute_elimination:t.cfg.Config.attribute_elimination ast)
  in
  let wcoj =
    Obs.span "plan" ~record:(Hist.observe_always h_plan) (fun () ->
        if Array.length lq.Logical.vertices = 0 then None
        else begin
          let ghd =
            Obs.span "plan.ghd" (fun () -> Ghd.plan lq ~heuristics:t.cfg.Config.ghd_heuristics)
          in
          let dense_of (e : Logical.edge) = Option.is_some (dense_info t e.Logical.table) in
          let pnode =
            Obs.span "plan.attr_order" (fun () -> Executor.physical t.cfg lq ~dense_of ghd)
          in
          Some (ghd, pnode)
        end)
  in
  (lq, wcoj)

let make_plan t ast =
  Lh_fault.Fault.hit fault_prepare;
  let nparams =
    let ps = Ast.query_params ast in
    let n = List.length ps in
    if ps <> List.init n (fun i -> i + 1) then
      semantic "parameters must be numbered contiguously from $1 (got %s)"
        (String.concat ", " (List.map (Printf.sprintf "$%d") ps));
    n
  in
  let lq, wcoj = translate_and_plan t ast in
  { p_ast = ast; p_nparams = nparams; p_lq = lq; p_wcoj = wcoj; p_epoch = t.epoch }

(* The catalog (or a plan-shaping config knob) changed under this plan:
   transparently re-translate and re-plan against the current state. *)
let revalidate t plan =
  if plan.p_epoch <> t.epoch then begin
    let lq, wcoj = translate_and_plan t plan.p_ast in
    plan.p_lq <- lq;
    plan.p_wcoj <- wcoj;
    plan.p_epoch <- t.epoch
  end

let evict_if_full t =
  if Hashtbl.length t.plans >= max 1 t.cfg.Config.plan_cache_capacity then begin
    (* Capacity is small: a linear scan for the LRU entry is fine. *)
    let victim = ref None in
    Hashtbl.iter
      (fun key e ->
        match !victim with
        | Some (_, used) when used <= e.c_used -> ()
        | _ -> victim := Some (key, e.c_used))
      t.plans;
    match !victim with
    | Some (key, _) ->
        Hashtbl.remove t.plans key;
        Obs.incr c_plan_evict
    | None -> ()
  end

(* The plan of a one-shot query: literals are lifted out, then the plan
   for the normalized AST is looked up in the cache, or built and
   installed. With the cache off ([plan_cache_capacity = 0]) it is built
   for this query and never installed. *)
let plan_query t ast =
  Lh_fault.Fault.hit fault_query;
  if Ast.max_param ast > 0 then
    semantic "query contains parameters; use Engine.prepare / Stmt.exec to bind them";
  let norm, values = Obs.span "normalize" (fun () -> Normalize.lift_literals ast) in
  let key = Format.asprintf "%a" Ast.pp_query norm in
  note_sql t key;
  let plan =
    if t.cfg.Config.plan_cache_capacity = 0 then begin
      note_cache t "bypass";
      make_plan t norm
    end
    else begin
      t.plan_tick <- t.plan_tick + 1;
      match Hashtbl.find_opt t.plans key with
      | Some e ->
          Obs.incr c_plan_hit;
          note_cache t "hit";
          e.c_used <- t.plan_tick;
          e.c_plan
      | None ->
          Obs.incr c_plan_miss;
          note_cache t "miss";
          evict_if_full t;
          let plan = make_plan t norm in
          (* Between building the plan and publishing it: a fault here (or
             any exception out of [make_plan] above) must leave the cache
             without a partial entry — the entry is only installed on
             success. *)
          Lh_fault.Fault.hit fault_plan_fill;
          Hashtbl.replace t.plans key { c_plan = plan; c_used = t.plan_tick };
          plan
    end
  in
  (plan, values)

(* Bind the parameter values and make the one path decision: scan when the
   query has no join keys, BLAS when a dense kernel matches the bound
   query, the WCOJ over the plan's GHD otherwise. *)
let bind t plan params =
  let ngiven = List.length params in
  if ngiven <> plan.p_nparams then
    semantic "statement expects %d parameter%s, got %d" plan.p_nparams
      (if plan.p_nparams = 1 then "" else "s")
      ngiven;
  Lh_fault.Fault.hit fault_bind;
  revalidate t plan;
  let values = Array.of_list params in
  let lookup i =
    if i >= 1 && i <= Array.length values then Normalize.literal_of_value values.(i - 1)
    else semantic "no value bound for parameter $%d" i
  in
  let lq =
    Obs.span "bind" ~record:(Hist.observe_always h_bind) (fun () ->
        Logical.bind_params plan.p_lq lookup)
  in
  let blas () =
    if t.cfg.Config.blas_targeting && t.cfg.Config.attribute_elimination then
      Obs.span "bind.blas_match" (fun () ->
          Blas_bridge.match_kernel lq ~dense_of:(dense_info t))
    else None
  in
  let decided =
    match plan.p_wcoj with
    | None -> Use_scan
    | Some (ghd, pnode) -> (
        match blas () with Some k -> Use_blas k | None -> Use_wcoj (ghd, pnode))
  in
  note_decided t lq decided;
  (lq, decided)

(* ------------------------------------------------------------------ *)
(* The request path                                                     *)

(* Every query entry point is one call into [run]: parse → normalize →
   plan → bind → [k]. [k] is [execute] (which finalizes), [explained] for
   an explain without execution, or both. Failures are classified and
   the profile finished at the one boundary, [caught]. *)
let run t req k =
  caught ~finish:(profile_start t req) (fun () ->
      Obs.span "query" (fun () ->
          let plan, params =
            match req with
            | Query src -> plan_query t (parse src)
            | Exec (s, params) ->
                note_cache t "prepared";
                (s.s_plan, params)
          in
          let lq, decided = bind t plan params in
          k lq decided))

let query_caught t sql = run t (Query (Sql sql)) (execute t ~name:"result")
let query_result t sql = to_result (query_caught t sql)
let query t sql = unwrap (query_caught t sql)
let query_ast t ast = unwrap (run t (Query (Ast ast)) (execute t ~name:"result"))

let semirings () = Semiring.names ()

let query_into t ~name sql =
  let result = unwrap (run t (Query (Sql sql)) (execute t ~name)) in
  register t result;
  result

let query_explain t sql = unwrap (run t (Query (Sql sql)) (execute_explained t ~name:"result"))

let query_analyze t sql =
  let r, report =
    Lh_obs.Report.with_session (fun () ->
        run t (Query (Sql sql)) (execute_explained t ~name:"result"))
  in
  let result, ex = unwrap r in
  (result, ex, report)

let explain t sql = unwrap (run t (Query (Sql sql)) explained)

(* ------------------------------------------------------------------ *)
(* Prepared statements                                                  *)

let prepare_caught t src =
  caught ~finish:no_profile (fun () ->
      Obs.span "prepare" (fun () ->
          let s_sql = match src with Sql sql -> sql | Ast _ -> "" in
          { s_eng = t; s_sql; s_plan = make_plan t (parse src) }))

let prepare t sql = unwrap (prepare_caught t (Sql sql))
let prepare_result t sql = to_result (prepare_caught t (Sql sql))
let prepare_ast t ast = unwrap (prepare_caught t (Ast ast))

module Stmt = struct
  let sql s = s.s_sql
  let nparams s = s.s_plan.p_nparams
  let exec_caught ~name s params = run s.s_eng (Exec (s, params)) (execute s.s_eng ~name)
  let exec ?(name = "result") s params = unwrap (exec_caught ~name s params)
  let exec_result ?(name = "result") s params = to_result (exec_caught ~name s params)

  let exec_analyze ?(name = "result") s params =
    let r, report = Lh_obs.Report.with_session (fun () -> exec_caught ~name s params) in
    (unwrap r, report)
end


(* ------------------------------------------------------------------ *)
(* Iterative queries (graph workloads over the SpMV loop)               *)

type merge = Replace | Accumulate of string

(* Key columns of a result table are its [Schema.Key] columns (int codes);
   everything else is a value column, read as floats for merging. *)
let split_cols (tbl : T.t) =
  let n = Schema.ncols tbl.T.schema in
  let keys = ref [] and vals = ref [] in
  for i = n - 1 downto 0 do
    if (Schema.col tbl.T.schema i).Schema.kind = Schema.Key then keys := i :: !keys
    else vals := i :: !vals
  done;
  (!keys, !vals)

let key_reader (tbl : T.t) i =
  match tbl.T.cols.(i) with
  | T.Icol a -> fun r -> a.(r)
  | T.Fcol _ ->
      semantic "iterate: float-typed key column %S" (Schema.col tbl.T.schema i).Schema.name

let float_reader (tbl : T.t) i =
  match tbl.T.cols.(i) with
  | T.Icol a -> fun r -> float_of_int a.(r)
  | T.Fcol a -> fun r -> a.(r)

let table_map (tbl : T.t) kidx vidx =
  let h = Hashtbl.create (max 16 (2 * tbl.T.nrows)) in
  let krs = List.map (key_reader tbl) kidx in
  let vrs = List.map (float_reader tbl) vidx in
  for r = 0 to tbl.T.nrows - 1 do
    let k = List.map (fun f -> f r) krs in
    let v = Array.of_list (List.map (fun f -> f r) vrs) in
    Hashtbl.replace h k v
  done;
  h

let map_table ~name ~schema ~dict kidx vidx m =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) m [] |> List.sort compare in
  let n = List.length keys in
  let ka = Array.of_list keys in
  let cols = Array.make (Schema.ncols schema) (T.Icol [||]) in
  List.iteri
    (fun pos i -> cols.(i) <- T.Icol (Array.init n (fun r -> List.nth ka.(r) pos)))
    kidx;
  List.iteri
    (fun pos i ->
      let get r = (Hashtbl.find m ka.(r)).(pos) in
      cols.(i) <-
        (if (Schema.col schema i).Schema.dtype = Dtype.Float then T.Fcol (Array.init n get)
         else T.Icol (Array.init n (fun r -> int_of_float (Float.round (get r))))))
    vidx;
  T.create ~name ~schema ~dict cols

(* Merge one round's rows into the carried state, tracking the largest
   per-cell movement (infinite when the key sets differ) so the caller can
   test convergence against [tolerance]. *)
let merge_round ~how ~dict ~name (old_t : T.t) (new_t : T.t) =
  if Schema.ncols new_t.T.schema <> Schema.ncols old_t.T.schema then
    semantic "iterate: step result shape differs from the carried state (%d vs %d columns)"
      (Schema.ncols new_t.T.schema) (Schema.ncols old_t.T.schema);
  let kidx, vidx = split_cols old_t in
  let old_m = table_map old_t kidx vidx in
  let new_m = table_map new_t kidx vidx in
  let delta = ref 0.0 in
  let bump d = if d > !delta then delta := d in
  let out =
    match how with
    | `Replace ->
        Hashtbl.iter
          (fun k (v : float array) ->
            match Hashtbl.find_opt old_m k with
            | Some ov -> Array.iteri (fun j x -> bump (Float.abs (x -. ov.(j)))) v
            | None -> bump Float.infinity)
          new_m;
        Hashtbl.iter (fun k _ -> if not (Hashtbl.mem new_m k) then bump Float.infinity) old_m;
        new_m
    | `Acc (sr : Semiring.t) ->
        Hashtbl.iter
          (fun k (v : float array) ->
            match Hashtbl.find_opt old_m k with
            | Some ov ->
                let merged = Array.mapi (fun j x -> sr.Semiring.add ov.(j) x) v in
                Array.iteri (fun j x -> bump (Float.abs (x -. ov.(j)))) merged;
                Hashtbl.replace old_m k merged
            | None ->
                bump Float.infinity;
                Hashtbl.replace old_m k v)
          new_m;
        old_m
  in
  (map_table ~name ~schema:old_t.T.schema ~dict kidx vidx out, !delta)

let iterate ?(max_rounds = 100) ?(tolerance = 0.0) ?(merge = Replace) t ~name ~init ~step =
  wrap (fun () ->
      if max_rounds < 1 then semantic "iterate: max_rounds must be positive";
      let how =
        match merge with
        | Replace -> `Replace
        | Accumulate srname -> (
            match Semiring.find srname with
            | Some sr -> `Acc sr
            | None ->
                semantic "iterate: unknown semiring %S (registered: %s)" srname
                  (String.concat ", " (Semiring.names ())))
      in
      let cur = ref (query_into t ~name init) in
      let stmt = prepare t step in
      let rounds = ref 0 in
      let converged = ref false in
      while (not !converged) && !rounds < max_rounds do
        incr rounds;
        let next = Stmt.exec ~name stmt [] in
        let merged, delta = merge_round ~how ~dict:(Catalog.dict t.cat) ~name !cur next in
        register t merged;
        cur := merged;
        if delta <= tolerance then converged := true
      done;
      (!cur, !rounds))
