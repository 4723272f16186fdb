(* Prepared statements, the plan cache, and the typed error surface
   (engine.mli): parameter binding must agree with direct evaluation,
   cache hits must actually skip planning, invalidation must be exactly
   as documented, and every failure mode must surface as Engine.Error. *)

module L = Levelheaded
module Dtype = Lh_storage.Dtype
module Table = Lh_storage.Table
module Schema = Lh_storage.Schema
module Date = Lh_storage.Date
module Obs = Lh_obs.Obs
module Report = Lh_obs.Report
module Ast = Lh_sql.Ast
module Normalize = Lh_sql.Normalize

let cval name (r : Report.t) = Option.value (List.assoc_opt name r.Report.counters) ~default:0
let has_span name (r : Report.t) = List.exists (fun (s : Obs.span) -> s.Obs.sname = name) r.Report.spans

let error_of f =
  match f () with
  | _ -> Alcotest.fail "expected Engine.Error, got a result"
  | exception L.Engine.Error e -> e

let check_error name expect f =
  Alcotest.(check string) name expect (L.Engine.Error.to_string (error_of f))

(* ---- binding agrees with direct evaluation (TPC-H Q6 shape) ---- *)

let q6_params =
  "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= $1 \
   and l_shipdate < $2 and l_discount between $3 and $4 and l_quantity < $5"

let q6_values lo hi =
  [
    Dtype.VDate (Date.of_string lo);
    Dtype.VDate (Date.of_string hi);
    Dtype.VFloat 0.05;
    Dtype.VFloat 0.07;
    Dtype.VInt 24;
  ]

let test_exec_matches_direct () =
  let eng = Lazy.force Helpers.tpch_engine in
  let stmt = L.Engine.prepare eng q6_params in
  Alcotest.(check int) "nparams" 5 (L.Engine.Stmt.nparams stmt);
  Helpers.check_rows_equal "Q6 via $1..$5"
    (Table.to_rows (L.Engine.query eng Helpers.q6))
    (Table.to_rows (L.Engine.Stmt.exec stmt (q6_values "1994-01-01" "1995-01-01")));
  (* Rebinding the same statement — one plan, another year's answer. *)
  let direct95 =
    L.Engine.query eng
      "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= \
       date '1995-01-01' and l_shipdate < date '1996-01-01' and l_discount between 0.05 and \
       0.07 and l_quantity < 24"
  in
  Helpers.check_rows_equal "rebound to 1995"
    (Table.to_rows direct95)
    (Table.to_rows (L.Engine.Stmt.exec stmt (q6_values "1995-01-01" "1996-01-01")))

let test_anonymous_params () =
  let eng = Lazy.force Helpers.tpch_engine in
  let stmt =
    L.Engine.prepare eng
      "select count(*) as c from lineitem where l_quantity < ? and l_discount < ?"
  in
  Alcotest.(check int) "? auto-numbered" 2 (L.Engine.Stmt.nparams stmt);
  Helpers.check_rows_equal "? binds positionally"
    (Table.to_rows
       (L.Engine.query eng
          "select count(*) as c from lineitem where l_quantity < 10 and l_discount < 0.03"))
    (Table.to_rows (L.Engine.Stmt.exec stmt [ Dtype.VInt 10; Dtype.VFloat 0.03 ]))

(* ---- parameter misuse: every mode is a typed error ---- *)

let test_param_errors () =
  let eng = Lazy.force Helpers.tpch_engine in
  (match
     error_of (fun () ->
         L.Engine.prepare eng
           "select count(*) as c from lineitem where l_quantity < $1 and l_discount < ?")
   with
  | L.Engine.Error.Parse_error _ -> ()
  | e -> Alcotest.failf "mixed $n/? should be Parse_error, got %s" (L.Engine.Error.to_string e));
  (match
     error_of (fun () ->
         L.Engine.prepare eng "select count(*) as c from lineitem where l_quantity < $2")
   with
  | L.Engine.Error.Semantic _ -> ()
  | e -> Alcotest.failf "gap in numbering should be Semantic, got %s" (L.Engine.Error.to_string e));
  let stmt =
    L.Engine.prepare eng "select count(*) as c from lineitem where l_quantity < $1"
  in
  (match error_of (fun () -> L.Engine.Stmt.exec stmt []) with
  | L.Engine.Error.Semantic _ -> ()
  | e -> Alcotest.failf "arity mismatch should be Semantic, got %s" (L.Engine.Error.to_string e));
  (* A parameterized query through the unprepared entry point is refused:
     there is nothing to bind $1 to. *)
  match L.Engine.query_result eng "select count(*) as c from lineitem where l_quantity < $1" with
  | Error (L.Engine.Error.Semantic _) -> ()
  | Error e -> Alcotest.failf "unbound param should be Semantic, got %s" (L.Engine.Error.to_string e)
  | Ok _ -> Alcotest.fail "unbound param must not execute"

let test_typed_errors () =
  let eng = Lazy.force Helpers.tpch_engine in
  let expect name sql check =
    match L.Engine.query_result eng sql with
    | Ok _ -> Alcotest.failf "%s: expected an error" name
    | Error e ->
        if not (check e) then
          Alcotest.failf "%s: wrong error %s" name (L.Engine.Error.to_string e)
  in
  expect "unknown table" "select count(*) as c from nosuch"
    (function L.Engine.Error.Unknown_table "nosuch" -> true | _ -> false);
  expect "unknown column" "select count(*) as c from lineitem where nosuch_col < 3"
    (function L.Engine.Error.Unknown_column _ -> true | _ -> false);
  expect "parse rejection" "select from where"
    (function L.Engine.Error.Parse_error _ -> true | _ -> false);
  check_error "raising entry point agrees" "unknown table \"nosuch\"" (fun () ->
      L.Engine.query eng "select count(*) as c from nosuch")

(* ---- plan cache: hits skip planning; literals share a plan ---- *)

let matrix_rows vals =
  List.map (fun (i, j, v) -> [ Dtype.VInt i; Dtype.VInt j; Dtype.VFloat v ]) vals

let matrix_engine ?config () =
  let e = L.Engine.create ?config () in
  ignore
    (L.Engine.register_rows e ~name:"m" ~schema:Lh_datagen.Matrices.matrix_schema
       (matrix_rows [ (0, 1, 2.0); (1, 2, 3.0); (5, 0, 1.0) ]));
  e

let smm v =
  Printf.sprintf
    "select m1.row, m2.col, sum(m1.v * m2.v) as v from m m1, m m2 where m1.col = m2.row and \
     m1.v < %g group by m1.row, m2.col"
    v

let test_cache_hit_skips_planning () =
  let e = matrix_engine () in
  let _, _, cold = L.Engine.query_analyze e (smm 10.0) in
  Alcotest.(check int) "cold misses" 1 (cval "plan_cache.miss" cold);
  Alcotest.(check int) "cold never hits" 0 (cval "plan_cache.hit" cold);
  Alcotest.(check bool) "cold builds a GHD" true (has_span "plan.ghd" cold);
  Alcotest.(check bool) "cold orders attributes" true (has_span "plan.attr_order" cold);
  let _, _, warm = L.Engine.query_analyze e (smm 10.0) in
  Alcotest.(check int) "warm hits" 1 (cval "plan_cache.hit" warm);
  Alcotest.(check int) "warm never misses" 0 (cval "plan_cache.miss" warm);
  Alcotest.(check bool) "warm skips the GHD" false (has_span "plan.ghd" warm);
  Alcotest.(check bool) "warm skips attribute ordering" false (has_span "plan.attr_order" warm);
  (* Normalization: a different literal is the same cached plan. *)
  let _, _, other = L.Engine.query_analyze e (smm 99.0) in
  Alcotest.(check int) "different literal still hits" 1 (cval "plan_cache.hit" other);
  Helpers.check_rows_equal "and still filters by its own literal"
    (let e2 = matrix_engine () in
     Table.to_rows (L.Engine.query e2 (smm 2.5)))
    (Table.to_rows (L.Engine.query e (smm 2.5)))

let test_cache_eviction_and_disable () =
  let config = { L.Config.default with L.Config.plan_cache_capacity = 1 } in
  let e = matrix_engine ~config () in
  ignore (L.Engine.query e (smm 10.0));
  let _, _, second = L.Engine.query_analyze e "select sum(v) as s from m" in
  Alcotest.(check int) "capacity 1 evicts" 1 (cval "plan_cache.evict" second);
  let _, _, back = L.Engine.query_analyze e (smm 10.0) in
  Alcotest.(check int) "evicted plan misses again" 1 (cval "plan_cache.miss" back);
  (* capacity 0 disables caching entirely *)
  let e0 = matrix_engine ~config:{ config with L.Config.plan_cache_capacity = 0 } () in
  ignore (L.Engine.query e0 (smm 10.0));
  let _, _, r = L.Engine.query_analyze e0 (smm 10.0) in
  Alcotest.(check int) "disabled: no hits" 0 (cval "plan_cache.hit" r);
  Alcotest.(check int) "disabled: no misses counted" 0 (cval "plan_cache.miss" r);
  Alcotest.(check bool) "disabled: replans every time" true (has_span "plan.ghd" r);
  (* Capacity 0 takes the cached path minus the install, so every BI and
     LA shape answers the same rows with the same plan at capacity 0 and
     64 — and [explain], which stops before execution, reports the plan
     [query_analyze] ran. *)
  let eng = Lazy.force Helpers.tpch_engine in
  let saved = L.Engine.config eng in
  let at capacity sql =
    L.Engine.set_config eng { saved with L.Config.plan_cache_capacity = capacity };
    Fun.protect
      ~finally:(fun () -> L.Engine.set_config eng saved)
      (fun () ->
        let result, ex, _ = L.Engine.query_analyze eng sql in
        (Table.to_rows result, ex, L.Engine.explain eng sql))
  in
  let same_plan what (a : L.Engine.explain) (b : L.Engine.explain) =
    Alcotest.(check bool) (what ^ ": path") true (a.L.Engine.epath = b.L.Engine.epath);
    Alcotest.(check (option (float 0.0))) (what ^ ": fhw") a.L.Engine.efhw b.L.Engine.efhw;
    Alcotest.(check string) (what ^ ": plan text") a.L.Engine.etext b.L.Engine.etext
  in
  List.iter
    (fun (name, sql) ->
      let rows64, ex64, plain64 = at 64 sql in
      let rows0, ex0, plain0 = at 0 sql in
      Helpers.check_rows_equal (name ^ " rows at capacity 0 vs 64") rows64 rows0;
      same_plan (name ^ " explain at capacity 0 vs 64") ex64 ex0;
      same_plan (name ^ " explain vs query_analyze") ex64 plain64;
      same_plan (name ^ " explain vs query_analyze at capacity 0") ex0 plain0)
    Helpers.
      [
        ("q1", q1); ("q3", q3); ("q5", q5); ("q6", q6); ("q10", q10);
        ("smv", smv); ("smm", smm); ("dmv", dmv); ("dmm", dmm);
      ]

(* Literals the plan keeps verbatim (here a divisor) are part of the plan
   key, so two that agree in their first six digits must not share a
   plan. *)
let test_cache_key_exact () =
  let e = matrix_engine () in
  List.iter
    (fun c ->
      Helpers.check_against_oracle e
        (Printf.sprintf "select m1.row, sum(m1.v / %s) as s from m m1 group by m1.row" c))
    [ "1.234566"; "1.234574" ]

(* ---- set_config invalidation: plan-relevant knobs re-plan, others keep
   the cache (the §VI-A hot-run protocol depends on the latter) ---- *)

let test_set_config_invalidation () =
  let e = matrix_engine () in
  ignore (L.Engine.query e (smm 10.0));
  (* blas_targeting is re-checked at bind time, not baked into the plan:
     toggling it must keep the cache warm. *)
  L.Engine.set_config e { (L.Engine.config e) with L.Config.blas_targeting = false };
  let _, _, kept = L.Engine.query_analyze e (smm 10.0) in
  Alcotest.(check int) "plan-neutral knob keeps cache" 1 (cval "plan_cache.hit" kept);
  (* attr_order is baked into the plan: changing it must flush, and the
     next run must visibly re-run attribute ordering. *)
  L.Engine.set_config e { (L.Engine.config e) with L.Config.attr_order = L.Config.Naive };
  let _, _, flushed = L.Engine.query_analyze e (smm 10.0) in
  Alcotest.(check int) "plan-relevant knob flushes" 1 (cval "plan_cache.miss" flushed);
  Alcotest.(check int) "no stale hit" 0 (cval "plan_cache.hit" flushed);
  Alcotest.(check bool) "attribute ordering re-ran" true (has_span "plan.attr_order" flushed)

(* A cached plan records the tables it read: registering another table
   keeps it, replacing one of them re-plans it. *)
let test_register_replans_readers () =
  let e = matrix_engine () in
  ignore (L.Engine.query e (smm 10.0));
  ignore
    (L.Engine.register_rows e ~name:"u" ~schema:Lh_datagen.Matrices.matrix_schema
       (matrix_rows [ (0, 0, 1.0) ]));
  let _, _, kept = L.Engine.query_analyze e (smm 10.0) in
  Alcotest.(check int) "unrelated register: hit" 1 (cval "plan_cache.hit" kept);
  Alcotest.(check int) "unrelated register: no miss" 0 (cval "plan_cache.miss" kept);
  ignore
    (L.Engine.register_rows e ~name:"m" ~schema:Lh_datagen.Matrices.matrix_schema
       (matrix_rows [ (0, 1, 2.0); (1, 2, 3.0) ]));
  let got, _, replanned = L.Engine.query_analyze e (smm 10.0) in
  Alcotest.(check int) "replaced m: miss" 1 (cval "plan_cache.miss" replanned);
  Alcotest.(check int) "replaced m: no stale hit" 0 (cval "plan_cache.hit" replanned);
  Alcotest.(check int) "replaced m: new rows" 1 got.Table.nrows

(* ---- live statements revalidate after catalog changes ---- *)

let test_stmt_revalidates () =
  let e = matrix_engine () in
  let stmt = L.Engine.prepare e (smm 10.0) in
  Alcotest.(check int) "initial rows" 2 (L.Engine.Stmt.exec stmt []).Table.nrows;
  ignore
    (L.Engine.register_rows e ~name:"m" ~schema:Lh_datagen.Matrices.matrix_schema
       (matrix_rows [ (7, 8, 1.0) ]));
  Alcotest.(check int) "sees replaced table" 0 (L.Engine.Stmt.exec stmt []).Table.nrows

(* ---- the leaf disposition is decided per execution ---- *)

(* [d] repeats key (3, 3) (the row at v = 5). A [$1] that filters that
   row away leaves distinct keys, so the bound trie's leaves are unit and
   the innermost position counts instead of streaming; a [$1] that keeps
   it makes the leaves carry multiplicity 2. One prepared plan serves
   every binding, so the disposition must follow the bound tries each
   time. *)
let test_leaf_mode_per_binding () =
  let e = L.Engine.create () in
  let reg name cols rows = ignore (L.Engine.register_rows e ~name ~schema:(Schema.create cols) rows) in
  let keys = [ ("k", Dtype.Int, Schema.Key); ("j", Dtype.Int, Schema.Key) ] in
  reg "d"
    (keys @ [ ("v", Dtype.Float, Schema.Annotation) ])
    (List.map
       (fun (k, v) -> [ Dtype.VInt k; Dtype.VInt k; Dtype.VFloat v ])
       [ (1, 1.0); (2, 1.0); (3, 1.0); (3, 5.0) ]);
  reg "u" keys (List.map (fun k -> [ Dtype.VInt k; Dtype.VInt k ]) [ 1; 2; 3; 4 ]);
  let sql = "select count(*) as c from d, u where d.k = u.k and d.j = u.j and d.v < $1" in
  let stmt = L.Engine.prepare e sql in
  let lookup name = L.Catalog.find_exn (L.Engine.catalog e) name in
  let count_leaves bound =
    let params = [ Dtype.VFloat bound ] in
    let got, report = L.Engine.Stmt.exec_analyze stmt params in
    Helpers.check_rows_equal
      (Printf.sprintf "$1 = %g matches the oracle" bound)
      (Lh_baseline.Oracle.query ~lookup (Normalize.substitute (Lh_sql.Parser.parse sql) params))
      (Table.to_rows got);
    cval "set.count_only" report
  in
  Alcotest.(check int) "duplicates kept: streamed" 0 (count_leaves 10.0);
  Alcotest.(check bool) "duplicates filtered: counted" true (count_leaves 2.0 > 0);
  Alcotest.(check int) "duplicates kept again: streamed" 0 (count_leaves 10.0)

(* One join key: the count-only leaf sits at position 0, so the bag runs
   as one unsplit unit and counts the intersection once at every domain
   count. *)
let test_count_only_at_position_0 () =
  let e = L.Engine.create () in
  let reg name keys =
    ignore
      (L.Engine.register_rows e ~name
         ~schema:(Schema.create [ ("k", Dtype.Int, Schema.Key) ])
         (List.map (fun k -> [ Dtype.VInt k ]) keys))
  in
  reg "a" (List.init 40 Fun.id);
  reg "b" (List.init 30 (fun i -> 2 * i));
  let sql = "select count(*) as c from a, b where a.k = b.k" in
  let at domains =
    let saved = L.Engine.config e in
    L.Engine.set_config e { saved with L.Config.domains };
    Fun.protect
      ~finally:(fun () -> L.Engine.set_config e saved)
      (fun () ->
        let got, _, report = L.Engine.query_analyze e sql in
        Helpers.check_rows_equal
          (Printf.sprintf "domains=%d matches the oracle" domains)
          (Helpers.oracle_rows e sql) (Table.to_rows got);
        Alcotest.(check int)
          (Printf.sprintf "domains=%d: one count-only leaf" domains)
          1 (cval "set.count_only" report);
        cval "wcoj.leaf_ticks" report)
  in
  let ticks1 = at 1 in
  Alcotest.(check int) "domains=4: same leaf ticks" ticks1 (at 4)

let test_query_into () =
  let e = matrix_engine () in
  let t = L.Engine.query_into e ~name:"rowsum" "select m.row, sum(m.v) as s from m group by m.row" in
  Alcotest.(check string) "result is named" "rowsum" t.Table.name;
  Helpers.check_rows_equal "registered and queryable"
    [ [ Dtype.VFloat 6.0 ] ]
    (Table.to_rows (L.Engine.query e "select sum(s) as t from rowsum"))

(* ---- normalization properties over generated queries ---- *)

let profile = lazy (Lh_qgen.Dataset.profile (Lazy.force Helpers.tpch_engine))

let gen_ast =
  QCheck2.Gen.(
    let* seed = int_range 0 0xFFFFFF in
    let* index = int_range 0 500 in
    return (seed, index))

let generated (seed, index) =
  fst (Lh_qgen.Gen.generate (Lazy.force profile) ~seed ~index Lh_qgen.Gen.default_spec)

let qcheck_lift_roundtrip =
  Helpers.qtest ~count:300 "substitute inverts lift_literals" gen_ast (fun si ->
      let ast = generated si in
      let lifted, values = Normalize.lift_literals ast in
      Ast.query_params lifted = List.init (List.length values) (fun i -> i + 1)
      && Normalize.substitute lifted values = ast)

let qcheck_lift_idempotent =
  Helpers.qtest ~count:300 "lift_literals is idempotent" gen_ast (fun si ->
      let lifted, _ = Normalize.lift_literals (generated si) in
      let lifted2, values2 = Normalize.lift_literals lifted in
      values2 = [] && lifted2 = lifted)

let () =
  Alcotest.run "levelheaded-prepared"
    [
      ( "prepared",
        [
          Alcotest.test_case "exec matches direct (Q6)" `Quick test_exec_matches_direct;
          Alcotest.test_case "? parameters" `Quick test_anonymous_params;
          Alcotest.test_case "parameter misuse is typed" `Quick test_param_errors;
          Alcotest.test_case "statements revalidate" `Quick test_stmt_revalidates;
          Alcotest.test_case "leaf mode follows the binding" `Quick test_leaf_mode_per_binding;
          Alcotest.test_case "count-only leaf at position 0" `Quick test_count_only_at_position_0;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "hit skips planning" `Quick test_cache_hit_skips_planning;
          Alcotest.test_case "eviction and capacity 0" `Quick test_cache_eviction_and_disable;
          Alcotest.test_case "set_config invalidation" `Quick test_set_config_invalidation;
          Alcotest.test_case "verbatim literals key exactly" `Quick test_cache_key_exact;
          Alcotest.test_case "register re-plans only readers" `Quick test_register_replans_readers;
        ] );
      ( "errors",
        [
          Alcotest.test_case "typed error surface" `Quick test_typed_errors;
          Alcotest.test_case "query_into registers" `Quick test_query_into;
        ] );
      ("normalize", [ qcheck_lift_roundtrip; qcheck_lift_idempotent ]);
    ]
