module L = Levelheaded
module Dtype = Lh_storage.Dtype
module Schema = Lh_storage.Schema
module Table = Lh_storage.Table

let eng = Helpers.tpch_engine

(* ---- all benchmark queries against the brute-force oracle ---- *)

let oracle_cases =
  List.map
    (fun (name, sql) ->
      Alcotest.test_case name `Quick (fun () ->
          Helpers.check_against_oracle ~name (Lazy.force eng) sql))
    (Helpers.tpch_queries @ Helpers.la_queries)

let multi_node_cases =
  (* Q5 variants stressing the Yannakakis path: GROUP BY annotations from
     different relations (one in the child bag, one in the root), MIN/MAX
     and COUNT flowing through a materialized child, and an extra
     annotation filter on the child side. *)
  let q5_from_where =
    "from customer, orders, lineitem, supplier, nation, region where c_custkey = o_custkey and \
     l_orderkey = o_orderkey and l_suppkey = s_suppkey and c_nationkey = s_nationkey and \
     s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = 'ASIA'"
  in
  [
    ( "q5-two-annotations",
      "select n_name, o_orderpriority, sum(l_extendedprice) s " ^ q5_from_where
      ^ " group by n_name, o_orderpriority" );
    ( "q5-minmax-count",
      "select n_name, min(l_extendedprice) lo, max(l_discount) hi, count(*) c " ^ q5_from_where
      ^ " group by n_name" );
    ( "q5-child-filter",
      "select n_name, sum(l_extendedprice) s " ^ q5_from_where
      ^ " and n_name <> 'CHINA' group by n_name" );
    ( "q5-scalar",
      "select sum(l_extendedprice * (1 - l_discount)) s, avg(l_discount) a " ^ q5_from_where );
  ]
  |> List.map (fun (name, sql) ->
         Alcotest.test_case name `Quick (fun () ->
             Helpers.check_against_oracle ~name (Lazy.force eng) sql))

(* ---- configuration variants must not change results ---- *)

let with_config cfg f =
  let e = Lazy.force eng in
  let saved = L.Engine.config e in
  L.Engine.set_config e cfg;
  Fun.protect ~finally:(fun () -> L.Engine.set_config e saved) (fun () -> f e)

let variant_cases =
  let variants =
    [
      ("no-relaxation", { L.Config.default with relax_materialized_first = false });
      ("no-sorted-emit", { L.Config.default with sorted_emit = false });
      ("no-ghd-heuristics", { L.Config.default with ghd_heuristics = false });
      ("naive-order", { L.Config.default with attr_order = L.Config.Naive });
      ("worst-order", { L.Config.default with attr_order = L.Config.Worst_cost });
      ("no-attribute-elimination", { L.Config.default with attribute_elimination = false; blas_targeting = false });
      ("no-blas", { L.Config.default with blas_targeting = false });
      ("logicblox-like", L.Config.logicblox_like);
      ("parallel-3-domains", { L.Config.default with domains = 3 });
    ]
  in
  List.concat_map
    (fun (vname, cfg) ->
      List.map
        (fun (qname, sql) ->
          Alcotest.test_case (Printf.sprintf "%s/%s" vname qname) `Slow (fun () ->
              let expect = Helpers.oracle_rows (Lazy.force eng) sql in
              with_config cfg (fun e ->
                  Helpers.check_rows_equal (vname ^ "/" ^ qname) expect (Helpers.engine_rows e sql))))
        [ ("q3", Helpers.q3); ("q5", Helpers.q5); ("q9", Helpers.q9); ("smm", Helpers.smm);
          ("dmm", Helpers.dmm); ("q1", Helpers.q1) ])
    variants

(* ---- explain paths ---- *)

let test_paths () =
  let e = Lazy.force eng in
  let path sql = (L.Engine.explain e sql).L.Engine.epath in
  Alcotest.(check bool) "q1 scans" true (path Helpers.q1 = L.Engine.Scan_path);
  Alcotest.(check bool) "q6 scans" true (path Helpers.q6 = L.Engine.Scan_path);
  Alcotest.(check bool) "q5 wcoj" true (path Helpers.q5 = L.Engine.Wcoj_path);
  Alcotest.(check bool) "smm wcoj" true (path Helpers.smm = L.Engine.Wcoj_path);
  Alcotest.(check bool) "dmm blas" true (path Helpers.dmm = L.Engine.Blas_path);
  Alcotest.(check bool) "dmv blas" true (path Helpers.dmv = L.Engine.Blas_path);
  (* with BLAS targeting off, dense queries fall back to the WCOJ *)
  with_config { L.Config.default with blas_targeting = false } (fun e ->
      Alcotest.(check bool) "dmm wcoj when disabled" true
        ((L.Engine.explain e Helpers.dmm).L.Engine.epath = L.Engine.Wcoj_path))

let test_explain_fhw () =
  let e = Lazy.force eng in
  let ex = L.Engine.explain e Helpers.q5 in
  Alcotest.(check (option (float 1e-6))) "q5 fhw" (Some 2.0) ex.L.Engine.efhw;
  Alcotest.(check bool) "plan text mentions hypergraph" true
    (String.length ex.L.Engine.etext > 0)

(* ---- small fixtures: edge cases ---- *)

let fresh_engine () = L.Engine.create ()

(* A dense matrix joined with itself on its column key, grouped by one
   side's row. The other side keeps only its col vertex after attribute
   elimination, but it is a matrix, not a vector: the query must not
   take the gemv path, and its sums must match the oracle. *)
let test_dense_self_join_not_vector () =
  let e = fresh_engine () in
  let dm2, _ = Lh_datagen.Matrices.dense ~dict:(L.Engine.dict e) ~name:"dm2" ~n:6 ~seed:8 () in
  L.Engine.register e dm2;
  let sql =
    "select r1.row, sum(r1.v * r0.v) from dm2 r0, dm2 r1 where r0.col = r1.col group by r1.row"
  in
  Helpers.check_against_oracle e sql;
  Alcotest.(check bool) "wcoj path" true ((L.Engine.explain e sql).L.Engine.epath = L.Engine.Wcoj_path)

let register_matrix e name triplets =
  let rows = Array.of_list (List.map (fun (i, _, _) -> i) triplets) in
  let cols = Array.of_list (List.map (fun (_, j, _) -> j) triplets) in
  let vals = Array.of_list (List.map (fun (_, _, v) -> v) triplets) in
  let t =
    Table.create ~name ~schema:Lh_datagen.Matrices.matrix_schema ~dict:(L.Engine.dict e)
      [| Table.Icol rows; Table.Icol cols; Table.Fcol vals |]
  in
  L.Engine.register e t

let test_empty_input_scalar () =
  let e = fresh_engine () in
  register_matrix e "m" [];
  let t = L.Engine.query e "select sum(m.v) s, count(*) c from m" in
  Alcotest.(check bool) "one row" true (t.Table.nrows = 1);
  Alcotest.(check bool) "sum 0, count 0" true
    (Table.to_rows t = [ [ Dtype.VFloat 0.0; Dtype.VInt 0 ] ])

let test_empty_join_result () =
  let e = fresh_engine () in
  register_matrix e "a" [ (0, 1, 1.0) ];
  register_matrix e "b" [ (2, 3, 1.0) ];
  let t = L.Engine.query e "select a.row, sum(a.v * b.v) s from a, b where a.col = b.row group by a.row" in
  Alcotest.(check int) "no groups" 0 t.Table.nrows

let test_filter_eliminates_all () =
  let e = fresh_engine () in
  register_matrix e "m" [ (0, 0, 1.0); (1, 1, 2.0) ];
  let t = L.Engine.query e "select m.row, sum(m.v) s from m where m.v > 100 group by m.row" in
  Alcotest.(check int) "empty" 0 t.Table.nrows

let test_key_filter () =
  (* filters on key columns are row filters before trie construction *)
  let e = fresh_engine () in
  register_matrix e "m" [ (0, 0, 1.0); (5, 1, 2.0); (9, 2, 4.0) ];
  let t = L.Engine.query e "select m.row, sum(m.v) s from m where m.row >= 5 and m.col < 2 group by m.row" in
  Alcotest.(check bool) "key-filtered" true
    (Table.to_rows t = [ [ Dtype.VInt 5; Dtype.VFloat 2.0 ] ])

let test_min_max_count () =
  let e = fresh_engine () in
  register_matrix e "m" [ (0, 0, 5.0); (0, 1, -3.0); (1, 0, 7.5) ];
  let t = L.Engine.query e "select m.row, min(m.v) lo, max(m.v) hi, count(*) c from m group by m.row" in
  Alcotest.(check bool) "rows" true
    (Table.to_rows t
    = [
        [ Dtype.VInt 0; Dtype.VFloat (-3.0); Dtype.VFloat 5.0; Dtype.VInt 2 ];
        [ Dtype.VInt 1; Dtype.VFloat 7.5; Dtype.VFloat 7.5; Dtype.VInt 1 ];
      ])

let test_group_by_key_join () =
  (* duplicate key tuples: multiplicities must scale the other side's sums *)
  let e = fresh_engine () in
  register_matrix e "a" [ (1, 5, 2.0); (1, 5, 3.0); (2, 5, 4.0) ];
  (* a has two rows with the same (1,5) key: pre-aggregated to 5.0 *)
  register_matrix e "b" [ (5, 9, 10.0) ];
  let t = L.Engine.query e "select a.row, sum(a.v * b.v) s from a, b where a.col = b.row group by a.row" in
  Alcotest.(check bool) "pre-aggregation correct" true
    (Table.to_rows t
    = [ [ Dtype.VInt 1; Dtype.VFloat 50.0 ]; [ Dtype.VInt 2; Dtype.VFloat 40.0 ] ])

let test_count_join_multiplicity () =
  let e = fresh_engine () in
  register_matrix e "a" [ (1, 5, 1.0); (1, 5, 1.0) ];
  register_matrix e "b" [ (5, 1, 1.0); (5, 2, 1.0); (5, 2, 1.0) ];
  (* b keyed (row,col): (5,2) duplicated -> mult 2 *)
  let t = L.Engine.query e "select count(*) c from a, b where a.col = b.row" in
  Alcotest.(check bool) "2 x 3 = 6" true (Table.to_rows t = [ [ Dtype.VInt 6 ] ])

let test_result_reusable () =
  (* the result of one query can be registered and queried again *)
  let e = fresh_engine () in
  register_matrix e "m" [ (0, 0, 1.0); (0, 1, 2.0); (1, 0, 3.0); (1, 1, 4.0) ];
  let sq =
    L.Engine.query e
      "select m1.row, m2.col, sum(m1.v * m2.v) as v from m m1, m m2 where m1.col = m2.row group by m1.row, m2.col"
  in
  let sq = Table.create ~name:"sq" ~schema:sq.Table.schema ~dict:sq.Table.dict sq.Table.cols in
  L.Engine.register e sq;
  let tr = L.Engine.query e "select sum(s.v) t from sq s where s.row = s.col" in
  (* trace(M^2) for M = [[1;2];[3;4]] is 7 + 22 = 29 *)
  Alcotest.(check bool) "trace" true (Table.to_rows tr = [ [ Dtype.VFloat 29.0 ] ])

let test_string_keys_join () =
  let e = fresh_engine () in
  let dict = L.Engine.dict e in
  let s1 =
    Schema.create
      [ ("name", Dtype.String, Schema.Key); ("x", Dtype.Float, Schema.Annotation) ]
  in
  let s2 =
    Schema.create
      [ ("name", Dtype.String, Schema.Key); ("y", Dtype.Float, Schema.Annotation) ]
  in
  L.Engine.register e
    (Table.of_rows ~name:"l" ~schema:s1 ~dict
       [ [ Dtype.VString "a"; Dtype.VFloat 1.0 ]; [ Dtype.VString "b"; Dtype.VFloat 2.0 ] ]);
  L.Engine.register e
    (Table.of_rows ~name:"r" ~schema:s2 ~dict
       [ [ Dtype.VString "b"; Dtype.VFloat 10.0 ]; [ Dtype.VString "c"; Dtype.VFloat 20.0 ] ]);
  let t = L.Engine.query e "select l.name, sum(l.x * r.y) s from l, r where l.name = r.name group by l.name" in
  Alcotest.(check bool) "string join" true
    (Table.to_rows t = [ [ Dtype.VString "b"; Dtype.VFloat 20.0 ] ])

let test_budget_oom_smm () =
  let e = fresh_engine () in
  let dict = L.Engine.dict e in
  let m = Lh_datagen.Matrices.banded ~dict ~name:"big" ~n:2000 ~nnz_per_row:30 () in
  L.Engine.register e m.Lh_datagen.Matrices.table;
  L.Engine.set_config e
    { L.Config.default with budget = Lh_util.Budget.create ~max_live_words:200_000 () };
  match
    L.Engine.query e
      "select m1.row, m2.col, sum(m1.v * m2.v) v from big m1, big m2 where m1.col = m2.row group by m1.row, m2.col"
  with
  | exception Lh_util.Budget.Out_of_memory_budget -> ()
  | _ -> Alcotest.fail "expected oom"

let test_budget_timeout () =
  let e = fresh_engine () in
  let dict = L.Engine.dict e in
  let m = Lh_datagen.Matrices.banded ~dict ~name:"big" ~n:3000 ~nnz_per_row:40 () in
  L.Engine.register e m.Lh_datagen.Matrices.table;
  L.Engine.set_config e
    { L.Config.default with budget = Lh_util.Budget.create ~max_seconds:0.05 () };
  match
    L.Engine.query e
      "select m1.row, m2.col, sum(m1.v * m2.v) v from big m1, big m2 where m1.col = m2.row group by m1.row, m2.col"
  with
  | exception Lh_util.Budget.Timed_out -> ()
  | _ -> Alcotest.fail "expected timeout"

(* ---- randomized join queries vs oracle ---- *)

let random_db_gen =
  QCheck2.Gen.(
    let triplets =
      list_size (int_range 0 40)
        (let* i = int_range 0 5 in
         let* j = int_range 0 5 in
         let* v = int_range (-4) 4 in
         return (i, j, float_of_int v))
    in
    pair triplets triplets)

let qcheck_random_joins =
  Helpers.qtest ~count:120 "random 2-table join = oracle" random_db_gen (fun (ta, tb) ->
      let e = fresh_engine () in
      register_matrix e "a" ta;
      register_matrix e "b" tb;
      let lookup = Helpers.lookup_in e in
      let sql = "select a.row, sum(a.v * b.v) s, count(*) c, min(b.v) lo from a, b where a.col = b.row group by a.row" in
      let expect = Lh_baseline.Oracle.query ~lookup (Lh_sql.Parser.parse sql) in
      let got = Table.to_rows (L.Engine.query e sql) in
      List.length expect = List.length got
      && List.for_all2 (fun er gr -> List.for_all2 Helpers.value_close er gr) expect got)

let qcheck_random_triangle =
  Helpers.qtest ~count:60 "random triangle join = oracle" random_db_gen (fun (ta, tb) ->
      let e = fresh_engine () in
      register_matrix e "a" ta;
      register_matrix e "b" tb;
      register_matrix e "c" (List.map (fun (i, j, v) -> (j, i, v +. 1.0)) ta);
      let lookup = Helpers.lookup_in e in
      (* triangle: a(x,y) b(y,z) c(z,x) -- cyclic, fhw 1.5 *)
      let sql =
        "select sum(a.v * b.v * c.v) s from a, b, c where a.col = b.row and b.col = c.row and c.col = a.row"
      in
      let expect = Lh_baseline.Oracle.query ~lookup (Lh_sql.Parser.parse sql) in
      let got = Table.to_rows (L.Engine.query e sql) in
      List.for_all2 (fun er gr -> List.for_all2 Helpers.value_close er gr) expect got)

(* ---- semiring aggregates ---- *)

let test_semiring_aggregates () =
  let e = fresh_engine () in
  (* 2-hop paths; the (2,3) edge has weight 0 so REACHES over y.v is
     exercised on both outcomes *)
  register_matrix e "g" [ (0, 1, 1.0); (0, 2, 4.0); (1, 2, 1.5); (2, 3, 0.0) ];
  let t =
    L.Engine.query e
      "select x.row, min_plus(x.v + y.v) d, reaches(y.v) r, count(*) c from g x, g y where x.col = y.row group by x.row"
  in
  Alcotest.(check bool) "two-hop rows" true
    (Table.to_rows t
    = [
        [ Dtype.VInt 0; Dtype.VFloat 2.5; Dtype.VInt 1; Dtype.VInt 2 ];
        [ Dtype.VInt 1; Dtype.VFloat 1.5; Dtype.VInt 0; Dtype.VInt 1 ];
      ])

let test_semiring_empty_scalar () =
  (* a scalar fold over an empty input yields the semiring's ⊕-identity *)
  let e = fresh_engine () in
  register_matrix e "m" [];
  let t = L.Engine.query e "select min_plus(m.v) d, reaches(m.v) r from m" in
  Alcotest.(check bool) "identities" true
    (Table.to_rows t = [ [ Dtype.VFloat infinity; Dtype.VInt 0 ] ])

let test_agg_generic_syntax () =
  let e = fresh_engine () in
  register_matrix e "m" [ (0, 0, 5.0); (0, 1, -3.0); (1, 0, 7.5) ];
  let t =
    L.Engine.query e "select m.row, agg('max', m.v) hi, agg('min_plus', m.v) lo from m group by m.row"
  in
  Alcotest.(check bool) "agg('name', e) rows" true
    (Table.to_rows t
    = [
        [ Dtype.VInt 0; Dtype.VFloat 5.0; Dtype.VFloat (-3.0) ];
        [ Dtype.VInt 1; Dtype.VFloat 7.5; Dtype.VFloat 7.5 ];
      ])

let test_custom_semiring_registry () =
  (* (max,+): longest 2-hop path, via a user-registered semiring *)
  (if L.Semiring.find "max_plus" = None then
     L.Semiring.register
       {
         L.Semiring.name = "max_plus";
         zero = neg_infinity;
         one = 0.0;
         add = Float.max;
         mul = ( +. );
         card = L.Semiring.Idem;
         decomp = L.Semiring.Dplus;
       });
  let listed = L.Engine.semirings () in
  Alcotest.(check bool) "registered name listed" true (List.mem "max_plus" listed);
  Alcotest.(check bool) "builtins listed" true
    (List.for_all
       (fun n -> List.mem n listed)
       [ "sum_product"; "min"; "max"; "min_plus"; "bool_or_and" ]);
  let e = fresh_engine () in
  register_matrix e "g" [ (0, 1, 1.0); (0, 2, 4.0); (1, 2, 1.5); (2, 3, 0.5) ];
  let t =
    L.Engine.query e
      "select x.row, agg('max_plus', x.v + y.v) d from g x, g y where x.col = y.row group by x.row"
  in
  Alcotest.(check bool) "longest 2-hop" true
    (Table.to_rows t
    = [ [ Dtype.VInt 0; Dtype.VFloat 4.5 ]; [ Dtype.VInt 1; Dtype.VFloat 2.0 ] ])

let test_explain_semiring () =
  let e = fresh_engine () in
  register_matrix e "g" [ (0, 1, 1.0); (1, 2, 2.0) ];
  let ex =
    L.Engine.explain e
      "select x.row, min_plus(x.v + y.v) d from g x, g y where x.col = y.row group by x.row"
  in
  Alcotest.(check bool) "plan names the semiring" true (Lh_util.Text.contains ~sub:"min_plus" ex.L.Engine.etext)

let test_result_api () =
  let e = fresh_engine () in
  register_matrix e "m" [ (0, 0, 2.0) ];
  (match L.Engine.query_result e "select sum(m.v) s from m" with
  | Ok t -> Alcotest.(check bool) "ok rows" true (Table.to_rows t = [ [ Dtype.VFloat 2.0 ] ])
  | Error _ -> Alcotest.fail "expected Ok");
  (match L.Engine.query_result e "select sum(nope.v) s from nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on unknown table");
  (match L.Engine.prepare_result e "select sum(m.v) s from m where m.row = $1" with
  | Error _ -> Alcotest.fail "expected Ok prepared stmt"
  | Ok st -> (
      match L.Engine.Stmt.exec_result st [ Dtype.VInt 0 ] with
      | Ok t -> Alcotest.(check bool) "bound rows" true (Table.to_rows t = [ [ Dtype.VFloat 2.0 ] ])
      | Error _ -> Alcotest.fail "expected Ok exec"));
  match L.Engine.prepare_result e "select sum(" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on parse failure"

let test_iterate_sssp () =
  let e = fresh_engine () in
  register_matrix e "g" [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 5.0); (2, 3, 1.0) ];
  let dist, rounds =
    L.Engine.iterate e ~name:"dist" ~merge:(L.Engine.Accumulate "min_plus")
      ~init:"select g.row, min_plus(0.0) d from g where g.row = 0 group by g.row"
      ~step:"select g.col, min_plus(d.d + g.v) d from dist d, g where d.row = g.row group by g.col"
  in
  Alcotest.(check bool) "distances" true
    (Table.to_rows dist
    = [
        [ Dtype.VInt 0; Dtype.VFloat 0.0 ];
        [ Dtype.VInt 1; Dtype.VFloat 1.0 ];
        [ Dtype.VInt 2; Dtype.VFloat 3.0 ];
        [ Dtype.VInt 3; Dtype.VFloat 4.0 ];
      ]);
  Alcotest.(check int) "rounds to fixpoint" 4 rounds

let test_iterate_reachability () =
  let e = fresh_engine () in
  (* 0 -> 1 -> 2; 4 -> 3 is disconnected from 0 *)
  register_matrix e "g" [ (0, 1, 1.0); (1, 2, 1.0); (4, 3, 1.0) ];
  (* every row in vis is already reached (r = 1), so relaxing only needs
     the edge indicator *)
  let vis, _rounds =
    L.Engine.iterate e ~name:"vis" ~merge:(L.Engine.Accumulate "bool_or_and")
      ~init:"select g.row, reaches(g.v) r from g where g.row = 0 group by g.row"
      ~step:"select g.col, reaches(g.v) r from vis s, g where s.row = g.row group by g.col"
  in
  Alcotest.(check bool) "reachable set" true
    (Table.to_rows vis
    = [
        [ Dtype.VInt 0; Dtype.VInt 1 ];
        [ Dtype.VInt 1; Dtype.VInt 1 ];
        [ Dtype.VInt 2; Dtype.VInt 1 ];
      ])

let qcheck_semiring_joins =
  Helpers.qtest ~count:120 "random semiring join = oracle" random_db_gen (fun (ta, tb) ->
      let e = fresh_engine () in
      register_matrix e "a" ta;
      register_matrix e "b" tb;
      let lookup = Helpers.lookup_in e in
      let sql =
        "select a.row, min_plus(a.v + b.v) d, reaches(b.v) r, agg('max', b.v) hi from a, b where a.col = b.row group by a.row"
      in
      let expect = Lh_baseline.Oracle.query ~lookup (Lh_sql.Parser.parse sql) in
      let got = Table.to_rows (L.Engine.query e sql) in
      List.length expect = List.length got
      && List.for_all2 (fun er gr -> List.for_all2 Helpers.value_close er gr) expect got)

let () =
  Alcotest.run "levelheaded-exec"
    [
      ("oracle", oracle_cases @ multi_node_cases);
      ("variants", variant_cases);
      ( "paths",
        [
          Alcotest.test_case "plan path selection" `Quick test_paths;
          Alcotest.test_case "explain fhw" `Quick test_explain_fhw;
          Alcotest.test_case "dense self-join is not a gemv" `Quick test_dense_self_join_not_vector;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty input scalar" `Quick test_empty_input_scalar;
          Alcotest.test_case "empty join result" `Quick test_empty_join_result;
          Alcotest.test_case "filter eliminates all" `Quick test_filter_eliminates_all;
          Alcotest.test_case "key filters" `Quick test_key_filter;
          Alcotest.test_case "min/max/count" `Quick test_min_max_count;
          Alcotest.test_case "duplicate key pre-aggregation" `Quick test_group_by_key_join;
          Alcotest.test_case "count multiplicity" `Quick test_count_join_multiplicity;
          Alcotest.test_case "result reusable as input" `Quick test_result_reusable;
          Alcotest.test_case "string key join" `Quick test_string_keys_join;
          Alcotest.test_case "budget oom" `Quick test_budget_oom_smm;
          Alcotest.test_case "budget timeout" `Quick test_budget_timeout;
        ] );
      ( "semiring",
        [
          Alcotest.test_case "min_plus/reaches join" `Quick test_semiring_aggregates;
          Alcotest.test_case "empty scalar identities" `Quick test_semiring_empty_scalar;
          Alcotest.test_case "agg('name', e) syntax" `Quick test_agg_generic_syntax;
          Alcotest.test_case "custom registered semiring" `Quick test_custom_semiring_registry;
          Alcotest.test_case "explain shows semiring" `Quick test_explain_semiring;
          Alcotest.test_case "result-first api" `Quick test_result_api;
          Alcotest.test_case "iterate sssp" `Quick test_iterate_sssp;
          Alcotest.test_case "iterate reachability" `Quick test_iterate_reachability;
        ] );
      ("property", [ qcheck_random_joins; qcheck_random_triangle; qcheck_semiring_joins ]);
    ]
