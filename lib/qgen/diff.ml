module L = Levelheaded
module Ast = Lh_sql.Ast
module Dtype = Lh_storage.Dtype
module Obs = Lh_obs.Obs

let c_scan = Obs.counter "fuzz.queries.scan"
let c_wcoj = Obs.counter "fuzz.queries.wcoj"
let c_blas = Obs.counter "fuzz.queries.blas"
let c_eval = Obs.counter "fuzz.evaluations"
let c_disc = Obs.counter "fuzz.discrepancies"
let c_shrink = Obs.counter "fuzz.shrink_steps"

type discrepancy = {
  d_seed : int;
  d_index : int;
  d_shape : Gen.shape;
  d_evaluator : string;
  d_sql : string;
  d_detail : string;
  d_min_sql : string;
  d_min_relations : int;
  d_shrink_steps : int;
}

type summary = {
  s_count : int;
  s_evaluations : int;
  s_scan : int;
  s_wcoj : int;
  s_blas : int;
  s_by_shape : (Gen.shape * int) list;
  s_discrepancies : discrepancy list;
}

type evaluator = { ev_name : string; ev_run : Ast.query -> Rows.row list }

let sql_of_ast ast = Format.asprintf "%a" Ast.pp_query ast

let sign_flip rows =
  List.map
    (List.map (function Dtype.VFloat x -> Dtype.VFloat (-.x) | v -> v))
    rows

let evaluators ~inject_bug eng =
  let lookup name = L.Catalog.find_exn (L.Engine.catalog eng) name in
  let with_config cfg f =
    let old = L.Engine.config eng in
    L.Engine.set_config eng cfg;
    Fun.protect ~finally:(fun () -> L.Engine.set_config eng old) f
  in
  let engine_with name cfg =
    {
      ev_name = name;
      ev_run =
        (fun ast ->
          with_config cfg (fun () ->
              Lh_storage.Table.to_rows (L.Engine.query eng (sql_of_ast ast))));
    }
  in
  let pairwise name mode =
    { ev_name = name; ev_run = (fun ast -> Lh_baseline.Pairwise.query ~lookup ~mode ast) }
  in
  let d = L.Config.default in
  (* Prepared-statement path: hoist literals into parameters, plan the
     parameterized AST, then bind the hoisted values back at exec — the
     round trip must agree with direct evaluation on every query. *)
  let prepared =
    {
      ev_name = "engine-prepared";
      ev_run =
        (fun ast ->
          let lifted, values = Lh_sql.Normalize.lift_literals ast in
          let stmt = L.Engine.prepare eng (sql_of_ast lifted) in
          Lh_storage.Table.to_rows (L.Engine.Stmt.exec stmt values));
    }
  in
  [
    engine_with "engine" d;
    prepared;
    engine_with "engine-nocache" { d with L.Config.plan_cache_capacity = 0 };
    engine_with "engine-domains4" { d with L.Config.domains = 4 };
    engine_with "engine-naive-order" { d with L.Config.attr_order = L.Config.Naive };
    engine_with "engine-worst-order"
      { d with L.Config.attr_order = L.Config.Worst_cost; ghd_heuristics = false };
    engine_with "engine-logicblox" L.Config.logicblox_like;
    engine_with "engine-unsorted-emit"
      { d with L.Config.sorted_emit = false; blas_targeting = false };
    pairwise "pairwise-pipelined" Lh_baseline.Pairwise.Pipelined;
    pairwise "pairwise-materializing" Lh_baseline.Pairwise.Materializing;
  ]
  @
  if inject_bug then
    [
      {
        ev_name = "buggy-sign-flip";
        ev_run = (fun ast -> sign_flip (Lh_baseline.Oracle.query ~lookup ast));
      };
    ]
  else []

let evaluator_names ~inject_bug =
  let eng = L.Engine.create () in
  List.map (fun ev -> ev.ev_name) (evaluators ~inject_bug eng)

type result = Ok_rows of Rows.row list | Raised of string

let run_guarded f ast = try Ok_rows (f ast) with e -> Raised (Printexc.to_string e)

(* [still_fails] for the shrinker: a candidate keeps the failure alive when
   the oracle can evaluate it and the evaluator either disagrees, or — for
   exception failures — still raises. Candidates the oracle rejects are
   outside the supported subset: dead ends, not failures. *)
let mismatch ~exn_failure ~oracle ev ast =
  match run_guarded oracle ast with
  | Raised _ -> None
  | Ok_rows expect -> (
      match run_guarded ev.ev_run ast with
      | Raised msg -> if exn_failure then Some ("raised " ^ msg) else None
      | Ok_rows got -> Rows.diff ~expect ~got)

let run ?(progress = fun _ -> ()) ?(inject_bug = false) ?(layout_stress = false)
    ?(first_index = 0) ~seed ~count spec =
  let eng = Dataset.build ~layout_stress () in
  let profile = Dataset.profile eng in
  let lookup name = L.Catalog.find_exn (L.Engine.catalog eng) name in
  let oracle ast = Lh_baseline.Oracle.query ~lookup ast in
  let evs = evaluators ~inject_bug eng in
  let scan = ref 0 and wcoj = ref 0 and blas = ref 0 in
  let shape_counts = List.map (fun s -> (s, ref 0)) Gen.all_shapes in
  let evaluations = ref 0 in
  let discrepancies = ref [] in
  for index = first_index to first_index + count - 1 do
    let ast0, shape = Gen.generate profile ~seed ~index spec in
    let sql = sql_of_ast ast0 in
    incr (List.assoc shape shape_counts);
    let record ev_name detail min_sql min_relations shrink_steps =
      Obs.incr c_disc;
      Obs.add c_shrink shrink_steps;
      discrepancies :=
        {
          d_seed = seed;
          d_index = index;
          d_shape = shape;
          d_evaluator = ev_name;
          d_sql = sql;
          d_detail = detail;
          d_min_sql = min_sql;
          d_min_relations = min_relations;
          d_shrink_steps = shrink_steps;
        }
        :: !discrepancies
    in
    (* Round-trip through the printer and parser once, so every evaluator
       consumes the same AST the printed SQL denotes (a print/parse
       mismatch surfaces here as a "parser" discrepancy). *)
    let ast =
      match Lh_sql.Parser.parse sql with
      | ast -> ast
      | exception e ->
          record "parser"
            ("raised " ^ Printexc.to_string e)
            sql
            (List.length ast0.Ast.from)
            0;
          ast0
    in
    (match L.Engine.explain eng sql with
    | { L.Engine.epath = L.Engine.Scan_path; _ } ->
        incr scan;
        Obs.incr c_scan
    | { L.Engine.epath = L.Engine.Wcoj_path; _ } ->
        incr wcoj;
        Obs.incr c_wcoj
    | { L.Engine.epath = L.Engine.Blas_path; _ } ->
        incr blas;
        Obs.incr c_blas
    | exception e ->
        record "explain" ("raised " ^ Printexc.to_string e) sql (List.length ast.Ast.from) 0);
    (match run_guarded oracle ast with
    | Raised msg ->
        (* The oracle rejecting a generated query is a generator bug. *)
        record "oracle" ("raised " ^ msg) sql (List.length ast.Ast.from) 0
    | Ok_rows expect ->
        List.iter
          (fun ev ->
            incr evaluations;
            Obs.incr c_eval;
            let detail =
              match run_guarded ev.ev_run ast with
              | Raised msg -> Some ("raised " ^ msg)
              | Ok_rows got -> Rows.diff ~expect ~got
            in
            match detail with
            | None -> ()
            | Some detail ->
                let exn_failure = String.length detail >= 6 && String.sub detail 0 6 = "raised" in
                let still_fails q = mismatch ~exn_failure ~oracle ev q <> None in
                let minimal, steps = Shrink.shrink ~still_fails ast in
                record ev.ev_name detail (sql_of_ast minimal)
                  (List.length minimal.Ast.from)
                  steps)
          evs);
    progress index
  done;
  {
    s_count = count;
    s_evaluations = !evaluations;
    s_scan = !scan;
    s_wcoj = !wcoj;
    s_blas = !blas;
    s_by_shape = List.map (fun (s, r) -> (s, !r)) shape_counts;
    s_discrepancies = List.rev !discrepancies;
  }

let discrepancy_to_string d =
  Printf.sprintf
    "DISCREPANCY [%s] shape=%s replay: --seed %d --index %d\n\
    \  query:   %s\n\
    \  detail:  %s\n\
    \  minimal (%d relations, %d shrink steps):\n\
    \  %s"
    d.d_evaluator (Gen.shape_to_string d.d_shape) d.d_seed d.d_index d.d_sql d.d_detail
    d.d_min_relations d.d_shrink_steps d.d_min_sql

let summary_to_string s =
  let shapes =
    String.concat " "
      (List.map (fun (sh, n) -> Printf.sprintf "%s=%d" (Gen.shape_to_string sh) n) s.s_by_shape)
  in
  let head =
    Printf.sprintf
      "queries=%d evaluations=%d discrepancies=%d\npaths: scan=%d wcoj=%d blas=%d\nshapes: %s"
      s.s_count s.s_evaluations
      (List.length s.s_discrepancies)
      s.s_scan s.s_wcoj s.s_blas shapes
  in
  match s.s_discrepancies with
  | [] -> head
  | ds -> head ^ "\n" ^ String.concat "\n" (List.map discrepancy_to_string ds)
