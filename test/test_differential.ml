(* Differential fuzzing, bounded for tier-1: a pinned-seed run asserting
   zero discrepancies across every evaluator, generator validity and
   determinism properties, and a demonstration that an injected
   wrong-answer bug is detected and shrunk to a tiny repro. ci.sh runs
   the full 1000-query sweep via bin/lhfuzz.exe. *)

module L = Levelheaded
module Gen = Lh_qgen.Gen
module Diff = Lh_qgen.Diff
module Shrink = Lh_qgen.Shrink
module Ast = Lh_sql.Ast
module Obs = Lh_obs.Obs

let spec = Gen.default_spec

(* -- the bounded differential run ---------------------------------- *)

let test_no_discrepancies () =
  let before = Obs.snapshot () in
  let summary = Obs.with_enabled true (fun () -> Diff.run ~seed:42 ~count:120 spec) in
  (match summary.Diff.s_discrepancies with
  | [] -> ()
  | d :: _ -> Alcotest.failf "differential run found:\n%s" (Diff.discrepancy_to_string d));
  Alcotest.(check int) "every query ran" 120 summary.Diff.s_count;
  Alcotest.(check int) "path counts add up" 120
    (summary.Diff.s_scan + summary.Diff.s_wcoj + summary.Diff.s_blas);
  (* 120 pinned-seed queries are enough to hit all three paths. *)
  Alcotest.(check bool) "scan path exercised" true (summary.Diff.s_scan > 0);
  Alcotest.(check bool) "wcoj path exercised" true (summary.Diff.s_wcoj > 0);
  Alcotest.(check bool) "blas path exercised" true (summary.Diff.s_blas > 0);
  let nevals = List.length (Diff.evaluator_names ~inject_bug:false) in
  Alcotest.(check int) "all evaluators ran on every query" (120 * nevals)
    summary.Diff.s_evaluations;
  (* fuzz.* counters moved while telemetry was enabled *)
  let moved name =
    let v s = Option.value (List.assoc_opt name s) ~default:0 in
    v (Obs.snapshot ()) - v before > 0
  in
  Alcotest.(check bool) "fuzz.evaluations counter wired" true (moved "fuzz.evaluations");
  Alcotest.(check bool) "fuzz.queries.wcoj counter wired" true (moved "fuzz.queries.wcoj")

(* -- generator properties ------------------------------------------ *)

let profile = lazy (Lh_qgen.Dataset.profile (Lh_qgen.Dataset.build ()))

let test_generator_valid () =
  (* Every generated query must survive the print -> parse round-trip and
     be accepted by the oracle (validity by construction). *)
  let eng = Lh_qgen.Dataset.build () in
  let lookup n = L.Catalog.find_exn (L.Engine.catalog eng) n in
  for index = 0 to 199 do
    let ast, shape = Gen.generate (Lazy.force profile) ~seed:7 ~index spec in
    let sql = Format.asprintf "%a" Ast.pp_query ast in
    let reparsed =
      try Lh_sql.Parser.parse sql
      with e ->
        Alcotest.failf "index %d (%s): %S does not re-parse: %s" index
          (Gen.shape_to_string shape) sql (Printexc.to_string e)
    in
    match Lh_baseline.Oracle.query ~lookup reparsed with
    | _ -> ()
    | exception e ->
        Alcotest.failf "index %d (%s): oracle rejects %S: %s" index (Gen.shape_to_string shape)
          sql (Printexc.to_string e)
  done

let test_generator_deterministic () =
  for index = 0 to 49 do
    let a, _ = Gen.generate (Lazy.force profile) ~seed:11 ~index spec in
    let b, _ = Gen.generate (Lazy.force profile) ~seed:11 ~index spec in
    if a <> b then Alcotest.failf "index %d: same (seed, index) produced different queries" index
  done;
  (* different seeds should not produce an identical stream *)
  let differs =
    List.exists
      (fun index ->
        let a, _ = Gen.generate (Lazy.force profile) ~seed:11 ~index spec in
        let b, _ = Gen.generate (Lazy.force profile) ~seed:12 ~index spec in
        a <> b)
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "seeds 11 and 12 diverge" true differs

let test_shape_restriction () =
  List.iter
    (fun shape ->
      let spec = { Gen.shapes = [ shape ]; max_relations = 3; semiring = false } in
      for index = 0 to 19 do
        let _, got = Gen.generate (Lazy.force profile) ~seed:3 ~index spec in
        if got <> shape then
          Alcotest.failf "asked for %s, generated %s" (Gen.shape_to_string shape)
            (Gen.shape_to_string got)
      done)
    Gen.all_shapes

(* -- injected bug: detection and shrinking ------------------------- *)

let test_injected_bug_detected_and_shrunk () =
  let summary = Diff.run ~inject_bug:true ~seed:42 ~count:30 spec in
  let buggy =
    List.filter
      (fun d -> d.Diff.d_evaluator = "buggy-sign-flip")
      summary.Diff.s_discrepancies
  in
  Alcotest.(check bool) "sign-flip bug detected" true (buggy <> []);
  (* every discrepancy must come from the injected evaluator *)
  Alcotest.(check int) "no false positives"
    (List.length summary.Diff.s_discrepancies)
    (List.length buggy);
  (* the shrinker reaches a <= 3-relation repro (acceptance bar); for a
     sign flip a single aggregate over one relation is typical *)
  List.iter
    (fun d ->
      if d.Diff.d_min_relations > 3 then
        Alcotest.failf "repro not minimal (%d relations):\n%s" d.Diff.d_min_relations
          (Diff.discrepancy_to_string d))
    buggy;
  let smallest =
    List.fold_left (fun acc d -> min acc d.Diff.d_min_relations) max_int buggy
  in
  Alcotest.(check int) "some repro reaches a single relation" 1 smallest;
  (* the report carries the replay coordinates and both SQL forms *)
  List.iter
    (fun d ->
      let s = Diff.discrepancy_to_string d in
      let has needle = Lh_util.Text.contains ~sub:needle s in
      Alcotest.(check bool) "replay seed printed" true (has "--seed 42");
      Alcotest.(check bool) "replay index printed" true
        (has (Printf.sprintf "--index %d" d.Diff.d_index));
      Alcotest.(check bool) "minimal sql printed" true (has d.Diff.d_min_sql))
    buggy

let test_shrink_preserves_validity () =
  (* Shrink candidates keep aliases bound and the join graph connected. *)
  for index = 0 to 59 do
    let ast, _ = Gen.generate (Lazy.force profile) ~seed:5 ~index spec in
    List.iter
      (fun (c : Ast.query) ->
        if c.Ast.from = [] then Alcotest.fail "candidate with empty FROM";
        if c.Ast.select = [] then Alcotest.fail "candidate with empty SELECT")
      (Shrink.candidates ast)
  done

let test_replay_pinpoints_query () =
  (* first_index replays exactly the query the report names *)
  let full = Diff.run ~inject_bug:true ~seed:42 ~count:10 spec in
  match full.Diff.s_discrepancies with
  | [] -> Alcotest.fail "expected the injected bug to fire within 10 queries"
  | d :: _ ->
      let replay =
        Diff.run ~inject_bug:true ~seed:42 ~first_index:d.Diff.d_index ~count:1 spec
      in
      let replayed =
        List.filter (fun r -> r.Diff.d_sql = d.Diff.d_sql) replay.Diff.s_discrepancies
      in
      Alcotest.(check bool) "replay reproduces the discrepancy" true (replayed <> [])

let () =
  Alcotest.run "differential"
    [
      ( "diff",
        [
          Alcotest.test_case "120 queries, all evaluators agree" `Quick test_no_discrepancies;
          Alcotest.test_case "injected bug detected and shrunk" `Quick
            test_injected_bug_detected_and_shrunk;
          Alcotest.test_case "replay pinpoints the query" `Quick test_replay_pinpoints_query;
        ] );
      ( "gen",
        [
          Alcotest.test_case "valid by construction (200 queries)" `Quick test_generator_valid;
          Alcotest.test_case "deterministic per (seed, index)" `Quick
            test_generator_deterministic;
          Alcotest.test_case "shape restriction honored" `Quick test_shape_restriction;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "candidates stay structurally valid" `Quick
            test_shrink_preserves_validity;
        ] );
    ]
