(* Fault-injection suite.

   Two layers: unit tests for the lib/fault registry itself (glob arming,
   LH_FAULT spec parsing, Nth/Prob trigger determinism, budget-exception
   kinds), and engine-level crash-only recovery regressions — every cache
   and long-lived structure must come through an injected fault with no
   partial state, proven by re-running the same workload on the same
   engine and demanding the clean answer. The full per-site sweep lives in
   Lh_qgen.Crashtest (smoke-tested here, run in anger by
   `lhfuzz --inject-fault` in ci.sh). *)

module Fault = Lh_fault.Fault
module Budget = Lh_util.Budget
module Pool = Lh_util.Pool
module L = Levelheaded
module Table = Lh_storage.Table
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Dense = Lh_blas.Dense
module Csr = Lh_blas.Csr
module Rows = Lh_qgen.Rows
module Crashtest = Lh_qgen.Crashtest
module Serve = Lh_serve.Serve

(* Every test leaves the process-global registry disarmed, whatever
   happens inside. *)
let with_disarm f = Fun.protect ~finally:Fault.disarm_all f

(* ---- registry unit tests ---- *)

let test_glob_match () =
  let cases =
    [
      ("pool.chunk", "pool.chunk", true);
      ("pool.*", "pool.chunk", true);
      ("pool.*", "plan_cache.fill", false);
      ("*.gemm", "dense.gemm", true);
      ("*", "anything.at.all", true);
      ("dense.gemm", "dense.gemv", false);
      ("e*e", "engine", true);
      ("*chunk*", "pool.chunk", true);
      ("", "", true);
      ("", "x", false);
    ]
  in
  List.iter
    (fun (pattern, name, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "glob %S vs %S" pattern name)
        want
        (Fault.glob_match ~pattern name))
    cases

let test_parse_spec () =
  (match Fault.parse_spec "pool.*:kind=timeout:nth=3, dense.gemm:p=0.5:seed=9, engine.query:always" with
  | Ok [ s1; s2; s3 ] ->
      Alcotest.(check string) "pattern 1" "pool.*" s1.Fault.sp_pattern;
      Alcotest.(check bool) "kind 1" true (s1.Fault.sp_kind = Fault.Timeout);
      Alcotest.(check bool) "trigger 1" true (s1.Fault.sp_trigger = Fault.Nth 3);
      Alcotest.(check bool) "trigger 2" true (s2.Fault.sp_trigger = Fault.Prob (0.5, 9));
      Alcotest.(check bool) "kind 2 defaults generic" true (s2.Fault.sp_kind = Fault.Generic);
      Alcotest.(check bool) "trigger 3" true (s3.Fault.sp_trigger = Fault.Always)
  | Ok _ -> Alcotest.fail "expected exactly three specs"
  | Error m -> Alcotest.failf "parse failed: %s" m);
  let rejected text =
    match Fault.parse_spec text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to be rejected" text
  in
  rejected "x:kind=bogus";
  rejected "x:nth=0";
  rejected "x:nth=many";
  rejected "x:p=2.0";
  rejected "x:frobnicate=1";
  rejected "x:nth";
  match Fault.parse_spec "a.site:nth=2" with
  | Ok [ s ] -> Alcotest.(check bool) "minimal spec" true (s.Fault.sp_trigger = Fault.Nth 2)
  | _ -> Alcotest.fail "minimal spec should parse"

let test_nth_trigger () =
  with_disarm @@ fun () ->
  let s = Fault.site "test.nth" in
  Fault.arm ~trigger:(Fault.Nth 5) "test.nth";
  for _ = 1 to 4 do
    Fault.hit s
  done;
  (match Fault.hit s with
  | () -> Alcotest.fail "expected the 5th hit to fire"
  | exception Fault.Injected n -> Alcotest.(check string) "payload is the site name" "test.nth" n);
  (* Nth fires exactly once; later hits pass through. *)
  for _ = 1 to 20 do
    Fault.hit s
  done;
  Alcotest.(check int) "fired exactly once" 1 (Fault.fired "test.nth");
  Alcotest.(check int) "hits keep counting" 25 (Fault.hits "test.nth")

let test_prob_deterministic () =
  with_disarm @@ fun () ->
  let pattern seed =
    Fault.disarm_all ();
    Fault.arm ~trigger:(Fault.Prob (0.3, seed)) "test.prob";
    let s = Fault.site "test.prob" in
    List.init 200 (fun _ ->
        match Fault.hit s with () -> false | exception Fault.Injected _ -> true)
  in
  let p1 = pattern 1 in
  Alcotest.(check bool) "same seed, same firings" true (p1 = pattern 1);
  Alcotest.(check bool) "different seed, different firings" true (p1 <> pattern 2);
  Alcotest.(check bool) "p=0.3 fires sometimes" true (List.mem true p1);
  Alcotest.(check bool) "p=0.3 passes sometimes" true (List.mem false p1)

let test_late_registration_armed () =
  with_disarm @@ fun () ->
  Fault.arm "test.late.*";
  (* The site registers after arming — exactly the LH_FAULT situation,
     where the env is parsed before any library module initializes. *)
  let s = Fault.site "test.late.unique" in
  match Fault.hit s with
  | () -> Alcotest.fail "late-registered site should be armed by the earlier glob"
  | exception Fault.Injected n -> Alcotest.(check string) "site name" "test.late.unique" n

let test_most_recent_arming_wins () =
  with_disarm @@ fun () ->
  let s = Fault.site "test.win" in
  Fault.arm ~kind:Fault.Timeout "test.win";
  Fault.arm ~kind:Fault.Generic "test.*";
  (match Fault.hit s with
  | () -> Alcotest.fail "expected a firing"
  | exception Fault.Injected _ -> ()
  | exception Budget.Timed_out -> Alcotest.fail "older arming won over the newer glob");
  Alcotest.(check bool) "armed_sites lists it" true (List.mem "test.win" (Fault.armed_sites ()))

let test_kinds_raise_budget_exns () =
  with_disarm @@ fun () ->
  let s = Fault.site "test.kind" in
  Fault.arm ~kind:Fault.Timeout "test.kind";
  (match Fault.hit s with
  | () -> Alcotest.fail "expected Timed_out"
  | exception Budget.Timed_out -> ());
  Fault.disarm_all ();
  Fault.arm ~kind:Fault.Oom "test.kind";
  match Fault.hit s with
  | () -> Alcotest.fail "expected Out_of_memory_budget"
  | exception Budget.Out_of_memory_budget -> ()

(* ---- pool: injected chunk fault re-raises; pool stays usable ---- *)

let test_pool_chunk_injection () =
  with_disarm @@ fun () ->
  let pool = Pool.create ~workers:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Fault.arm "pool.chunk";
      (match Pool.run pool ~chunks:8 (fun _ -> ()) with
      | () -> Alcotest.fail "expected the injected chunk fault to re-raise"
      | exception Fault.Injected s -> Alcotest.(check string) "site" "pool.chunk" s);
      Fault.disarm_all ();
      let n = Atomic.make 0 in
      Pool.run pool ~chunks:8 (fun _ -> Atomic.incr n);
      Alcotest.(check int) "pool fully usable after injected fault" 8 (Atomic.get n))

(* ---- engine-level crash-only recovery regressions ---- *)

let register_matrix e name triplets =
  let rows = Array.of_list (List.map (fun (i, _, _) -> i) triplets) in
  let cols = Array.of_list (List.map (fun (_, j, _) -> j) triplets) in
  let vals = Array.of_list (List.map (fun (_, _, v) -> v) triplets) in
  L.Engine.register e
    (Table.create ~name ~schema:Lh_datagen.Matrices.matrix_schema ~dict:(L.Engine.dict e)
       [| Table.Icol rows; Table.Icol cols; Table.Fcol vals |])

let ta = [ (0, 0, 1.0); (0, 1, 2.0); (1, 2, 3.0); (2, 1, -1.5); (3, 3, 4.0); (1, 0, 0.5) ]
let tb = [ (0, 1, 0.5); (1, 0, 2.0); (2, 2, -3.0); (3, 1, 1.0); (1, 3, 2.5); (2, 0, -0.25) ]

let small_engine () =
  let e = L.Engine.create () in
  register_matrix e "a" ta;
  register_matrix e "b" tb;
  e

let chain_sql = "select a.row, sum(a.v * b.v) as s from a, b where a.col = b.row group by a.row"

let expect_fault_error ~site = function
  | Ok _ -> Alcotest.failf "expected the %s fault to surface as a typed error" site
  | Error (L.Engine.Error.Fault_injected s) -> Alcotest.(check string) "fault site" site s
  | Error e -> Alcotest.failf "unexpected error: %s" (L.Engine.Error.to_string e)

let requery_matches ~what ~expect eng sql =
  match L.Engine.query_result eng sql with
  | Ok t -> Helpers.check_rows_equal what expect (Table.to_rows t)
  | Error e -> Alcotest.failf "%s: re-query failed: %s" what (L.Engine.Error.to_string e)

(* Aborting a trie build mid-query must leave no partial trie behind: the
   re-query on the same engine (which re-reads the trie cache) must match
   a clean engine exactly. *)
let test_trie_abort_requery () =
  with_disarm @@ fun () ->
  let expect = Table.to_rows (L.Engine.query (small_engine ()) chain_sql) in
  let e = small_engine () in
  Fault.arm "trie.build.node";
  expect_fault_error ~site:"trie.build.node" (L.Engine.query_result e chain_sql);
  Alcotest.(check bool) "fault fired" true (Fault.fired "trie.build.node" > 0);
  Fault.disarm_all ();
  requery_matches ~what:"re-query after aborted trie build" ~expect e chain_sql

(* A fault between planning and publishing the plan-cache entry must not
   leave a half-installed plan. *)
let test_plan_cache_abort () =
  with_disarm @@ fun () ->
  let expect = Table.to_rows (L.Engine.query (small_engine ()) chain_sql) in
  let e = small_engine () in
  Fault.arm "plan_cache.fill";
  expect_fault_error ~site:"plan_cache.fill" (L.Engine.query_result e chain_sql);
  Fault.disarm_all ();
  (* This run replans from scratch and installs the entry... *)
  requery_matches ~what:"first re-query (replans)" ~expect e chain_sql;
  (* ...and this one is served from the cache — same rows either way. *)
  requery_matches ~what:"second re-query (cached plan)" ~expect e chain_sql

let test_prepared_survives_bind_fault () =
  with_disarm @@ fun () ->
  let e = small_engine () in
  let stmt =
    L.Engine.prepare e
      "select a.row, sum(a.v * b.v) as s from a, b where a.col = b.row and b.v > $1 group by a.row"
  in
  let params = [ Dtype.VFloat (-10.0) ] in
  let expect = Table.to_rows (L.Engine.Stmt.exec stmt params) in
  Fault.arm "engine.bind";
  (match L.Engine.Stmt.exec stmt params with
  | _ -> Alcotest.fail "expected the bind fault to raise"
  | exception L.Engine.Error (L.Engine.Error.Fault_injected s) ->
      Alcotest.(check string) "fault site" "engine.bind" s);
  Fault.disarm_all ();
  Helpers.check_rows_equal "statement usable after failed exec" expect
    (Table.to_rows (L.Engine.Stmt.exec stmt params))

let test_load_csv_fault_leaves_catalog_clean () =
  with_disarm @@ fun () ->
  let path = Filename.temp_file "lh_fault" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      for i = 0 to 9 do
        Printf.fprintf oc "%d,%d,%g\n" i (i mod 4) (float_of_int i +. 0.5)
      done;
      close_out oc;
      let schema =
        Schema.create
          [
            ("i", Dtype.Int, Schema.Key);
            ("j", Dtype.Int, Schema.Key);
            ("v", Dtype.Float, Schema.Annotation);
          ]
      in
      let sql = "select sum(v) as s from t" in
      let clean = L.Engine.create () in
      ignore (L.Engine.load_csv clean ~name:"t" ~schema path);
      let expect = Table.to_rows (L.Engine.query clean sql) in
      let e = L.Engine.create () in
      Fault.arm ~trigger:(Fault.Nth 4) "csv.line";
      (match L.Engine.load_csv e ~name:"t" ~schema path with
      | _ -> Alcotest.fail "expected the csv fault to raise"
      | exception L.Engine.Error (L.Engine.Error.Fault_injected s) ->
          Alcotest.(check string) "fault site" "csv.line" s);
      Alcotest.(check bool)
        "no partial table registered" true
        (L.Catalog.find (L.Engine.catalog e) "t" = None);
      Fault.disarm_all ();
      ignore (L.Engine.load_csv e ~name:"t" ~schema path);
      requery_matches ~what:"query after recovered ingest" ~expect e sql)

(* ---- budget checkpoints inside the BLAS kernels ---- *)

let test_budget_checked_in_kernels () =
  let b = Budget.create ~max_seconds:0.0 () in
  let m = Dense.init ~rows:128 ~cols:16 (fun i j -> float_of_int ((i * 7) + j)) in
  let x = Array.make 16 1.0 in
  Budget.start b;
  (match Dense.gemv ~budget:b m x with
  | _ -> Alcotest.fail "gemv: expected Timed_out"
  | exception Budget.Timed_out -> ());
  Budget.start b;
  (match Dense.gemm ~budget:b m (Dense.init ~rows:16 ~cols:8 (fun _ _ -> 1.0)) with
  | _ -> Alcotest.fail "gemm: expected Timed_out"
  | exception Budget.Timed_out -> ());
  let coo =
    Lh_blas.Coo.create ~nrows:4 ~ncols:4 ~row:[| 0; 1; 2; 3 |] ~col:[| 1; 2; 3; 0 |]
      ~value:[| 1.0; 2.0; 3.0; 4.0 |]
  in
  let s = Csr.of_coo coo in
  Budget.start b;
  (match Csr.spmv ~budget:b s (Array.make 4 1.0) with
  | _ -> Alcotest.fail "spmv: expected Timed_out"
  | exception Budget.Timed_out -> ());
  Budget.start b;
  (match Csr.spgemm ~budget:b s s with
  | _ -> Alcotest.fail "spgemm: expected Timed_out"
  | exception Budget.Timed_out -> ());
  (* The default budget is unlimited: the same calls succeed. *)
  ignore (Dense.gemv m x);
  ignore (Csr.spgemm s s)

(* ---- the full per-site sweep, in miniature ---- *)

let test_crashtest_smoke () =
  let summary = Lh_qgen.Crashtest.run ~seed:7 () in
  if not (Lh_qgen.Crashtest.ok summary) then
    Alcotest.failf "crashtest failed:\n%s" (Lh_qgen.Crashtest.to_text summary)

(* ---- the crash-only trial driver, on fake steps ---- *)

(* A synthetic site: the [test.*] prefix is exempt from the sweep's
   coverage check. *)
let trial_site = Fault.site "test.trial"

(* Hit the site; a fault comes back as the error [to_error] makes of it. *)
let hit_then to_error =
  match Fault.hit trial_site with () -> Ok () | exception e -> Error (to_error e)

let typed e = Serve.Engine_error (L.Engine.error_of_exn e)

let show = function
  | None -> "unreached"
  | Some Crashtest.Passed -> "passed"
  | Some (Crashtest.Excused m) -> "excused: " ^ m
  | Some (Crashtest.Failed m) -> "failed: " ^ m

(* [want]: [None], [Some Passed], or [Some (Failed p)] for a failure
   message starting with [p]. *)
let trial_case name ~want ?(check = fun _ () -> Ok ()) step =
  Alcotest.test_case name `Quick (fun () ->
      let got =
        with_disarm (fun () ->
            Crashtest.trial ~site:"test.trial" ~fixture:ignore ~step ~check ())
      in
      match (want, got) with
      | None, None | Some Crashtest.Passed, Some Crashtest.Passed -> ()
      | Some (Crashtest.Failed p), Some (Crashtest.Failed m) when String.starts_with ~prefix:p m
        -> ()
      | _ -> Alcotest.failf "want %s, got %s" (show want) (show got))

let trial_cases =
  [
    trial_case "typed error + clean recovery passes" ~want:(Some Crashtest.Passed) (fun () ->
        hit_then typed);
    trial_case "swallowed fault fails"
      ~want:(Some (Crashtest.Failed "generic: the fault fired but the step succeeded"))
      (fun () ->
        (try Fault.hit trial_site with Fault.Injected _ -> ());
        Ok ());
    trial_case "site never hit is unreached" ~want:None (fun () -> Ok ());
    trial_case "timeout surfacing as Fault_injected fails"
      ~want:(Some (Crashtest.Failed "timeout: expected the typed fault error"))
      (fun () ->
        hit_then (fun _ -> Serve.Engine_error (L.Engine.Error.Fault_injected "test.trial")));
    trial_case "Serve.Closed fails"
      ~want:(Some (Crashtest.Failed "generic: expected the typed fault error"))
      (fun () -> hit_then (fun _ -> Serve.Closed "service"));
    trial_case "raw exception escaping the step fails"
      ~want:(Some (Crashtest.Failed "generic: unhandled exception"))
      (fun () ->
        Fault.hit trial_site;
        Ok ());
    trial_case "recovery check with different rows fails"
      ~want:(Some (Crashtest.Failed "generic: "))
      ~check:(fun _ () ->
        match Rows.diff ~expect:[ [ Dtype.VFloat 1.0 ] ] ~got:[ [ Dtype.VFloat 2.0 ] ] with
        | None -> Ok ()
        | Some d -> Error d)
      (fun () -> hit_then typed);
  ]

(* One fresh fixture per kind, each released, and the registry left
   disarmed even when the step raises. *)
let test_trial_fixture_lifecycle () =
  let made = ref 0 and released = ref 0 in
  ignore
    (with_disarm (fun () ->
         Crashtest.trial ~site:"test.trial" ~release:(fun () -> incr released)
           ~fixture:(fun () -> incr made)
           ~step:(fun () -> hit_then typed)
           ~check:(fun _ () -> Ok ())
           ()));
  Alcotest.(check int) "a fixture per kind" 3 !made;
  Alcotest.(check int) "every fixture released" 3 !released;
  ignore
    (Crashtest.trial ~site:"test.trial" ~fixture:ignore
       ~step:(fun () -> failwith "boom")
       ~check:(fun _ () -> Ok ())
       ());
  Alcotest.(check (list string)) "registry disarmed" [] (Fault.armed_sites ())

(* ---- property: any injected fault => typed error + correct re-query ---- *)

let gen_inject =
  QCheck2.Gen.(
    let site =
      oneofl
        [
          "engine.query";
          "engine.prepare";
          "engine.bind";
          "plan_cache.fill";
          "exec.wcoj.leaf";
          "trie.build.node";
        ]
    in
    let kind = oneofl [ Fault.Generic; Fault.Timeout; Fault.Oom ] in
    let table =
      list_size (int_range 0 20)
        (let* i = int_range 0 4 in
         let* j = int_range 0 4 in
         let* v = int_range (-3) 3 in
         return (i, j, float_of_int v))
    in
    triple site kind (pair table table))

let qcheck_fault_recovery =
  Helpers.qtest ~count:60 "injected fault => typed error and correct re-query" gen_inject
    (fun (site, kind, (rows_a, rows_b)) ->
      with_disarm @@ fun () ->
      let mk () =
        let e = L.Engine.create () in
        register_matrix e "a" rows_a;
        register_matrix e "b" rows_b;
        e
      in
      match L.Engine.query_result (mk ()) chain_sql with
      | Error _ -> false (* the chain query is valid on any input *)
      | Ok t -> (
          let expect = Rows.canonical (Table.to_rows t) in
          let e = mk () in
          Fault.arm ~kind ~trigger:(Fault.Nth 1) site;
          let res = L.Engine.query_result e chain_sql in
          let fired = Fault.fired site > 0 in
          Fault.disarm_all ();
          let typed_error_ok =
            match (kind, res) with
            | _, Ok _ -> not fired (* firing must never yield a silent success *)
            | Fault.Generic, Error (L.Engine.Error.Fault_injected s) -> fired && s = site
            | (Fault.Timeout | Fault.Oom), Error L.Engine.Error.Budget_exceeded -> fired
            | _, Error _ -> false
          in
          typed_error_ok
          &&
          match L.Engine.query_result e chain_sql with
          | Ok t2 -> Rows.canonical (Table.to_rows t2) = expect
          | Error _ -> false))

let () =
  Alcotest.run "levelheaded-fault"
    [
      ( "registry",
        [
          Alcotest.test_case "glob matching" `Quick test_glob_match;
          Alcotest.test_case "LH_FAULT spec parsing" `Quick test_parse_spec;
          Alcotest.test_case "nth trigger fires exactly once" `Quick test_nth_trigger;
          Alcotest.test_case "prob trigger deterministic per seed" `Quick
            test_prob_deterministic;
          Alcotest.test_case "late-registered site picks up armed glob" `Quick
            test_late_registration_armed;
          Alcotest.test_case "most recent arming wins" `Quick test_most_recent_arming_wins;
          Alcotest.test_case "timeout/oom kinds raise budget exceptions" `Quick
            test_kinds_raise_budget_exns;
        ] );
      ("pool", [ Alcotest.test_case "injected chunk fault" `Quick test_pool_chunk_injection ]);
      ( "engine",
        [
          Alcotest.test_case "aborted trie build leaves no partial cache" `Quick
            test_trie_abort_requery;
          Alcotest.test_case "aborted plan-cache fill leaves no partial entry" `Quick
            test_plan_cache_abort;
          Alcotest.test_case "prepared statement survives bind fault" `Quick
            test_prepared_survives_bind_fault;
          Alcotest.test_case "aborted CSV load leaves catalog clean" `Quick
            test_load_csv_fault_leaves_catalog_clean;
        ] );
      ( "budget",
        [ Alcotest.test_case "kernels obey the budget" `Quick test_budget_checked_in_kernels ] );
      ( "crashtest",
        Alcotest.test_case "every fault site recovers" `Quick test_crashtest_smoke
        :: Alcotest.test_case "trial fixture lifecycle" `Quick test_trial_fixture_lifecycle
        :: trial_cases );
      ("property", [ qcheck_fault_recovery ]);
    ]
