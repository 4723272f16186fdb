(* Telemetry subsystem tests: counter/gauge semantics, span nesting,
   session reports, the trie-cache hit/miss lifecycle across repeated
   engine queries, and JSON / Chrome-trace round-trips through the
   in-repo parser. *)

module L = Levelheaded
module Obs = Lh_obs.Obs
module Report = Lh_obs.Report
module Json = Lh_obs.Json
module Hist = Lh_obs.Hist
module Baseline = Lh_obs.Baseline
module Fault = Lh_fault.Fault
module Table = Lh_storage.Table
module Dtype = Lh_storage.Dtype

let cval name (r : Report.t) = Option.value (List.assoc_opt name r.Report.counters) ~default:0

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- counters and gauges ---- *)

let test_counter_disabled_noop () =
  let c = Obs.counter "test.disabled" in
  Obs.set_enabled false;
  let before = Obs.value c in
  Obs.incr c;
  Obs.add c 10;
  Alcotest.(check int) "no-op when disabled" before (Obs.value c)

let test_counter_monotone () =
  let c = Obs.counter "test.monotone" in
  Obs.with_enabled true (fun () ->
      let v0 = Obs.value c in
      Obs.incr c;
      Alcotest.(check int) "incr" (v0 + 1) (Obs.value c);
      Obs.add c 4;
      Alcotest.(check int) "add" (v0 + 5) (Obs.value c))

let test_counter_idempotent_register () =
  let a = Obs.counter "test.same" and b = Obs.counter "test.same" in
  Obs.with_enabled true (fun () ->
      let v0 = Obs.value a in
      Obs.incr b;
      Alcotest.(check int) "one cell" (v0 + 1) (Obs.value a))

let test_gauge_set_max () =
  let g = Obs.gauge "test.gauge" in
  Obs.with_enabled true (fun () ->
      Obs.set g 7;
      Obs.set_max g 3;
      Alcotest.(check int) "set_max keeps larger" 7 (Obs.value g);
      Obs.set_max g 11;
      Alcotest.(check int) "set_max raises" 11 (Obs.value g));
  Alcotest.(check bool) "is_gauge" true (Obs.is_gauge "test.gauge");
  Alcotest.(check bool) "counter is not" false (Obs.is_gauge "test.monotone")

let test_diff_semantics () =
  let c = Obs.counter "test.diffc" and g = Obs.gauge "test.diffg" in
  Obs.with_enabled true (fun () ->
      Obs.add c 2;
      Obs.set g 5;
      let before = Obs.snapshot () in
      Obs.add c 3;
      Obs.set g 4;
      let after = Obs.snapshot () in
      let d = Obs.diff ~before ~after in
      Alcotest.(check int) "counter delta" 3 (List.assoc "test.diffc" d);
      Alcotest.(check int) "gauge end value" 4 (List.assoc "test.diffg" d))

let test_with_enabled_restores () =
  Obs.set_enabled false;
  (try Obs.with_enabled true (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" false (Obs.is_enabled ())

(* ---- spans ---- *)

let test_span_nesting () =
  Obs.with_enabled true (fun () ->
      Obs.clear_spans ();
      Obs.span "a" (fun () ->
          Obs.span ~args:[ ("k", "v") ] "b" (fun () -> ());
          Obs.span "c" (fun () -> ()));
      let ss = Obs.spans () in
      Alcotest.(check (list string)) "start order" [ "a"; "b"; "c" ]
        (List.map (fun s -> s.Obs.sname) ss);
      Alcotest.(check (list int)) "depths" [ 0; 1; 1 ] (List.map (fun s -> s.Obs.sdepth) ss);
      let a = List.nth ss 0 and b = List.nth ss 1 in
      Alcotest.(check bool) "b inside a" true
        (b.Obs.sstart >= a.Obs.sstart && b.Obs.sdur <= a.Obs.sdur);
      Alcotest.(check (list (pair string string))) "args" [ ("k", "v") ] b.Obs.sargs)

let test_span_exception_safe () =
  Obs.with_enabled true (fun () ->
      Obs.clear_spans ();
      (try Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> failwith "boom"))
       with Failure _ -> ());
      let ss = Obs.spans () in
      Alcotest.(check (list string)) "both recorded" [ "outer"; "inner" ]
        (List.map (fun s -> s.Obs.sname) ss);
      (* depth state must be restored: a fresh root span is depth 0 again *)
      Obs.span "again" (fun () -> ());
      let last = List.nth (Obs.spans ()) 2 in
      Alcotest.(check int) "depth restored" 0 last.Obs.sdepth)

let test_span_disabled_passthrough () =
  Obs.set_enabled false;
  Obs.clear_spans ();
  Alcotest.(check int) "result" 41 (Obs.span "nope" (fun () -> 41));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.spans ()))

let test_span_error_tag () =
  Obs.with_enabled true (fun () ->
      Obs.clear_spans ();
      (try Obs.span "failing" (fun () -> failwith "boom") with Failure _ -> ());
      Obs.span "clean" (fun () -> ());
      match Obs.spans () with
      | [ bad; good ] -> (
          Alcotest.(check bool) "clean span untagged" true
            (List.assoc_opt "error" good.Obs.sargs = None);
          match List.assoc_opt "error" bad.Obs.sargs with
          | Some msg ->
              Alcotest.(check bool) "tag names the exception" true (contains msg "boom")
          | None -> Alcotest.fail "exceptional exit not tagged with an error arg")
      | ss -> Alcotest.failf "expected two spans, got %d" (List.length ss))

(* ---- histograms ---- *)

let test_hist_bucket_boundaries () =
  List.iter
    (fun (ns, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of_ns %d" ns) b (Hist.bucket_of_ns ns))
    [
      (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3);
      (1023, 9); (1024, 10); (max_int, Hist.nbuckets - 1);
    ];
  (* every bucket's bounds land back in that bucket *)
  for i = 1 to Hist.nbuckets - 2 do
    let lo, hi = Hist.bucket_bounds_ns i in
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d" i) i (Hist.bucket_of_ns lo);
    Alcotest.(check int) (Printf.sprintf "hi-1 of bucket %d" i) i (Hist.bucket_of_ns (hi - 1))
  done

let test_hist_observe_gating () =
  let h = Hist.histogram "test.hist.gating" in
  Obs.set_enabled false;
  Hist.observe h 0.001;
  Alcotest.(check int) "disabled observe is a no-op" 0 (Hist.count (Hist.snapshot h));
  Hist.observe_always h 0.001;
  Alcotest.(check int) "observe_always records" 1 (Hist.count (Hist.snapshot h));
  Obs.with_enabled true (fun () -> Hist.observe h 0.002);
  Alcotest.(check int) "enabled observe records" 2 (Hist.count (Hist.snapshot h));
  (* negative / NaN inputs count as 0 ns (bucket 0) rather than raising *)
  Hist.observe_always h (-1.0);
  Hist.observe_always h Float.nan;
  Alcotest.(check int) "negative+nan in bucket 0" 2 ((Hist.snapshot h).Hist.sbuckets.(0))

(* The disabled-cost contract: a disabled observe is one atomic load and
   a branch — in particular it must not allocate (no closure, no boxed
   float, no snapshot). Minor-heap words are an observable proxy. *)
let test_hist_disabled_cost () =
  let h = Hist.histogram "test.hist.cost" in
  Obs.set_enabled false;
  for _ = 1 to 100 do Hist.observe h 1e-3 done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do Hist.observe h 1e-3 done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "10k disabled observes allocate ~nothing (%.0f words)" dw)
    true (dw < 256.0)

let snap buckets ~sum ~max_ns =
  let sb = Array.make Hist.nbuckets 0 in
  List.iter (fun (i, c) -> sb.(i) <- c) buckets;
  { Hist.sbuckets = sb; ssum_ns = sum; smax_ns = max_ns }

let test_hist_percentile_interpolation () =
  let check name want got = Alcotest.(check (float 1e-15)) name want got in
  Alcotest.(check (float 0.0)) "empty snapshot" 0.0 (Hist.percentile Hist.empty 0.5);
  (* 4 observations in bucket 4 = [16,32) ns with a known max of 30 ns:
     interpolation is linear between lo and the clamped hi *)
  let s = snap [ (4, 4) ] ~sum:80 ~max_ns:30 in
  check "p50 interpolates" 23e-9 (Hist.percentile s 0.5) (* 16 + (30-16)*(2/4) *);
  check "p100 is the max" 30e-9 (Hist.percentile s 1.0);
  check "p0 clamps to rank 1" (19.5e-9) (Hist.percentile s 0.0) (* 16 + 14*(1/4) *);
  (* two occupied buckets: the rank walk skips the first *)
  let s2 = snap [ (4, 2); (6, 2) ] ~sum:240 ~max_ns:100 in
  check "p50 stays in the low bucket" 32e-9 (Hist.percentile s2 0.5);
  check "p90 lands in the top bucket" 100e-9 (Hist.percentile s2 0.9);
  let st = Hist.stats s2 in
  Alcotest.(check bool) "percentiles monotone" true
    (st.Hist.st_p50 <= st.Hist.st_p90
    && st.Hist.st_p90 <= st.Hist.st_p99
    && st.Hist.st_p99 <= st.Hist.st_max_s);
  Alcotest.(check int) "stats count" 4 st.Hist.st_count;
  check "stats mean" 60e-9 st.Hist.st_mean_s

let test_hist_diff_merge () =
  let h = Hist.make () in
  Hist.observe_always h 1e-6;
  let before = Hist.snapshot h in
  Hist.observe_always h 4e-6;
  Hist.observe_always h 1e-3;
  let after = Hist.snapshot h in
  let d = Hist.diff ~before ~after in
  Alcotest.(check int) "diff counts the interval" 2 (Hist.count d);
  Alcotest.(check int) "diff sum is the interval sum" (after.Hist.ssum_ns - before.Hist.ssum_ns)
    d.Hist.ssum_ns;
  Alcotest.(check bool) "diff max bounded by lifetime max" true
    (d.Hist.smax_ns <= after.Hist.smax_ns);
  (* merging the before-snapshot with the interval recovers the after-
     snapshot exactly (counts and sums; max is an estimate) *)
  let m = Hist.merge before d in
  Alcotest.(check int) "merge count" (Hist.count after) (Hist.count m);
  Alcotest.(check int) "merge sum" after.Hist.ssum_ns m.Hist.ssum_ns;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "merge bucket %d" i) c m.Hist.sbuckets.(i))
    after.Hist.sbuckets;
  (* stats_json round-trips through the in-repo parser *)
  let j = Hist.stats_json after in
  Alcotest.(check bool) "stats_json round-trip" true (Json.parse (Json.to_string j) = j)

(* ---- session reports ---- *)

let test_session_deltas () =
  let c = Obs.counter "test.session" in
  let session () = Report.with_session (fun () -> Obs.incr c; Obs.add c 4) in
  let (), r1 = session () in
  let (), r2 = session () in
  Alcotest.(check int) "first delta" 5 (cval "test.session" r1);
  Alcotest.(check int) "second delta (not cumulative)" 5 (cval "test.session" r2);
  Alcotest.(check bool) "total positive" true (r1.Report.total_s >= 0.0)

(* ---- engine integration: trie cache lifecycle + stale-cache fix ---- *)

let matrix_rows vals = List.map (fun (i, j, v) -> [ Dtype.VInt i; Dtype.VInt j; Dtype.VFloat v ]) vals

let engine_with ?config vals =
  let e = L.Engine.create ?config () in
  ignore
    (L.Engine.register_rows e ~name:"m" ~schema:Lh_datagen.Matrices.matrix_schema
       (matrix_rows vals));
  e

let smm =
  "select m1.row, m2.col, sum(m1.v * m2.v) as v from m m1, m m2 where m1.col = m2.row group by \
   m1.row, m2.col"

let test_trie_cache_hit_miss () =
  let e = engine_with [ (0, 1, 2.0); (1, 2, 3.0); (5, 0, 1.0) ] in
  let run () = ignore (L.Engine.query e smm) in
  let (), cold = Report.with_session run in
  let (), hot = Report.with_session run in
  Alcotest.(check bool) "cold run misses" true (cval "trie_cache.miss" cold >= 1);
  Alcotest.(check bool) "cold run builds tries" true (cval "trie.built" cold >= 1);
  Alcotest.(check bool) "hot run hits" true (cval "trie_cache.hit" hot >= 1);
  Alcotest.(check int) "hot run never misses" 0 (cval "trie_cache.miss" hot);
  (* re-registering the table must invalidate: back to a cold run *)
  ignore
    (L.Engine.register_rows e ~name:"m" ~schema:Lh_datagen.Matrices.matrix_schema
       (matrix_rows [ (0, 1, 2.0); (1, 2, 3.0) ]));
  let (), recold = Report.with_session run in
  Alcotest.(check bool) "miss again after register_rows" true (cval "trie_cache.miss" recold >= 1)

let test_register_rows_invalidates () =
  (* the stale-cache regression: register_rows used to leave the trie
     cache intact, so a hot query kept answering from the old table *)
  let e = engine_with [ (0, 1, 2.0); (1, 2, 3.0) ] in
  Helpers.check_rows_equal "initial join"
    [ [ Dtype.VInt 0; Dtype.VInt 2; Dtype.VFloat 6.0 ] ]
    (Table.to_rows (L.Engine.query e smm));
  ignore
    (L.Engine.register_rows e ~name:"m" ~schema:Lh_datagen.Matrices.matrix_schema
       (matrix_rows [ (5, 6, 1.0) ]));
  Alcotest.(check int) "replacement visible" 0 (L.Engine.query e smm).Table.nrows

let test_analyze_phases_and_rows () =
  let e = engine_with [ (0, 1, 2.0); (1, 2, 3.0); (2, 0, 4.0) ] in
  let result, ex, r = L.Engine.query_analyze e smm in
  Alcotest.(check bool) "wcoj path" true (ex.L.Engine.epath = L.Engine.Wcoj_path);
  Alcotest.(check int) "rows.emitted matches result" result.Table.nrows (cval "rows.emitted" r);
  let phases = Report.phases r in
  let names = List.map fst phases in
  Alcotest.(check bool) "has parse phase" true (List.mem "parse" names);
  Alcotest.(check bool) "has finalize phase" true (List.mem "finalize" names);
  let accounted = List.fold_left (fun a (_, d) -> a +. d) 0.0 phases in
  Alcotest.(check bool) "phases within total" true (accounted <= r.Report.total_s *. 1.05);
  Alcotest.(check bool) "phases non-trivial" true (accounted > 0.0);
  (* the text report renders without raising and mentions the cache *)
  let text = Report.to_text r in
  Alcotest.(check bool) "text has phase table" true
    (String.length text > 0 && List.mem "parse" names)

(* ---- JSON round-trips ---- *)

let test_json_parse_basics () =
  Alcotest.(check bool) "scalars" true
    (Json.parse "[1, -2.5, \"a\\nb\", true, false, null]"
    = Json.List
        [ Json.Int 1; Json.Float (-2.5); Json.String "a\nb"; Json.Bool true; Json.Bool false; Json.Null ]);
  Alcotest.(check bool) "nested object" true
    (Json.parse "{\"k\": {\"n\": -3}}" = Json.Obj [ ("k", Json.Obj [ ("n", Json.Int (-3)) ]) ]);
  Alcotest.(check bool) "unicode escape" true (Json.parse "\"\\u0041\"" = Json.String "A")

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected Parse_error on %S" s)
    [ "{"; "1 2"; "[1,]"; "nul"; "\"unterminated" ]

let test_json_roundtrip_tree () =
  let t =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("f", Json.Float 0.1);
        ("whole", Json.Float 2.0);
        ("s", Json.String "quote\" slash\\ newline\n tab\t π");
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Int (-7) ]);
      ]
  in
  Alcotest.(check bool) "tree survives print+parse" true (Json.parse (Json.to_string t) = t)

let test_report_sinks_roundtrip () =
  let e = engine_with [ (0, 1, 2.0); (1, 2, 3.0) ] in
  let _, _, r = L.Engine.query_analyze e smm in
  let metrics = Report.metrics_json r in
  let reparsed = Json.parse (Json.to_string metrics) in
  Alcotest.(check bool) "metrics survive round-trip" true (reparsed = metrics);
  (match Json.member "total_seconds" reparsed with
  | Some v ->
      Alcotest.(check (float 1e-9)) "total preserved" r.Report.total_s
        (Option.get (Json.to_float v))
  | None -> Alcotest.fail "missing total_seconds");
  let trace = Report.chrome_trace r in
  let tre = Json.parse (Json.to_string trace) in
  Alcotest.(check bool) "trace survives round-trip" true (tre = trace);
  match Json.member "traceEvents" tre with
  | Some (Json.List evs) ->
      Alcotest.(check bool) "has events" true (List.length evs > 0);
      List.iter
        (fun ev ->
          match Json.member "ph" ev with
          | Some (Json.String ("X" | "C" | "M")) -> ()
          | _ -> Alcotest.fail "unexpected event phase")
        evs
  | _ -> Alcotest.fail "missing traceEvents"

(* Property: any finite JSON tree survives print + parse. NaN/infinite
   floats are excluded by construction — the emitter deliberately prints
   them as null. *)
let gen_json =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let scalar =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) (int_range (-1_000_000_000) 1_000_000_000);
                 map
                   (fun f -> Json.Float (if Float.is_finite f then f else 1.5))
                   float;
                 map (fun s -> Json.String s) (small_string ~gen:printable);
               ]
           in
           if n = 0 then scalar
           else
             frequency
               [
                 (3, scalar);
                 (1, map (fun xs -> Json.List xs) (list_size (int_bound 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 4)
                        (pair (small_string ~gen:printable) (self (n / 2)))) );
               ]))

let qcheck_json_roundtrip =
  Helpers.qtest ~count:400 "json print/parse round-trip" gen_json (fun t ->
      Json.parse (Json.to_string t) = t)

(* ---- baseline comparison (the bench --compare gate) ---- *)

let bcell key seconds =
  { Baseline.key; outcome = Printf.sprintf "%.4fs" seconds; seconds = Some seconds }

let test_baseline_self_compare () =
  let cells =
    [ bcell "a" 0.1; bcell "b" 0.01; { Baseline.key = "c"; outcome = "oom"; seconds = None } ]
  in
  let v = Baseline.compare_runs ~baseline:cells ~current:cells () in
  Alcotest.(check bool) "ok" true (Baseline.ok v);
  Alcotest.(check int) "no regressions" 0 (List.length v.Baseline.regressions);
  Alcotest.(check int) "no warnings" 0 (List.length v.Baseline.warnings);
  Alcotest.(check bool) "text verdict" true (contains (Baseline.to_text v) "baseline compare ok")

let test_baseline_regression_detected () =
  let v =
    Baseline.compare_runs ~baseline:[ bcell "a" 0.1; bcell "b" 0.1 ]
      ~current:[ bcell "a" 0.4; bcell "b" 0.1 ] ()
  in
  Alcotest.(check bool) "gate fires" false (Baseline.ok v);
  Alcotest.(check int) "exactly one regression" 1 (List.length v.Baseline.regressions);
  Alcotest.(check bool) "text flags it" true (contains (Baseline.to_text v) "REGRESSION: a");
  (* an improvement is a note, never a regression *)
  let v2 = Baseline.compare_runs ~baseline:[ bcell "a" 0.4 ] ~current:[ bcell "a" 0.1 ] () in
  Alcotest.(check bool) "improvement ok" true (Baseline.ok v2);
  Alcotest.(check int) "improvement noted" 1 (List.length v2.Baseline.notes)

let test_baseline_noise_floor () =
  (* 4x slower but only 0.3 ms absolute: below the min_seconds floor *)
  let base = [ bcell "a" 0.0001 ] and cur = [ bcell "a" 0.0004 ] in
  let v = Baseline.compare_runs ~baseline:base ~current:cur () in
  Alcotest.(check bool) "microsecond cells don't flap" true (Baseline.ok v);
  let v2 = Baseline.compare_runs ~min_seconds:0.0 ~baseline:base ~current:cur () in
  Alcotest.(check bool) "floor removed: regression" false (Baseline.ok v2);
  (* within relative tolerance never regresses, whatever the floor *)
  let v3 =
    Baseline.compare_runs ~min_seconds:0.0 ~baseline:[ bcell "a" 0.1 ]
      ~current:[ bcell "a" 0.14 ] ()
  in
  Alcotest.(check bool) "within tolerance" true (Baseline.ok v3)

let test_baseline_outcome_flip_and_cell_sets () =
  let base = [ bcell "a" 0.1; bcell "gone" 0.1 ] in
  let cur = [ { Baseline.key = "a"; outcome = "oom"; seconds = None }; bcell "new" 0.1 ] in
  let v = Baseline.compare_runs ~baseline:base ~current:cur () in
  Alcotest.(check bool) "success -> oom regresses" false (Baseline.ok v);
  Alcotest.(check int) "missing + added cells warn" 2 (List.length v.Baseline.warnings)

let test_baseline_cells_of_json () =
  let record sql secs =
    Json.Obj
      [
        ("experiment", Json.String "e");
        ("system", Json.String "s");
        ("sql", Json.String sql);
        ("outcome", Json.String "1.0ms");
        ("seconds", Json.Float secs);
      ]
  in
  (* the same SQL at two scale factors must yield two distinct cells *)
  match Baseline.cells_of_json (Json.List [ record "q" 0.1; record "q" 0.2 ]) with
  | [ c1; c2 ] -> (
      Alcotest.(check bool) "occurrence keys distinct" true (c1.Baseline.key <> c2.Baseline.key);
      Alcotest.(check (option (float 1e-12))) "seconds parsed" (Some 0.1) c1.Baseline.seconds;
      match Baseline.scale 3.0 [ c1 ] with
      | [ s ] ->
          Alcotest.(check (option (float 1e-12)))
            "scale multiplies seconds" (Some 0.3) s.Baseline.seconds
      | cells -> Alcotest.failf "scale changed shape (%d cells)" (List.length cells))
  | cells -> Alcotest.failf "expected 2 cells, got %d" (List.length cells)

(* ---- per-query profiles ---- *)

let profile_exn () = Alcotest.fail "no profile record after the query"

let test_profile_ok_outcome () =
  let e = engine_with [ (0, 1, 2.0); (1, 2, 3.0); (2, 0, 4.0) ] in
  Obs.with_enabled true (fun () ->
      let tbl = L.Engine.query e smm in
      match L.Engine.last_profile e with
      | None -> profile_exn ()
      | Some p ->
          Alcotest.(check bool) "outcome ok" true (p.L.Profile.p_outcome = L.Profile.Ok_result);
          Alcotest.(check string) "path" "wcoj" p.L.Profile.p_path;
          Alcotest.(check bool) "plan summarizes the GHD" true
            (contains p.L.Profile.p_plan "fhw");
          Alcotest.(check int) "rows_out" tbl.Table.nrows p.L.Profile.p_rows_out;
          Alcotest.(check bool) "rows_in counts base tables" true (p.L.Profile.p_rows_in >= 3);
          Alcotest.(check bool) "total > 0" true (p.L.Profile.p_total_s > 0.0);
          Alcotest.(check bool) "phases nonempty" true (p.L.Profile.p_phases <> []);
          Alcotest.(check bool) "counters nonempty" true (p.L.Profile.p_counters <> []);
          Alcotest.(check bool) "normalized sql" true (String.length p.L.Profile.p_sql > 0))

(* The failure tests below also run each failure kind at plan-cache
   capacity 0 and through a prepared [Stmt.exec_result]: whichever way a
   query fails, the typed error it returns and the outcome its profile
   records must agree. *)
let capacity0 = { L.Config.default with L.Config.plan_cache_capacity = 0 }

let check_outcome_agrees name e res ~expect =
  match res with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error err -> (
      if not (expect err) then
        Alcotest.failf "%s: wrong error %s" name (L.Engine.Error.to_string err);
      let outcome =
        match err with
        | L.Engine.Error.Budget_exceeded -> L.Profile.Budget_overrun
        | L.Engine.Error.Fault_injected site -> L.Profile.Injected_fault site
        | err -> L.Profile.Typed_error (L.Engine.Error.to_string err)
      in
      match L.Engine.last_profile e with
      | Some p ->
          Alcotest.(check bool)
            (name ^ ": profile outcome agrees with the typed error")
            true (p.L.Profile.p_outcome = outcome)
      | None -> profile_exn ())

let test_profile_error_outcome () =
  let e = engine_with [ (0, 1, 2.0) ] in
  Obs.with_enabled true (fun () ->
      (match L.Engine.query_result e "select x from nosuch" with
      | Ok _ -> Alcotest.fail "expected a typed error"
      | Error _ -> ());
      match L.Engine.last_profile e with
      | Some { L.Profile.p_outcome = L.Profile.Typed_error _; p_rows_out; _ } ->
          Alcotest.(check int) "no rows on failure" 0 p_rows_out
      | Some _ -> Alcotest.fail "wrong outcome tag"
      | None -> profile_exn ());
  let typed = function
    | L.Engine.Error.Budget_exceeded | L.Engine.Error.Fault_injected _ -> false
    | _ -> true
  in
  Obs.with_enabled true (fun () ->
      let e0 = engine_with ~config:capacity0 [ (0, 1, 2.0) ] in
      check_outcome_agrees "capacity 0" e0
        (L.Engine.query_result e0 "select x from nosuch")
        ~expect:typed;
      (* a prepared statement fails at bind: wrong parameter count *)
      let stmt = L.Engine.prepare e "select sum(m.v) as s from m" in
      check_outcome_agrees "prepared" e
        (L.Engine.Stmt.exec_result stmt [ Dtype.VInt 1 ])
        ~expect:typed)

let test_profile_fault_outcome () =
  let e = engine_with [ (0, 1, 2.0); (1, 2, 3.0) ] in
  Obs.with_enabled true (fun () ->
      Fault.disarm_all ();
      Fault.arm ~kind:Fault.Generic ~trigger:(Fault.Nth 1) "engine.query";
      let res = L.Engine.query_result e smm in
      Fault.disarm_all ();
      (match res with
      | Error (L.Engine.Error.Fault_injected _) -> ()
      | _ -> Alcotest.fail "expected Fault_injected");
      match L.Engine.last_profile e with
      | Some { L.Profile.p_outcome = L.Profile.Injected_fault site; _ } ->
          Alcotest.(check string) "site recorded" "engine.query" site
      | Some _ -> Alcotest.fail "wrong outcome tag"
      | None -> profile_exn ());
  let fired_at site = function L.Engine.Error.Fault_injected s -> s = site | _ -> false in
  let with_fault site f =
    Fault.disarm_all ();
    Fault.arm ~kind:Fault.Generic ~trigger:(Fault.Nth 1) site;
    Fun.protect ~finally:Fault.disarm_all f
  in
  Obs.with_enabled true (fun () ->
      (* capacity 0 runs the same prepare and bind sites as the cached path *)
      let e0 = engine_with ~config:capacity0 [ (0, 1, 2.0); (1, 2, 3.0) ] in
      List.iter
        (fun site ->
          let res = with_fault site (fun () -> L.Engine.query_result e0 smm) in
          check_outcome_agrees ("capacity 0 at " ^ site) e0 res ~expect:(fired_at site))
        [ "engine.query"; "engine.prepare"; "engine.bind" ];
      let stmt = L.Engine.prepare e smm in
      let res = with_fault "engine.bind" (fun () -> L.Engine.Stmt.exec_result stmt []) in
      check_outcome_agrees "prepared at engine.bind" e res ~expect:(fired_at "engine.bind"))

let test_profile_budget_outcome () =
  let e = engine_with [ (0, 1, 2.0); (1, 2, 3.0); (2, 0, 4.0) ] in
  let saved = L.Engine.config e in
  let tiny = Lh_util.Budget.create ~max_seconds:1e-9 () in
  (* a grand-total aggregate has no join keys, so it takes the scan path,
     which budget-checks from row 0 — a nanosecond budget trips
     deterministically even on a 3-row table *)
  let scan_sql = "select sum(m.v) as s from m" in
  Obs.with_enabled true (fun () ->
      L.Engine.set_config e { saved with L.Config.budget = tiny };
      let res = L.Engine.query_result e scan_sql in
      L.Engine.set_config e saved;
      (match res with
      | Error L.Engine.Error.Budget_exceeded -> ()
      | Ok _ -> Alcotest.fail "expected a budget overrun"
      | Error e -> Alcotest.failf "wrong error: %s" (L.Engine.Error.to_string e));
      match L.Engine.last_profile e with
      | Some { L.Profile.p_outcome = L.Profile.Budget_overrun; _ } -> ()
      | Some _ -> Alcotest.fail "wrong outcome tag"
      | None -> profile_exn ());
  let budget = function L.Engine.Error.Budget_exceeded -> true | _ -> false in
  Obs.with_enabled true (fun () ->
      let e0 =
        engine_with ~config:{ capacity0 with L.Config.budget = tiny } [ (0, 1, 2.0); (1, 2, 3.0) ]
      in
      check_outcome_agrees "capacity 0" e0 (L.Engine.query_result e0 scan_sql) ~expect:budget;
      let stmt = L.Engine.prepare e scan_sql in
      L.Engine.set_config e { saved with L.Config.budget = tiny };
      let res = L.Engine.Stmt.exec_result stmt [] in
      L.Engine.set_config e saved;
      check_outcome_agrees "prepared" e res ~expect:budget)

let test_profile_disabled () =
  let e = engine_with [ (0, 1, 2.0); (1, 2, 3.0) ] in
  Obs.set_enabled false;
  ignore (L.Engine.query e smm);
  Alcotest.(check bool) "no profile when disabled" true (L.Engine.last_profile e = None)

let test_profile_sink_threshold_and_jsonl () =
  let e = engine_with [ (0, 1, 2.0); (1, 2, 3.0) ] in
  let lines = ref [] in
  L.Engine.set_profile_sink e (Some (fun p -> lines := L.Profile.to_string p :: !lines));
  let saved = L.Engine.config e in
  Obs.with_enabled true (fun () ->
      L.Engine.set_config e { saved with L.Config.slow_log_ms = 1e9 };
      ignore (L.Engine.query e smm);
      Alcotest.(check int) "below threshold: no line" 0 (List.length !lines);
      L.Engine.set_config e { saved with L.Config.slow_log_ms = 0.0 };
      ignore (L.Engine.query e smm);
      Alcotest.(check int) "threshold 0 logs every query" 1 (List.length !lines));
  L.Engine.set_config e saved;
  L.Engine.set_profile_sink e None;
  match !lines with
  | [ line ] -> (
      (* the slow-log line is the documented JSONL object *)
      let j = Json.parse line in
      List.iter
        (fun k ->
          if Json.member k j = None then Alcotest.failf "slow-log line missing %S" k)
        [
          "sql"; "plan"; "path"; "plan_cache"; "epoch"; "rows_in"; "rows_out"; "domains";
          "total_seconds"; "phases"; "counters"; "gc_major_words"; "outcome";
        ];
      match Json.member "outcome" j with
      | Some (Json.String "ok") -> ()
      | _ -> Alcotest.fail "outcome member should be \"ok\"")
  | ls -> Alcotest.failf "expected exactly one line, got %d" (List.length ls)

let () =
  Alcotest.run "lh_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "disabled no-op" `Quick test_counter_disabled_noop;
          Alcotest.test_case "monotone incr/add" `Quick test_counter_monotone;
          Alcotest.test_case "idempotent register" `Quick test_counter_idempotent_register;
          Alcotest.test_case "gauge set/set_max" `Quick test_gauge_set_max;
          Alcotest.test_case "diff semantics" `Quick test_diff_semantics;
          Alcotest.test_case "with_enabled restores" `Quick test_with_enabled_restores;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting + ordering" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "disabled passthrough" `Quick test_span_disabled_passthrough;
          Alcotest.test_case "error tag on exceptional exit" `Quick test_span_error_tag;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_hist_bucket_boundaries;
          Alcotest.test_case "observe gating" `Quick test_hist_observe_gating;
          Alcotest.test_case "disabled-cost contract" `Quick test_hist_disabled_cost;
          Alcotest.test_case "percentile interpolation" `Quick test_hist_percentile_interpolation;
          Alcotest.test_case "diff + merge" `Quick test_hist_diff_merge;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "self-compare is clean" `Quick test_baseline_self_compare;
          Alcotest.test_case "regression detected" `Quick test_baseline_regression_detected;
          Alcotest.test_case "noise floor" `Quick test_baseline_noise_floor;
          Alcotest.test_case "outcome flips + cell sets" `Quick
            test_baseline_outcome_flip_and_cell_sets;
          Alcotest.test_case "cells_of_json occurrence keys" `Quick test_baseline_cells_of_json;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "ok outcome" `Quick test_profile_ok_outcome;
          Alcotest.test_case "typed-error outcome" `Quick test_profile_error_outcome;
          Alcotest.test_case "injected-fault outcome" `Quick test_profile_fault_outcome;
          Alcotest.test_case "budget outcome" `Quick test_profile_budget_outcome;
          Alcotest.test_case "disabled: no profile" `Quick test_profile_disabled;
          Alcotest.test_case "sink threshold + JSONL shape" `Quick
            test_profile_sink_threshold_and_jsonl;
        ] );
      ( "sessions",
        [ Alcotest.test_case "counter deltas per session" `Quick test_session_deltas ] );
      ( "engine",
        [
          Alcotest.test_case "trie cache hit/miss lifecycle" `Quick test_trie_cache_hit_miss;
          Alcotest.test_case "register_rows invalidates caches" `Quick
            test_register_rows_invalidates;
          Alcotest.test_case "analyze phases + rows.emitted" `Quick test_analyze_phases_and_rows;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "tree round-trip" `Quick test_json_roundtrip_tree;
          Alcotest.test_case "report sinks round-trip" `Quick test_report_sinks_roundtrip;
          qcheck_json_roundtrip;
        ] );
    ]
