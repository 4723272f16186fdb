(* Parallel-vs-sequential differential suite.

   The contract under test: every parallel layer — the shared domain pool,
   the Parfor chunking, the partitioned trie build, the chunked CSV ingest,
   the row-blocked BLAS kernels and the executor's outer-loop parallelism —
   computes the same answer as its sequential twin. Storage and BLAS layers
   promise bit-identical results for any domain count; WCOJ results with
   float annotations may differ only by cross-chunk accumulation order, so
   engine-level comparisons go through [Helpers.value_close]. *)

module L = Levelheaded
module Parfor = Lh_util.Parfor
module Pool = Lh_util.Pool
module Table = Lh_storage.Table
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Trie = Lh_storage.Trie
module Dict = Lh_storage.Dict
module Dense = Lh_blas.Dense
module Csr = Lh_blas.Csr

(* ---- chunk_bounds: exhaustive partition property ---- *)

let test_chunk_bounds_exhaustive () =
  for n = 0 to 64 do
    for chunks = 1 to 64 do
      let prev = ref 0 in
      let smallest = ref max_int and largest = ref 0 in
      for k = 0 to chunks - 1 do
        let lo, hi = Parfor.chunk_bounds ~chunks ~n k in
        if lo <> !prev then
          Alcotest.failf "chunk_bounds ~chunks:%d ~n:%d %d: lo=%d, want %d" chunks n k lo !prev;
        if hi < lo then
          Alcotest.failf "chunk_bounds ~chunks:%d ~n:%d %d: hi=%d < lo=%d" chunks n k hi lo;
        smallest := min !smallest (hi - lo);
        largest := max !largest (hi - lo);
        prev := hi
      done;
      if !prev <> n then
        Alcotest.failf "chunk_bounds ~chunks:%d ~n:%d: covers [0,%d), want [0,%d)" chunks n !prev n;
      if !largest - !smallest > 1 then
        Alcotest.failf "chunk_bounds ~chunks:%d ~n:%d: sizes differ by %d" chunks n
          (!largest - !smallest)
    done
  done

let test_domain_count_policy () =
  Alcotest.(check bool) "recommended >= 1" true (Parfor.recommended_domains () >= 1);
  Alcotest.(check bool) "default >= 1" true (Parfor.default_domains () >= 1);
  match Parfor.env_domains () with
  | Some n ->
      Alcotest.(check int) "LH_DOMAINS pins default" n (Parfor.default_domains ());
      Alcotest.(check int) "LH_DOMAINS pins recommended" n (Parfor.recommended_domains ())
  | None -> Alcotest.(check int) "default is sequential" 1 (Parfor.default_domains ())

(* ---- pool: reuse, shutdown, nested rejection ---- *)

let test_pool_reuse () =
  let pool = Pool.create ~workers:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "workers spawned" 2 (Pool.workers pool);
      let sum_below n chunks =
        let acc = Array.make chunks 0 in
        Pool.run pool ~chunks (fun k ->
            let lo, hi = Parfor.chunk_bounds ~chunks ~n k in
            for i = lo to hi - 1 do
              acc.(k) <- acc.(k) + i
            done);
        Array.fold_left ( + ) 0 acc
      in
      Alcotest.(check int) "first task" (100 * 99 / 2) (sum_below 100 4);
      Alcotest.(check int) "second task on same pool" (50 * 49 / 2) (sum_below 50 3);
      Alcotest.(check int) "workers still parked" 2 (Pool.workers pool))

let test_pool_nested_busy () =
  let pool = Pool.create ~workers:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let rejections = Atomic.make 0 in
      Pool.run pool ~chunks:3 (fun _ ->
          match Pool.run pool ~chunks:1 (fun _ -> ()) with
          | () -> ()
          | exception Pool.Busy -> Atomic.incr rejections);
      Alcotest.(check int) "every nested run rejected" 3 (Atomic.get rejections))

let test_pool_shutdown_usable () =
  let pool = Pool.create ~workers:2 in
  Pool.shutdown pool;
  Alcotest.(check int) "workers joined" 0 (Pool.workers pool);
  let hits = Array.make 5 0 in
  Pool.run pool ~chunks:5 (fun k -> hits.(k) <- hits.(k) + 1);
  Alcotest.(check (array int)) "caller-only execution after shutdown" (Array.make 5 1) hits;
  Pool.shutdown pool (* idempotent *)

let test_pool_exception_propagates () =
  let pool = Pool.create ~workers:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      match Pool.run pool ~chunks:4 (fun k -> if k = 2 then failwith "chunk 2") with
      | () -> Alcotest.fail "expected the chunk exception to re-raise"
      | exception Failure msg ->
          Alcotest.(check string) "first failure re-raised" "chunk 2" msg;
          (* the pool must have drained and stayed usable *)
          Pool.run pool ~chunks:2 (fun _ -> ()))

let test_pool_fail_fast () =
  (* workers:0 — the submitter drains every chunk itself, sequentially, so
     the skip-after-failure accounting is deterministic: chunk 0 fails and
     the remaining 99 bodies must be skipped, not run. *)
  let pool = Pool.create ~workers:0 in
  let executed = ref 0 in
  (match
     Pool.run pool ~chunks:100 (fun k ->
         incr executed;
         if k = 0 then failwith "boom")
   with
  | () -> Alcotest.fail "expected the failure to re-raise"
  | exception Failure msg -> Alcotest.(check string) "first failure re-raised" "boom" msg);
  Alcotest.(check int) "bodies after the failure are skipped" 1 !executed;
  (* the failure is per-task state: the pool is immediately reusable *)
  let ok = ref 0 in
  Pool.run pool ~chunks:10 (fun _ -> incr ok);
  Alcotest.(check int) "pool reusable after fail-fast" 10 !ok

let test_pool_reuse_after_worker_failure () =
  let pool = Pool.create ~workers:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for round = 1 to 5 do
        (match
           Pool.run pool ~chunks:16 (fun k ->
               if k land 3 = round land 3 then failwith "injected")
         with
        | () -> Alcotest.fail "expected a failure"
        | exception Failure _ -> ());
        (* every worker re-parked, no wedged Busy state: a normal task on
           the same pool must run all its chunks *)
        let acc = Atomic.make 0 in
        Pool.run pool ~chunks:8 (fun _ -> Atomic.incr acc);
        Alcotest.(check int)
          (Printf.sprintf "round %d: task after failure runs all chunks" round)
          8 (Atomic.get acc)
      done)

(* ---- Parfor on the global pool ---- *)

let test_map_reduce_merge_order () =
  for domains = 1 to 6 do
    let collected =
      Parfor.map_reduce ~domains ~n:37
        ~init:(fun () -> ref [])
        ~body:(fun acc i -> acc := i :: !acc)
        ~merge:(fun a b ->
          a := !b @ !a;
          a)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "chunk-order merge at domains=%d" domains)
      (List.init 37 Fun.id) (List.rev !collected)
  done

let test_parfor_nested_degrades () =
  let total =
    Parfor.map_reduce ~domains:4 ~n:10
      ~init:(fun () -> ref 0)
      ~body:(fun acc i ->
        let inner =
          Parfor.map_reduce ~domains:4 ~n:5
            ~init:(fun () -> ref 0)
            ~body:(fun a j -> a := !a + j)
            ~merge:(fun a b ->
              a := !a + !b;
              a)
        in
        acc := !acc + (i * !inner))
      ~merge:(fun a b ->
        a := !a + !b;
        a)
  in
  Alcotest.(check int) "nested regions compute correctly" 450 !total

(* ---- trie build: bit-identical across domain counts ---- *)

let dump_trie t =
  let acc = ref [] in
  Trie.iter_tuples t (fun tup g ->
      acc :=
        (Array.to_list tup, Array.to_list g.Trie.codes, Array.to_list g.Trie.vec, g.Trie.mult)
        :: !acc);
  (List.rev !acc, Trie.cardinality t, Array.to_list t.Trie.level_max)

(* Narrow keys sort in one radix pass per level. Wide keys (up to 2^40)
   take several 11-bit passes; half of them come from a small pool with
   gaps in every digit, so duplicates and multi-row leaves stay common. *)
let gen_trie_input =
  QCheck2.Gen.(
    let* wide = bool in
    let key =
      if not wide then int_range 0 7
      else
        oneof
          [
            int_range 0 (1 lsl 40);
            (let* hi = int_range 0 3 in
             let* lo = int_range 0 7 in
             return ((hi lsl 38) lor (lo lsl 12) lor lo));
          ]
    in
    list_size (int_range 0 80)
      (let* k0 = key in
       let* k1 = key in
       let* g = int_range 0 3 in
       let* v = int_range (-5) 5 in
       return (k0, k1, g, float_of_int v)))

let qcheck_trie_differential =
  Helpers.qtest ~count:150 "trie build identical at domains=1/4" gen_trie_input (fun rows ->
      let n = List.length rows in
      let arr = Array.of_list rows in
      let col f = Array.map f arr in
      let keys2 = [| col (fun (k, _, _, _) -> k); col (fun (_, k, _, _) -> k) |] in
      let keys1 = [| col (fun (k, _, _, _) -> k) |] in
      let group_cols = [| col (fun (_, _, g, _) -> g) |] in
      let vals = col (fun (_, _, _, v) -> v) in
      let aggs = [| (( +. ), fun r -> vals.(r)) |] in
      let rows_idx = Array.init n Fun.id in
      let build ~domains keys =
        Trie.build ~domains ~keys ~rows:rows_idx ~group_cols ~aggs ()
      in
      (* two-level (parallel subtree path) and one-level (parallel leaf path) *)
      dump_trie (build ~domains:1 keys2) = dump_trie (build ~domains:4 keys2)
      && dump_trie (build ~domains:1 keys1) = dump_trie (build ~domains:4 keys1)
      && dump_trie (build ~domains:1 keys2) = dump_trie (build ~domains:3 keys2))

(* ---- CSV ingest: identical table and dictionary codes ---- *)

let test_csv_parallel_identical () =
  let path = Filename.temp_file "lh_par" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Repeated and unique strings exercise the dictionary merge; 97 rows
         do not divide evenly into 4 chunks. *)
      let rows =
        List.init 97 (fun i ->
            [
              string_of_int i;
              Printf.sprintf "cat%d" (i mod 7);
              Printf.sprintf "uniq%d" i;
              Printf.sprintf "2024-01-%02d" (1 + (i mod 28));
              Printf.sprintf "%d.25" i;
            ])
      in
      Lh_util.Csv.write_file path rows;
      let schema =
        Schema.create
          [
            ("id", Dtype.Int, Schema.Key);
            ("cat", Dtype.String, Schema.Key);
            ("uniq", Dtype.String, Schema.Annotation);
            ("d", Dtype.Date, Schema.Annotation);
            ("x", Dtype.Float, Schema.Annotation);
          ]
      in
      let load domains =
        let dict = Dict.create () in
        (* Pre-seeded strings model an engine dict shared with previously
           loaded tables: one that occurs in the file, one that does not. *)
        ignore (Dict.encode dict "cat3");
        ignore (Dict.encode dict "elsewhere");
        (Table.load_csv ~name:"t" ~schema ~dict ~domains path, dict)
      in
      let t1, d1 = load 1 in
      let t4, d4 = load 4 in
      Alcotest.(check int) "row count" 97 t4.Table.nrows;
      Alcotest.(check int) "dict sizes match" (Dict.size d1) (Dict.size d4);
      for c = 0 to Schema.ncols schema - 1 do
        match (t1.Table.cols.(c), t4.Table.cols.(c)) with
        | Table.Icol a, Table.Icol b ->
            Alcotest.(check (array int)) (Printf.sprintf "codes of column %d" c) a b
        | Table.Fcol a, Table.Fcol b ->
            Alcotest.(check (array (float 0.0))) (Printf.sprintf "floats of column %d" c) a b
        | _ -> Alcotest.failf "column %d: representation differs" c
      done;
      (* Same code assignment implies the same decoded strings, but check
         one explicitly: decoding must agree between the two dictionaries. *)
      for code = 0 to Dict.size d1 - 1 do
        if Dict.decode d1 code <> Dict.decode d4 code then
          Alcotest.failf "dict code %d: %S vs %S" code (Dict.decode d1 code) (Dict.decode d4 code)
      done)

(* ---- BLAS kernels: bit-identical across domain counts ---- *)

let test_dense_parallel_identical () =
  let st = Random.State.make [| 0x5eed |] in
  let rnd _ _ = Random.State.float st 2.0 -. 1.0 in
  (* 70 rows spans two GEMM row blocks (block = 64). *)
  let a = Dense.init ~rows:70 ~cols:33 rnd in
  let b = Dense.init ~rows:33 ~cols:65 rnd in
  let x = Array.init 33 (fun j -> rnd 0 j) in
  let c1 = Dense.gemm a b and c4 = Dense.gemm ~domains:4 a b in
  Alcotest.(check (array (float 0.0))) "gemm bit-identical" c1.Dense.data c4.Dense.data;
  Alcotest.(check (array (float 0.0))) "gemv bit-identical" (Dense.gemv a x)
    (Dense.gemv ~domains:3 a x)

let test_csr_parallel_identical () =
  let dict = Dict.create () in
  let m = Lh_datagen.Matrices.banded ~dict ~name:"pm" ~n:120 ~nnz_per_row:5 () in
  let s = Csr.of_coo m.Lh_datagen.Matrices.coo in
  let st = Random.State.make [| 0xca7 |] in
  let x = Array.init s.Csr.ncols (fun _ -> Random.State.float st 2.0 -. 1.0) in
  Alcotest.(check (array (float 0.0))) "spmv bit-identical" (Csr.spmv s x)
    (Csr.spmv ~domains:4 s x);
  let p1 = Csr.spgemm s s and p4 = Csr.spgemm ~domains:4 s s in
  Alcotest.(check (array int)) "spgemm row_ptr" p1.Csr.row_ptr p4.Csr.row_ptr;
  Alcotest.(check (array int)) "spgemm col_idx" p1.Csr.col_idx p4.Csr.col_idx;
  Alcotest.(check (array (float 0.0))) "spgemm values" p1.Csr.values p4.Csr.values

(* ---- engine level: every bench query, domains=1 vs domains=4 ---- *)

let rows_at eng ~domains sql =
  let saved = L.Engine.config eng in
  L.Engine.set_config eng { saved with L.Config.domains };
  Fun.protect
    ~finally:(fun () -> L.Engine.set_config eng saved)
    (fun () -> Helpers.engine_rows eng sql)

let test_bench_queries_differential () =
  let eng = Lazy.force Helpers.tpch_engine in
  List.iter
    (fun (name, sql) ->
      Helpers.check_rows_equal
        (Printf.sprintf "%s: domains=1 vs domains=4" name)
        (rows_at eng ~domains:1 sql) (rows_at eng ~domains:4 sql))
    (Helpers.tpch_queries @ Helpers.la_queries)

let test_oracle_at_domains_4 () =
  let eng = Lazy.force Helpers.tpch_engine in
  let saved = L.Engine.config eng in
  L.Engine.set_config eng { saved with L.Config.domains = 4 };
  Fun.protect
    ~finally:(fun () -> L.Engine.set_config eng saved)
    (fun () ->
      List.iter
        (fun sql -> Helpers.check_against_oracle eng sql)
        [ Helpers.q3; Helpers.q6; Helpers.smv; Helpers.dmv ])

(* ---- randomized chain joins with float annotations ---- *)

let gen_chain =
  QCheck2.Gen.(
    let table =
      list_size (int_range 0 25)
        (let* i = int_range 0 4 in
         let* j = int_range 0 4 in
         let* v = int_range (-3) 3 in
         return (i, j, float_of_int v))
    in
    triple table table table)

let register_matrix e name triplets =
  let rows = Array.of_list (List.map (fun (i, _, _) -> i) triplets) in
  let cols = Array.of_list (List.map (fun (_, j, _) -> j) triplets) in
  let vals = Array.of_list (List.map (fun (_, _, v) -> v) triplets) in
  L.Engine.register e
    (Table.create ~name ~schema:Lh_datagen.Matrices.matrix_schema ~dict:(L.Engine.dict e)
       [| Table.Icol rows; Table.Icol cols; Table.Fcol vals |])

(* Each shape reaches a different merge of the one chunked bag driver:
   the grouped chain (sorted-prefix rows concatenated in chunk order), a
   scalar sum/count (the scalar accumulator ⊕-merged across chunks), a
   GROUP BY on the innermost key alone (a relaxed order whose sparse
   accumulators merge across chunks), and a one-key scalar count (npos =
   1: position 0 is the innermost position). *)
let chain_shapes =
  [
    "select a.row, sum(a.v * b.v * c.v) s, count(*) n from a, b, c where a.col = b.row and b.col \
     = c.row and c.v > -2 group by a.row";
    "select sum(a.v * b.v * c.v) s, count(*) n from a, b, c where a.col = b.row and b.col = c.row \
     and c.v > -2";
    "select b.col, sum(a.v * b.v) s, count(*) n from a, b where a.col = b.row group by b.col";
    "select count(*) n from a, b where a.col = b.row";
  ]

let qcheck_chain_differential =
  Helpers.qtest ~count:120 "random chain join: domains=1 vs domains=4" gen_chain
    (fun (ta, tb, tc) ->
      let e = L.Engine.create () in
      register_matrix e "a" ta;
      register_matrix e "b" tb;
      register_matrix e "c" tc;
      List.for_all
        (fun sql ->
          let seq = rows_at e ~domains:1 sql in
          let par = rows_at e ~domains:4 sql in
          List.length seq = List.length par
          && List.for_all2 (fun x y -> List.for_all2 Helpers.value_close x y) seq par)
        chain_shapes)

(* The innermost-key GROUP BY shape must plan the relaxed order the
   differential above means to cover. *)
let test_relaxed_shape_planned () =
  let e = L.Engine.create () in
  register_matrix e "a" [ (0, 1, 1.0) ];
  register_matrix e "b" [ (1, 2, 1.0) ];
  let text = (L.Engine.explain e (List.nth chain_shapes 2)).L.Engine.etext in
  Alcotest.(check bool) "explain shows (relaxed)" true
    (Lh_util.Text.contains ~sub:"(relaxed)" text)

(* ---- histograms under concurrency ---- *)

module Hist = Lh_obs.Hist
module Obs = Lh_obs.Obs

(* Counts and sums are lock-free fetch-and-adds, so concurrent recording
   must be exact, not approximately merged: four domains hammering one
   histogram yield bit-identical buckets/sum/max to the sequential twin. *)
let test_hist_concurrent_exact () =
  let per_domain = 5_000 in
  let value d i = float_of_int ((d * per_domain) + i + 1) *. 1e-9 in
  let h = Hist.make () in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Hist.observe_always h (value d i)
            done))
  in
  List.iter Domain.join doms;
  let par = Hist.snapshot h in
  let seq_h = Hist.make () in
  for d = 0 to 3 do
    for i = 0 to per_domain - 1 do
      Hist.observe_always seq_h (value d i)
    done
  done;
  let seq = Hist.snapshot seq_h in
  Alcotest.(check int) "count exact" (4 * per_domain) (Hist.count par);
  Alcotest.(check int) "sum matches sequential" seq.Hist.ssum_ns par.Hist.ssum_ns;
  Alcotest.(check int) "max matches sequential" seq.Hist.smax_ns par.Hist.smax_ns;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "bucket %d" i) c par.Hist.sbuckets.(i))
    seq.Hist.sbuckets

(* The query.latency histogram records exactly one observation per query
   whatever the domain count — the parallel executor must not double-count
   from worker domains. *)
let test_query_latency_count_per_domains () =
  let e = L.Engine.create () in
  L.Engine.register e
    (Table.create ~name:"m" ~schema:Lh_datagen.Matrices.matrix_schema ~dict:(L.Engine.dict e)
       [|
         Table.Icol [| 0; 1; 2; 0 |];
         Table.Icol [| 1; 2; 0; 2 |];
         Table.Fcol [| 2.0; 3.0; 4.0; 1.0 |];
       |]);
  let sql =
    "select m1.row, m2.col, sum(m1.v * m2.v) v from m m1, m m2 where m1.col = m2.row group by \
     m1.row, m2.col"
  in
  let queries_at domains n =
    let saved = L.Engine.config e in
    L.Engine.set_config e { saved with L.Config.domains };
    Fun.protect
      ~finally:(fun () -> L.Engine.set_config e saved)
      (fun () ->
        Obs.with_enabled true (fun () ->
            let h = Hist.histogram "query.latency" in
            let before = Hist.snapshot h in
            for _ = 1 to n do
              ignore (L.Engine.query e sql)
            done;
            Hist.count (Hist.diff ~before ~after:(Hist.snapshot h))))
  in
  Alcotest.(check int) "one observation per query at domains=1" 5 (queries_at 1 5);
  Alcotest.(check int) "one observation per query at domains=4" 5 (queries_at 4 5)

let () =
  Alcotest.run "levelheaded-parallel"
    [
      ( "parfor",
        [
          Alcotest.test_case "chunk_bounds partitions exhaustively" `Quick
            test_chunk_bounds_exhaustive;
          Alcotest.test_case "domain-count policy" `Quick test_domain_count_policy;
          Alcotest.test_case "merge is in chunk order" `Quick test_map_reduce_merge_order;
          Alcotest.test_case "nested map_reduce degrades safely" `Quick
            test_parfor_nested_degrades;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse across tasks" `Quick test_pool_reuse;
          Alcotest.test_case "nested run raises Busy" `Quick test_pool_nested_busy;
          Alcotest.test_case "usable after shutdown" `Quick test_pool_shutdown_usable;
          Alcotest.test_case "chunk exception re-raised" `Quick test_pool_exception_propagates;
          Alcotest.test_case "failure skips remaining chunks" `Quick test_pool_fail_fast;
          Alcotest.test_case "reuse after repeated worker failures" `Quick
            test_pool_reuse_after_worker_failure;
        ] );
      ( "storage",
        [
          qcheck_trie_differential;
          Alcotest.test_case "parallel CSV ingest identical" `Quick test_csv_parallel_identical;
        ] );
      ( "blas",
        [
          Alcotest.test_case "dense kernels bit-identical" `Quick test_dense_parallel_identical;
          Alcotest.test_case "csr kernels bit-identical" `Quick test_csr_parallel_identical;
        ] );
      ( "engine",
        [
          Alcotest.test_case "bench queries: 1 vs 4 domains" `Quick
            test_bench_queries_differential;
          Alcotest.test_case "oracle agreement at 4 domains" `Quick test_oracle_at_domains_4;
          qcheck_chain_differential;
          Alcotest.test_case "innermost-key GROUP BY is relaxed" `Quick
            test_relaxed_shape_planned;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "concurrent recording is exact" `Quick test_hist_concurrent_exact;
          Alcotest.test_case "query.latency: one observation per query" `Quick
            test_query_latency_count_per_domains;
        ] );
    ]
