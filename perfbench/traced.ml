(* --trace 1: the per-layer split.

   Three passes over the same operation stream, one third of --seconds
   each:

   1. untraced: the workload as --trace 0 runs it (lhserve for analytics
      and ingest, the in-process service for concurrent) — the base of
      trace.overhead_ratio;
   2. service pass, traced: the real Lh_serve.Serve in-process, with a
      span around every Serve call. Gives serve.overhead_ms (Serve time
      not spent inside the engine) and epoch.live_max;
   3. layer pass, traced: Backend.shadow, the service assembled from the
      layers' public calls, each wrapped in a span, plus the engine's own
      phase.* histograms and counters (Lh_obs.Report.with_session). Gives
      every other layer metric and the Chrome trace written to
      .perfbench/out/<workload>-seed<N>.trace.json.

   Rates are per query (engine, serve and lhserve layers), per ingest
   (ingest, WAL), per checkpoint, per recovery or per op, as named. A
   layer a workload does not use reads 0. *)

module Report = Lh_obs.Report
module Hist = Lh_obs.Hist
module Layer = Backend.Layer
module Table = Lh_storage.Table

(* ---- the operation stream, backend-neutral ---- *)

type op =
  | Pin of int
  | Ingest of int
  | Query of {
      session : int;
      kind : string;
      family : Mix.family;
      sql : string;
      params : string list option;  (* prepared: exec arguments *)
      expect : int -> Check.expected option;  (* by the epoch it ran under *)
    }

let analytics_ops (a : Analytics.t) r =
  List.map
    (fun (k, v) ->
      let kind, vs = a.Analytics.mix.Mix.kinds.(k) in
      let variant = vs.(v) in
      Query
        {
          session = 0;
          kind = kind.Mix.k_name;
          family = kind.Mix.family;
          sql = variant.Mix.sql;
          params = variant.Mix.params;
          expect = (fun _ -> Some a.Analytics.expected.(k).(v));
        })
    (Mix.round a.Analytics.mix r)

let ingest_ops ~seed exp (m : Ingest.model) i =
  let g = i + Inputs.nsides in
  let side = g mod Inputs.nsides in
  let q = Mix.ingest_query ~seed i in
  (if i mod Mix.repin_every = 0 then [ Pin 0 ] else [])
  @ [
      Ingest g;
      Query
        {
          session = (if i mod 2 = 0 then 0 else 1);
          kind = Mix.serving_query_name q;
          family = Mix.serving_family q;
          sql = Ingest.query_sql q ~side;
          params = None;
          expect = Ingest.expected_for exp m q ~side;
        };
    ]

(* Run [ops] against [b]; per-op latencies (ingests and queries, stream
   order) into [lats]. With [encode], each result is also rendered the
   way lhserve prints it, inside the lhserve.encode layer. *)
let replay (b : Backend.t) tally (m : Ingest.model) ~encode ~lats ~minor ~after_op ops =
  List.iter
    (fun op ->
      let timed f =
        let w0 = Gc.minor_words () in
        let t0 = Tally.now () in
        let r = f () in
        let dt = Tally.now () -. t0 in
        minor := !minor +. (Gc.minor_words () -. w0);
        lats := dt :: !lats;
        after_op ();
        (r, dt)
      in
      match op with
      | Pin s -> b.Backend.pin s
      | Ingest g -> (
          Tally.attempt tally;
          match fst (timed (fun () -> b.Backend.ingest g)) with
          | Ok e -> Ingest.ack m g e
          | Error e -> Tally.fail tally ("ingest: " ^ e))
      | Query q -> (
          Tally.attempt tally;
          let r, dt =
            timed (fun () ->
                match q.params with
                | None -> b.Backend.query q.session q.sql
                | Some ps -> b.Backend.exec q.session q.sql ps)
          in
          match r with
          | Error e -> Tally.fail tally (q.kind ^ ": " ^ e)
          | Ok (t, epoch) -> (
              if encode then
                Layer.wrap "lhserve.encode" (fun () ->
                    let buf = Buffer.create 4096 in
                    let fmt = Format.formatter_of_buffer buf in
                    for r = 0 to t.Table.nrows - 1 do
                      Table.pp_row fmt t r;
                      Format.pp_print_char fmt '\n'
                    done;
                    Format.pp_print_flush fmt ();
                    Layer.bump "lhserve.rows" t.Table.nrows);
              match Option.map (fun x -> Check.diff_table x t) (q.expect epoch) with
              | Some None -> Tally.query tally ~kind:q.kind ~family:q.family dt
              | Some (Some msg) -> Tally.fail tally (Printf.sprintf "%s: wrong answer: %s" q.kind msg)
              | None -> Tally.fail tally (Printf.sprintf "%s: unknown epoch %d" q.kind epoch))))
    ops

(* ---- one traced pass's raw figures ---- *)

type pass = {
  report : Report.t;
  queries : int;
  ingests : int;
  minor_words : float;  (* allocated inside the operations *)
  major_collections : int;
  live_max : int;
  lag_p99 : float;  (* open-loop writer, concurrent only *)
  recovered : (float * int) option;  (* seconds, WAL batches replayed *)
}

let session f =
  Layer.reset ();
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let x, report = Report.with_session f in
  (x, report, (Gc.quick_stat ()).Gc.major_collections - major0)

let live_sampler (b : Backend.t) =
  let live = Atomic.make 0 in
  let sample () =
    let n = b.Backend.live_epochs () in
    let rec bump () =
      let cur = Atomic.get live in
      if n > cur && not (Atomic.compare_and_set live cur n) then bump ()
    in
    bump ()
  in
  (live, sample)

let count_queries ops =
  List.fold_left
    (fun (q, i) -> function Query _ -> (q + 1, i) | Ingest _ -> (q, i + 1) | Pin _ -> (q, i))
    (0, 0) ops

(* Close the backend (flushing its store) and, given the store
   directory, time a restart recovery from it. *)
let close_and_recover (b : Backend.t) store_dir =
  b.Backend.close ();
  Option.map
    (fun dir ->
      let t0 = Tally.now () in
      let n = Backend.recover dir in
      (Tally.now () -. t0, n))
    store_dir

(* A closed-loop pass: the stream's op groups [body] in one traced
   session, stopping at [deadline]. Returns the pass and its per-op
   latencies in stream order. *)
let closed_pass (b : Backend.t) tally m ~encode ~body ~deadline ~store_dir =
  let lats = ref [] and minor = ref 0.0 in
  let live, sample = live_sampler b in
  let (queries, ingests, recovered), report, major =
    session (fun () ->
        let rec go (q, i) = function
          | ops :: rest when Tally.now () < deadline ->
              replay b tally m ~encode ~lats ~minor ~after_op:sample ops;
              let q', i' = count_queries ops in
              go (q + q', i + i') rest
          | _ -> (q, i)
        in
        let q, i = go (0, 0) body in
        (q, i, close_and_recover b store_dir))
  in
  ( {
      report;
      queries;
      ingests;
      minor_words = !minor;
      major_collections = major;
      live_max = Atomic.get live;
      lag_p99 = 0.0;
      recovered;
    },
    List.rev !lats )

(* ---- per-layer metrics ---- *)

let hist_s (r : Report.t) name =
  match List.assoc_opt name r.Report.hists with
  | Some s -> float_of_int s.Hist.ssum_ns *. 1e-9
  | None -> 0.0

let counter (r : Report.t) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name r.Report.counters))

let per n x = if n <= 0 then 0.0 else x /. float_of_int n
let hit_ratio hit miss = if hit +. miss <= 0.0 then 0.0 else hit /. (hit +. miss)
let layer_s name = fst (Layer.total name)

(* [untraced] and the service pass's [svc] latencies cover the same
   stream prefix; the ratio compares equal numbers of ops. *)
let overhead_ratio ~untraced ~traced =
  let n = min (List.length untraced) (List.length traced) in
  let sum l = List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i < n) l) in
  if n = 0 then 0.0 else sum traced /. sum untraced

let layer_metrics ~(svc : pass) ~serve_overhead_s ~(lay : pass) ~ratio =
  let svc_ops = svc.queries + svc.ingests in
  let r = lay.report in
  let nq = lay.queries and ni = lay.ingests in
  let h = hist_s r and c = counter r in
  let ms_q x = Stats.ms (per nq x) and ms_i x = Stats.ms (per ni x) in
  let ckpt_s, ckpts = Layer.total "checkpoint" in
  let recover_s, replayed =
    match lay.recovered with Some (s, n) -> (s, n) | None -> (0.0, 0)
  in
  let m name unit v = Stats.metric name unit ~samples:(max nq ni) v in
  [
    m "lhserve.encode_ms" "ms" (ms_q (layer_s "lhserve.encode"));
    m "lhserve.rows_out" "count" (per nq (float_of_int (Layer.count "lhserve.rows")));
    m "sql.parse_ms" "ms" (ms_q (h "phase.parse"));
    m "engine.plan_ms" "ms" (ms_q (h "phase.plan"));
    m "engine.bind_ms" "ms" (ms_q (h "phase.bind"));
    m "plan_cache.hit_ratio" "ratio" (hit_ratio (c "plan_cache.hit") (c "plan_cache.miss"));
    m "engine.trie_build_ms" "ms" (ms_q (h "phase.trie_build"));
    m "trie.built" "count" (per nq (c "trie.built"));
    m "trie_cache.hit_ratio" "ratio" (hit_ratio (c "trie_cache.hit") (c "trie_cache.miss"));
    (* self time: trie builds run inside the WCOJ phase *)
    m "engine.wcoj_ms" "ms" (ms_q (Float.max 0.0 (h "phase.wcoj" -. h "phase.trie_build")));
    m "engine.scan_ms" "ms" (ms_q (h "phase.scan"));
    m "wcoj.intersections" "count" (per nq (c "wcoj.intersections"));
    m "wcoj.leaf_ticks" "count" (per nq (c "wcoj.leaf_ticks"));
    m "set.inter.bb" "count" (per nq (c "set.inter.bb"));
    m "set.inter.bu" "count" (per nq (c "set.inter.bu"));
    m "set.inter.uu" "count" (per nq (c "set.inter.uu"));
    m "set.count_only" "count" (per nq (c "set.count_only"));
    m "scan.rows_scanned" "count" (per nq (c "scan.rows_scanned"));
    m "rows.emitted" "count" (per nq (c "rows.emitted"));
    (* self time: the kernel runs inside the BLAS phase *)
    m "engine.blas_ms" "ms" (ms_q (Float.max 0.0 (h "phase.blas" -. h "phase.blas_kernel")));
    m "blas.kernel_ms" "ms" (ms_q (h "phase.blas_kernel"));
    m "blas.dispatch" "count" (per nq (c "blas.dispatch"));
    m "dense_cache.hit_ratio" "ratio" (hit_ratio (c "dense_cache.hit") (c "dense_cache.miss"));
    m "engine.finalize_ms" "ms" (ms_q (h "phase.finalize"));
    m "serve.view_ms" "ms" (ms_q (layer_s "serve.view"));
    m "serve.overhead_ms" "ms" (Stats.ms (per svc.queries serve_overhead_s));
    m "epoch.live_max" "count" (float_of_int svc.live_max);
    m "ingest.table_ms" "ms" (ms_i (layer_s "ingest.table"));
    m "ingest.snapshot_ms" "ms" (ms_i (layer_s "ingest.snapshot"));
    m "wal.append_ms" "ms" (ms_i (layer_s "wal.append"));
    m "wal.bytes_per_row" "bytes"
      (per (Layer.count "ingest.rows") (c "wal.bytes"));
    m "wal.fsyncs_per_ingest" "count" (per ni (c "wal.fsyncs"));
    m "checkpoint.ms" "ms" (Stats.ms (per ckpts ckpt_s));
    m "checkpoint.bytes" "bytes" (per ckpts (float_of_int (Layer.count "checkpoint.bytes")));
    m "recover.ms" "ms" (Stats.ms recover_s);
    m "recover.replayed" "count" (float_of_int replayed);
    m "gc.minor_words_per_op" "words" (per svc_ops svc.minor_words);
    m "gc.major_collections_per_op" "count" (per svc_ops (float_of_int svc.major_collections));
    m "loadgen.writer_lag_ms" "ms" (Stats.ms svc.lag_p99);
    m "trace.overhead_ratio" "ratio" ratio;
  ]

(* Serve time not spent in the engine (query.latency): admission, epoch
   pinning, locking, and view creation for a new epoch. *)
let serve_overhead (p : pass) =
  Float.max 0.0 (layer_s "serve.query_epoch" -. hist_s p.report "query.latency")

let write_trace ~workload ~seed (r : Report.t) =
  let dir = Filename.concat Inputs.work_dir "out" in
  Inputs.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  Report.write_file path (Report.chrome_trace r);
  Printf.eprintf "perfbench: wrote %s\n%!" path

(* ---- workloads ---- *)

(* The service pass, then the layer pass, over one stream. [pass
   backend ~layer_pass] runs one of them and returns it with its per-op
   latencies (or their mean). *)
let two_passes pass =
  let svc, svc_lats = pass Backend.serve ~layer_pass:false in
  let overhead = serve_overhead svc in
  let lay, _ = pass Backend.shadow ~layer_pass:true in
  (svc, overhead, lay, svc_lats)

let analytics ~bin ~seed ~third =
  let a = Analytics.prepare ~seed in
  let tally = Tally.create () in
  let c, _ = Analytics.start ~bin ~setups:1 (Analytics.server_args a.Analytics.ds) in
  let untraced =
    Fun.protect
      ~finally:(fun () -> Child.kill c)
      (fun () ->
        let t, _, _, lats = Analytics.drive a c ~seconds:third in
        Tally.merge tally t;
        lats)
  in
  let nrounds = List.length untraced / Array.length a.Analytics.mix.Mix.kinds in
  let pass backend ~layer_pass =
    let eng = Inputs.load_engine ~config:Backend.config a.Analytics.ds in
    let b = backend ~seed ?store:None ~checkpoint_every:0 eng in
    let m = Ingest.new_model () in
    for r = 0 to Analytics.warmup_rounds - 1 do
      replay b tally m ~encode:false ~lats:(ref []) ~minor:(ref 0.0) ~after_op:ignore
        (analytics_ops a r)
    done;
    let body = List.init nrounds (fun r -> analytics_ops a (r + Analytics.warmup_rounds)) in
    closed_pass b tally m ~encode:layer_pass ~body ~deadline:(Tally.now () +. (2.0 *. third))
      ~store_dir:None
  in
  let svc, overhead, lay, svc_lats = two_passes pass in
  (tally, svc, overhead, lay, overhead_ratio ~untraced ~traced:svc_lats)

let ingest ~bin ~seed ~third =
  let ds = Inputs.prepare Ingest.spec in
  let exp = Ingest.expected_answers ~seed ds in
  let tally = Tally.create () in
  let c, _, _ = Ingest.start ~bin ds 0 in
  let d =
    Fun.protect
      ~finally:(fun () -> Child.kill c)
      (fun () -> Ingest.drive c (Ingest.new_model ()) tally exp ~seed ~seconds:third)
  in
  let pass backend ~layer_pass =
    let dir = Inputs.temp_dir "traced" in
    let eng = Inputs.load_engine ~config:Backend.config ds in
    let store, _ = Lh_durable.Store.open_dir ~sync:(Lh_durable.Wal.Group 8) dir in
    let b = backend ~seed ?store:(Some store) ~checkpoint_every:Ingest.checkpoint_every eng in
    let m = Ingest.new_model () in
    replay b tally m ~encode:false ~lats:(ref []) ~minor:(ref 0.0) ~after_op:ignore
      (List.init Inputs.nsides (fun g -> Ingest g));
    let body = List.init (d.Ingest.ops / 2) (ingest_ops ~seed exp m) in
    closed_pass b tally m ~encode:layer_pass ~body ~deadline:(Tally.now () +. (2.0 *. third))
      ~store_dir:(if layer_pass then Some dir else None)
  in
  let svc, overhead, lay, svc_lats = two_passes pass in
  (tally, svc, overhead, lay, overhead_ratio ~untraced:d.Ingest.lats ~traced:svc_lats)

let concurrent ~seed ~third =
  let ds = Inputs.prepare Concurrent.spec in
  let exp = Concurrent.expected_answers ds in
  let tally = Tally.create () in
  let merge = Tally.merge tally in
  (* mean op latency: reader queries and writer batches pooled *)
  let mean_op t (p : Concurrent.pass) =
    Stats.mean (Tally.all_queries t @ p.Concurrent.ingest_lats)
  in
  let untraced =
    let b, _, _ = Concurrent.start ~seed ds in
    let t = Tally.create () in
    let p =
      Fun.protect
        ~finally:(fun () -> b.Backend.close ())
        (fun () -> Concurrent.run_pass b t exp ~seed ~seconds:third ~after_op:ignore)
    in
    merge t;
    mean_op t p
  in
  let pass backend ~layer_pass =
    let b, dir, _ = Concurrent.start ~backend ~seed ds in
    let t = Tally.create () in
    let live, sample = live_sampler b in
    let (p, recovered), report, major =
      session (fun () ->
          let p = Concurrent.run_pass b t exp ~seed ~seconds:third ~after_op:sample in
          (p, close_and_recover b (if layer_pass then Some dir else None)))
    in
    merge t;
    ( {
        report;
        queries = p.Concurrent.reads;
        ingests = List.length p.Concurrent.ingest_lats;
        minor_words = p.Concurrent.minor_words;
        major_collections = major;
        live_max = Atomic.get live;
        lag_p99 = Stats.quantile 0.99 p.Concurrent.lags;
        recovered;
      },
      mean_op t p )
  in
  let svc, overhead, lay, svc_mean = two_passes pass in
  (tally, svc, overhead, lay, if untraced > 0.0 then svc_mean /. untraced else 0.0)

let run ~bin ~workload ~seed ~seconds =
  let third = seconds /. 3.0 in
  let tally, svc, serve_overhead_s, lay, ratio =
    match workload with
    | "analytics" -> analytics ~bin ~seed ~third
    | "ingest" -> ingest ~bin ~seed ~third
    | _ -> concurrent ~seed ~third
  in
  let metrics = layer_metrics ~svc ~serve_overhead_s ~lay ~ratio in
  write_trace ~workload ~seed lay.report;
  (tally, metrics, [])
