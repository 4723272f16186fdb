(* Service-concurrency experiment (bench --concurrency): throughput and
   tail latency of the epoch-pinned query service as client sessions
   scale.

   Each client count stands up a fresh service over the small repeated-
   workload dataset and fans out that many client domains — one session
   each, issuing a fixed mixed workload (TPC-H scan, chain join, SpMV) of
   synchronous queries — while the writer publishes two epochs mid-run,
   gated on client progress, so admission, snapshot pinning and the
   swap/retire path all run under load. The cell reports wall time,
   queries/second and p50/p99 per-query latency; --json records carry
   clients / throughput_qps / p99_seconds fields on top of the usual
   latency histogram.

   On a single-core host the throughput curve is expected to be flat
   (client domains time-share one core); the cell is still the regression
   anchor for per-query service overhead (admission, view lookup, pin
   accounting). *)

module C = Common
module L = Levelheaded
module Serve = Lh_serve.Serve
module Timing = Lh_util.Timing
module Json = Lh_obs.Json

let rounds_per_client = 30

let build params =
  let eng = L.Engine.create () in
  let dict = L.Engine.dict eng in
  List.iter (L.Engine.register eng)
    (Lh_datagen.Tpch.generate ~dict ~sf:0.0005 ~seed:params.C.seed ());
  let m =
    Lh_datagen.Matrices.banded ~dict ~name:"srv_m" ~n:256 ~nnz_per_row:4
      ~seed:params.C.seed ()
  in
  L.Engine.register eng m.Lh_datagen.Matrices.table;
  let n = m.Lh_datagen.Matrices.coo.Lh_blas.Coo.nrows in
  let vt, _ = Lh_datagen.Matrices.dense_vector ~dict ~name:"srv_x" ~n () in
  L.Engine.register eng vt;
  eng

let aux_schema =
  Lh_storage.Schema.create
    [ ("k", Lh_storage.Dtype.Int, Lh_storage.Schema.Key);
      ("v", Lh_storage.Dtype.Float, Lh_storage.Schema.Annotation) ]

let aux_rows g =
  List.init 16 (fun i ->
      [ Lh_storage.Dtype.VInt i; Lh_storage.Dtype.VFloat (float_of_int (i * g)) ])

(* nearest-rank percentile over an ascending array *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

let run params =
  C.print_header "Service concurrency — throughput and tail latency"
    [ "queries"; "wall"; "qps"; "p50"; "p99"; "errors" ];
  List.map
    (fun clients ->
      let eng = build params in
      let budget =
        Lh_util.Budget.create ~max_live_words:params.C.mem_words
          ~max_seconds:params.C.timeout ()
      in
      let cfg = { (L.Engine.config eng) with L.Config.domains = 1; budget } in
      let svc = Serve.create ~config:cfg ~max_sessions:(clients + 1) eng in
      let workload =
        [| Queries.q1; Queries.q3; Queries.smv ~matrix:"srv_m" ~vector:"srv_x" |]
      in
      let total = clients * rounds_per_client in
      let completed = Atomic.make 0 in
      let errors = Atomic.make 0 in
      let client d =
        let s = Serve.open_session svc in
        let lat = Array.make rounds_per_client 0.0 and w0 = Gc.minor_words () in
        for i = 0 to rounds_per_client - 1 do
          let sql = workload.((d + i) mod Array.length workload) in
          let t0 = Timing.monotonic_now () in
          (match Serve.query s sql with
          | Ok _ -> ()
          | Error _ -> Atomic.incr errors);
          lat.(i) <- Timing.monotonic_now () -. t0;
          Atomic.incr completed
        done;
        Serve.close_session s;
        (lat, Gc.minor_words () -. w0)
      in
      let t0 = Timing.monotonic_now () in
      let doms = List.init clients (fun d -> Domain.spawn (fun () -> client d)) in
      (* Writer: two publications land mid-run. The gates only wait on
         thresholds strictly below [total], so they cannot starve. *)
      for g = 1 to 2 do
        while Atomic.get completed < g * total / 3 do
          Domain.cpu_relax ()
        done;
        match Serve.ingest_rows svc ~name:"srv_aux" ~schema:aux_schema (aux_rows g) with
        | Ok _ -> ()
        | Error e ->
            Printf.eprintf "concurrency ingest failed: %s\n%!" (Serve.error_to_string e)
      done;
      let runs = List.map Domain.join doms in
      let wall = Timing.monotonic_now () -. t0 in
      let lats = List.concat_map (fun (lat, _) -> Array.to_list lat) runs in
      (* Each client counts the words its own domain allocated. *)
      let minor_words = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 runs /. float_of_int total in
      Serve.close svc;
      let sorted = Array.of_list lats in
      Array.sort Float.compare sorted;
      let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
      let qps = float_of_int total /. wall in
      C.print_row
        (Printf.sprintf "%d client(s)" clients)
        [
          string_of_int total;
          Timing.duration_to_string wall;
          Printf.sprintf "%.0f" qps;
          Timing.duration_to_string p50;
          Timing.duration_to_string p99;
          string_of_int (Atomic.get errors);
        ];
      C.record_cell ~minor_words
        ~system:(Printf.sprintf "serve@%d" clients)
        ~sql:"mixed: q1 + q3 + spmv through the epoch-pinned service"
        ~outcome:(C.Time wall) ~samples:lats
        ~extra:
          [
            ("clients", Json.Int clients);
            ("queries", Json.Int total);
            ("errors", Json.Int (Atomic.get errors));
            ("throughput_qps", Json.Float qps);
            ("p99_seconds", Json.Float p99);
          ]
        None;
      (clients, qps, p99))
    params.C.concurrency
