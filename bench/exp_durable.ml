(* Durability experiment (bench durability): ingest throughput under each
   WAL sync discipline and restart-recovery time as the WAL grows.

   Part one stands up a service over a fresh store directory for each
   sync mode (always / group:8 / none) and pushes a fixed stream of
   ingest batches through the log-then-publish path; the cell reports
   wall time, batches/second and the WAL bytes written, with per-batch
   latencies as the samples. fsync cost is the whole story here: "always"
   pays one fsync per acknowledgement, "group:8" one per eight, "none"
   zero (page cache only).

   Part two seeds a WAL with N batches (no checkpoint, so recovery must
   replay the full suffix), closes the store, and times open_dir +
   replay_into a fresh engine. N spans 100 → 10_000 so the JSON records
   anchor both the per-record replay cost and the long-tail cell the
   regression gate watches. *)

module C = Common
module L = Levelheaded
module Json = Lh_obs.Json
module Timing = Lh_util.Timing
module Store = Lh_durable.Store
module Wal = Lh_durable.Wal
module Serve = Lh_serve.Serve

let ingest_batches = 200
let rows_per_batch = 64
let recovery_lengths = [ 100; 1_000; 10_000 ]

let schema =
  Lh_storage.Schema.create
    [ ("k", Lh_storage.Dtype.Int, Lh_storage.Schema.Key);
      ("v", Lh_storage.Dtype.Float, Lh_storage.Schema.Annotation) ]

let batch_rows g =
  List.init rows_per_batch (fun i ->
      [ Lh_storage.Dtype.VInt i;
        Lh_storage.Dtype.VFloat (float_of_int ((i * 7) + g) *. 0.5) ])

(* Alternating target tables so recovery exercises the last-write-wins
   replacement semantics rather than replaying one table repeatedly. *)
let batch_name g = "t" ^ string_of_int (g mod 4)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error (_, _, _) -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let path = Filename.temp_file "lh_bench_durable" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error (_, _, _) -> 0

let ingest_cell (label, sync) =
  with_temp_dir (fun dir ->
      let store, _ = Store.open_dir ~sync dir in
      let eng = L.Engine.create () in
      let cfg = { (L.Engine.config eng) with L.Config.domains = 1 } in
      let svc = Serve.create ~config:cfg ~store ~checkpoint_every:0 eng in
      let lats = Array.make ingest_batches 0.0 in
      let errors = ref 0 in
      let w0 = Gc.minor_words () and t0 = Timing.monotonic_now () in
      for g = 0 to ingest_batches - 1 do
        let s = Timing.monotonic_now () in
        (match Serve.ingest_rows svc ~name:(batch_name g) ~schema (batch_rows g) with
        | Ok _ -> ()
        | Error _ -> incr errors);
        lats.(g) <- Timing.monotonic_now () -. s
      done;
      let wall = Timing.monotonic_now () -. t0 in
      let minor_words = (Gc.minor_words () -. w0) /. float_of_int ingest_batches in
      let wal_bytes = file_size (Store.wal_path store) in
      Serve.close svc;
      let per_sec = float_of_int ingest_batches /. wall in
      C.print_row
        (Printf.sprintf "ingest %-7s" label)
        [
          string_of_int ingest_batches;
          Timing.duration_to_string wall;
          Printf.sprintf "%.0f/s" per_sec;
          Printf.sprintf "%dKB wal/%de" (wal_bytes / 1024) !errors;
        ];
      C.record_cell ~minor_words
        ~system:(Printf.sprintf "durable@%s" label)
        ~sql:"ingest: fixed batch stream through the WAL-backed service"
        ~outcome:(C.Time wall) ~samples:(Array.to_list lats)
        ~extra:
          [
            ("sync", Json.String label);
            ("batches", Json.Int ingest_batches);
            ("rows_per_batch", Json.Int rows_per_batch);
            ("batches_per_second", Json.Float per_sec);
            ("wal_bytes", Json.Int wal_bytes);
            ("errors", Json.Int !errors);
          ]
        None;
      (label, per_sec))

let recovery_cell params n =
  with_temp_dir (fun dir ->
      (* Seed the WAL without fsync noise — the measured phase is recovery. *)
      let store, _ = Store.open_dir ~sync:Wal.Never dir in
      for g = 1 to n do
        ignore (Store.log_batch store ~name:(batch_name g) ~schema (batch_rows g))
      done;
      Store.close store;
      let recovered_seq = ref 0 in
      let recover () =
        let t0 = Timing.monotonic_now () in
        let store, rc = Store.open_dir dir in
        let eng = L.Engine.create () in
        Store.replay_into rc (fun ~name ~schema rows ->
            ignore (L.Engine.register_rows eng ~name ~schema rows));
        let wall = Timing.monotonic_now () -. t0 in
        recovered_seq := rc.Store.rc_seq;
        Store.close store;
        wall
      in
      let w0 = Gc.minor_words () in
      let samples = List.init (max 1 params.C.runs) (fun _ -> recover ()) in
      let minor_words = (Gc.minor_words () -. w0) /. float_of_int (List.length samples) in
      let best = List.fold_left min infinity samples in
      let per_sec = float_of_int n /. best in
      C.print_row
        (Printf.sprintf "recover %6d" n)
        [
          string_of_int n;
          Timing.duration_to_string best;
          Printf.sprintf "%.0f/s" per_sec;
          Printf.sprintf "seq %d" !recovered_seq;
        ];
      C.record_cell ~minor_words
        ~system:(Printf.sprintf "recover@%d" n)
        ~sql:"recover: open_dir + full WAL suffix replay into a fresh engine"
        ~outcome:(C.Time best) ~samples
        ~extra:
          [
            ("wal_batches", Json.Int n);
            ("recovered_seq", Json.Int !recovered_seq);
            ("replay_batches_per_second", Json.Float per_sec);
          ]
        None;
      (n, best))

let run params =
  C.print_header "Durable ingest and restart recovery"
    [ "batches"; "wall"; "rate"; "detail" ];
  let ingest =
    List.map ingest_cell
      [ ("always", Wal.Always); ("group:8", Wal.Group 8); ("none", Wal.Never) ]
  in
  let recovery = List.map (recovery_cell params) recovery_lengths in
  (ingest, recovery)
