(* Workload "concurrent": the in-process service (Lh_serve.Serve) with a
   durable store attached (WAL group:8) and exactly two domains. A
   reader domain runs a closed loop of Q3, Q6 and SMV: it pins the
   current epoch and holds it for [hold] queries (a slow reader), then
   runs [unpinned] queries on whatever epoch is current. The main domain is an open-loop
   writer: it publishes one 64-row side-table batch every 1/[rate]
   seconds and times each batch from when it was due, so a stall delays
   every batch queued behind it. The only workload with real
   reader/writer overlap. *)

module Store = Lh_durable.Store

let spec = Ingest.spec
let rate = 60.0  (* batches per second: well below the writer's saturation *)
let hold = 16

(* Few enough that warm pinned queries are the clear majority: a median
   taken where warm and cold (new-epoch) queries split near half and half
   jumps between the two. *)
let unpinned = 4

type expected = { q3 : Check.expected; q6 : Check.expected; smv : Check.expected }

let expected_answers ds =
  let eng = Inputs.load_engine ds in
  let lookup = Check.lookup_of eng in
  {
    q3 = Check.pairwise ~lookup Mix.q3_fixed;
    q6 = Check.pairwise ~lookup Mix.q6_fixed;
    smv = Check.pairwise ~lookup Mix.smv_fixed;
  }

let expected_for e = function Mix.R_q3 -> e.q3 | Mix.R_q6 -> e.q6 | Mix.R_smv -> e.smv

(* A service over the dataset with a fresh store, up to its first
   answered query: the in-process counterpart of lhserve's set-up. The
   four side tables get their first versions (g = 0..3) afterwards. *)
let start ?(backend = Backend.serve) ~seed ds =
  let dir = Inputs.temp_dir "concurrent" in
  let t0 = Tally.now () in
  let eng = Inputs.load_engine ~config:Backend.config ds in
  let store, _ = Store.open_dir ~sync:(Lh_durable.Wal.Group 8) dir in
  let b = backend ~seed ~store ~checkpoint_every:0 eng in
  (match b.Backend.query 99 Mix.q6_fixed with
  | Ok _ -> ()
  | Error e -> failwith ("first query: " ^ e));
  let dt = Tally.now () -. t0 in
  for g = 0 to Inputs.nsides - 1 do
    match b.Backend.ingest g with Ok _ -> () | Error e -> failwith ("set-up ingest: " ^ e)
  done;
  (b, dir, dt)

let check_sides tally (b : Backend.t) ~seed versions =
  Array.iteri
    (fun side g ->
      Tally.attempt tally;
      match b.Backend.query 98 (Inputs.side_scan_sql side) with
      | Ok (t, _) -> (
          match Check.diff_table (Check.expected_of_rows (Inputs.side_batch ~seed g)) t with
          | None -> ()
          | Some msg -> Tally.fail tally (Printf.sprintf "%s: %s" (Inputs.side_name side) msg))
      | Error e -> Tally.fail tally e)
    versions

(* Peak RSS is measured over the timed phase only: the high-water mark is
   reset after set-up (Linux clear_refs), where the kernel allows it. *)
let reset_peak_rss () =
  Gc.compact ();
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* [f ()] timed, with the words it allocated on this domain added to
   [minor]. *)
let timed minor f =
  let w0 = Gc.minor_words () in
  let t0 = Tally.now () in
  let r = f () in
  let dt = Tally.now () -. t0 in
  minor := !minor +. (Gc.minor_words () -. w0);
  (r, dt)

(* [after_op] runs after every operation of either domain (the traced
   replay samples live epochs there). *)
let reader (b : Backend.t) tally exp ~seed ~stop ~after_op =
  let i = ref 0 and minor = ref 0.0 in
  while not (Atomic.get stop) do
    let phase = !i mod (hold + unpinned) in
    if phase = 0 then b.Backend.pin 0 else if phase = hold then b.Backend.unpin 0;
    let q = Mix.reader_query ~seed !i in
    Tally.attempt tally;
    let r, dt = timed minor (fun () -> b.Backend.query 0 (Mix.reader_sql q)) in
    (match r with
    | Ok (t, _) -> (
        match Check.diff_table (expected_for exp q) t with
        | None -> Tally.query tally ~kind:(Mix.reader_query_name q) ~family:(Mix.reader_family q) dt
        | Some msg ->
            Tally.fail tally (Printf.sprintf "%s: wrong answer: %s" (Mix.reader_query_name q) msg))
    | Error e -> Tally.fail tally e);
    after_op ();
    incr i
  done;
  (!i, !minor)

(* Open-loop writer on the calling domain. Returns per-batch latency
   (from due time to acknowledgement), lag (how late each batch started)
   and the wall time. *)
let writer (b : Backend.t) tally ~seconds ~versions ~after_op =
  let lats = ref [] and lags = ref [] and minor = ref 0.0 in
  let t0 = Tally.now () in
  let k = ref 0 in
  while float_of_int !k /. rate < seconds do
    let due = t0 +. (float_of_int !k /. rate) in
    let wait = due -. Tally.now () in
    if wait > 0.0 then Unix.sleepf wait;
    let start = Tally.now () in
    let g = !k + Inputs.nsides in
    Tally.attempt tally;
    (match fst (timed minor (fun () -> b.Backend.ingest g)) with
    | Ok _ ->
        versions.(g mod Inputs.nsides) <- g;
        lats := (Tally.now () -. due) :: !lats;
        lags := (start -. due) :: !lags
    | Error e -> Tally.fail tally ("ingest: " ^ e));
    after_op ();
    incr k
  done;
  (List.rev !lats, List.rev !lags, Tally.now () -. t0, !minor)

type pass = {
  reads : int;
  ingest_lats : float list;
  lags : float list;
  wall : float;
  minor_words : float;  (* allocated by the operations, both domains *)
}

(* Both domains for [seconds]; then every side table is checked. *)
let run_pass (b : Backend.t) tally exp ~seed ~seconds ~after_op =
  let versions = Array.init Inputs.nsides Fun.id in
  let stop = Atomic.make false in
  let rd = Domain.spawn (fun () -> reader b tally exp ~seed ~stop ~after_op) in
  let ingest_lats, lags, wall, wminor =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () -> writer b tally ~seconds ~versions ~after_op)
  in
  let reads, rminor = Domain.join rd in
  check_sides tally b ~seed versions;
  { reads; ingest_lats; lags; wall; minor_words = wminor +. rminor }

let run ~seed ~seconds =
  let ds = Inputs.prepare spec in
  let exp = expected_answers ds in
  let tally = Tally.create () in
  let started = List.init Tally.setups (fun _ -> start ~seed ds) in
  List.iteri (fun k (b, _, _) -> if k < Tally.setups - 1 then b.Backend.close ()) started;
  let b, _, _ = List.nth started (Tally.setups - 1) in
  let setup = List.map (fun (_, _, dt) -> dt) started in
  Fun.protect
    ~finally:(fun () -> b.Backend.close ())
    (fun () ->
      reset_peak_rss ();
      let p = run_pass b tally exp ~seed ~seconds ~after_op:ignore in
      let rss = Child.peak_rss_mb 0 in
      let n = List.length p.ingest_lats in
      let q l x = Stats.ms (Stats.quantile x l) in
      ( tally,
        Tally.end_to_end tally ~setup ~ops:(p.reads + n) ~wall:p.wall ~peak_rss_mb:rss,
        Stats.
          [
            metric "ingest_p50_ms" "ms" ~samples:n (q p.ingest_lats 0.5);
            metric "ingest_p99_ms" "ms" ~samples:n (q p.ingest_lats 0.99);
            metric "writer_lag_p99_ms" "ms" ~samples:n (q p.lags 0.99);
          ]
        @ Tally.per_kind tally ))
