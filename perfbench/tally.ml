(* Per-run bookkeeping shared by the workloads: attempted/failed counts,
   per-kind latency samples, and the end-to-end metrics every workload
   reports. *)

let now = Lh_util.Timing.monotonic_now

(* Set-up is timed this many times per run; setup_s is the median. *)
let setups = 5

type t = {
  mutable attempted : int;
  mutable failed : int;
  kinds : (string, Mix.family * float list ref) Hashtbl.t;  (* query latencies, s *)
  mutable order : string list;  (* kinds in first-seen order *)
  lock : Mutex.t;  (* the concurrent workload records from two domains *)
}

let create () =
  { attempted = 0; failed = 0; kinds = Hashtbl.create 16; order = []; lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The first few failures are printed; all are counted. *)
let fail t msg =
  locked t (fun () ->
      t.failed <- t.failed + 1;
      if t.failed <= 5 then Printf.eprintf "perfbench: FAILED %s\n%!" msg)

(* Counts of another tally (a sub-run), added into [t]. *)
let merge t (from : t) =
  locked t (fun () ->
      t.attempted <- t.attempted + from.attempted;
      t.failed <- t.failed + from.failed)

let attempt t = locked t (fun () -> t.attempted <- t.attempted + 1)

let query t ~kind ~family dt =
  locked t (fun () ->
      match Hashtbl.find_opt t.kinds kind with
      | Some (_, l) -> l := dt :: !l
      | None ->
          Hashtbl.replace t.kinds kind (family, ref [ dt ]);
          t.order <- t.order @ [ kind ])

let all_queries t = List.concat_map (fun k -> !(snd (Hashtbl.find t.kinds k))) t.order

(* Fig. 1 style: geometric mean over the family's kinds of each kind's
   median latency. *)
let geomean_ms t family =
  Stats.geomean
    (List.filter_map
       (fun k ->
         let f, l = Hashtbl.find t.kinds k in
         if f = family then Some (Stats.ms (Stats.median !l)) else None)
       t.order)

let family_samples t family =
  List.fold_left
    (fun acc k ->
      let f, l = Hashtbl.find t.kinds k in
      if f = family then acc + List.length !l else acc)
    0 t.order

(* The end-to-end metrics, in BENCHMARK.json order. *)
let end_to_end t ~setup ~ops ~wall ~peak_rss_mb =
  let q = all_queries t in
  let nq = List.length q in
  Stats.
    [
      metric "setup_s" "s" ~samples:(List.length setup) (median setup);
      metric "ops_per_s" "1/s" ~samples:ops (float_of_int ops /. wall);
      metric "query_p50_ms" "ms" ~samples:nq (ms (quantile 0.5 q));
      metric "query_p99_ms" "ms" ~samples:nq (ms (quantile 0.99 q));
      metric "bi_geomean_ms" "ms" ~samples:(family_samples t Mix.Bi) (geomean_ms t Mix.Bi);
      metric "la_geomean_ms" "ms" ~samples:(family_samples t Mix.La) (geomean_ms t Mix.La);
      metric "peak_rss_mb" "MB" ~samples:1 peak_rss_mb;
    ]

(* Per-kind medians, for the human-readable lines. *)
let per_kind t =
  List.map
    (fun k ->
      let _, l = Hashtbl.find t.kinds k in
      Stats.metric (k ^ "_p50_ms") "ms" ~samples:(List.length !l) (Stats.ms (Stats.median !l)))
    t.order

let failed_frac t =
  Stats.metric "failed_frac" "ratio" ~samples:t.attempted
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
