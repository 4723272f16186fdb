(* Benchmark driver: one target per table/figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- table2-bi fig5a --sf 0.01 --runs 3
*)

module C = Common

let fig1 bi la =
  (* Figure 1: relative performance on BI vs LA, per engine — the
     geometric-mean slowdown vs the per-row best. *)
  let slowdowns rows system =
    List.filter_map
      (fun { Exp_table2.outcomes; _ } ->
        match (C.best_of (List.map snd outcomes), List.assoc_opt system outcomes) with
        | Some (C.Time b), Some (C.Time t) when b > 0.0 -> Some (t /. b)
        | _ -> None)
      rows
  in
  C.print_header "Figure 1 — geometric-mean slowdown vs best (BI, LA)" [ "BI"; "LA" ];
  List.iter
    (fun s ->
      let cell rows =
        match slowdowns rows s with
        | [] -> "-"
        | xs -> Printf.sprintf "%.2fx" (C.geomean xs)
      in
      C.print_row (C.system_name s) [ cell bi; cell la ])
    [ C.Lh; C.Hyper_like; C.Monet_like; C.Lh_logicblox; C.Mkl_like ]

let all_ids = [ "table2-bi"; "table2-la"; "table3"; "table4"; "fig1"; "fig5a"; "fig5b"; "fig5c"; "fig6"; "ablations"; "repeated"; "concurrency"; "layouts"; "graph"; "durability"; "epochs" ]

let run_ids params ids =
  let wants id = List.mem id ids in
  let tagged id f =
    C.current_experiment := id;
    f ()
  in
  let bi = lazy (tagged "table2-bi" (fun () -> Exp_table2.bi params)) in
  let la = lazy (tagged "table2-la" (fun () -> Exp_table2.la params)) in
  if wants "table2-bi" then ignore (Lazy.force bi);
  if wants "table2-la" then ignore (Lazy.force la);
  if wants "table3" then tagged "table3" (fun () -> ignore (Exp_table3.run params));
  if wants "table4" then tagged "table4" (fun () -> ignore (Exp_table4.run params));
  if wants "fig1" then fig1 (Lazy.force bi) (Lazy.force la);
  if wants "fig5a" then tagged "fig5a" (fun () -> Exp_fig5.run_fig5a params);
  if wants "fig5b" then tagged "fig5b" (fun () -> Exp_fig5.run_fig5b params);
  if wants "fig5c" then tagged "fig5c" (fun () -> Exp_fig5.run_fig5c params);
  if wants "fig6" then tagged "fig6" (fun () -> ignore (Exp_fig6.run params));
  if wants "ablations" then tagged "ablations" (fun () -> Exp_ablations.run params);
  if wants "repeated" then tagged "repeated" (fun () -> ignore (Exp_repeated.run params));
  if wants "concurrency" then tagged "concurrency" (fun () -> ignore (Exp_serve.run params));
  if wants "layouts" then tagged "layouts" (fun () -> ignore (Exp_layouts.run params));
  if wants "graph" then tagged "graph" (fun () -> ignore (Exp_graph.run params));
  if wants "durability" then tagged "durability" (fun () -> ignore (Exp_durable.run params));
  if wants "epochs" then tagged "epochs" (fun () -> Exp_epochs.run params);
  C.write_json ()

(* ---------------- report: committed cells as markdown ----------------

   The Table II blocks of a baseline record file, read from the records'
   [outcome] fields, so EXPERIMENTS.md quotes the committed JSON instead
   of hand-copied numbers (ci.sh diffs the two). One table per block:
   [table2-bi] (ratio to HyPer-like) and [table2-la] (ratio to the
   MKL-like kernel). The file holds one scale factor, so each query is
   one row, in record order. *)

(* "SMV harbor", "DMM 128", ...: the LA query shape and its matrix, read
   back from the SQL the cell ran ([Queries.smv] / [Queries.smm] over a
   generated matrix; dense ones are named "dense<n>"). *)
let la_label sql =
  let shape matrix =
    if String.equal sql (Queries.smv ~matrix ~vector:(matrix ^ "_x")) then Some "MV"
    else if String.equal sql (Queries.smm ~matrix) then Some "MM"
    else None
  in
  let matrix =
    let rec after_from = function "from" :: m :: _ -> m | _ :: rest -> after_from rest | [] -> "" in
    after_from (String.split_on_char ' ' sql)
  in
  match (shape matrix, Scanf.sscanf_opt matrix "dense%d%!" Fun.id) with
  | Some k, Some n -> Printf.sprintf "D%s %d" k n
  | Some k, None -> Printf.sprintf "S%s %s" k matrix
  | None, _ -> sql

let report_block ~records ~experiment ~systems ~label ~vs =
  let module Json = Lh_obs.Json in
  let str k r = match Json.member k r with Some (Json.String s) -> s | _ -> "" in
  let cells = List.filter (fun r -> str "experiment" r = experiment) records in
  let systems =
    List.map C.system_name systems
    |> List.filter (fun s -> List.exists (fun r -> str "system" r = s) cells)
  in
  let cell = Hashtbl.create 64 and rows = ref [] in
  List.iter
    (fun r ->
      let name = label (str "sql" r) and system = str "system" r in
      if Hashtbl.mem cell (name, system) then
        failwith (Printf.sprintf "--report: %s on %s appears twice; use one scale factor" name system);
      if not (List.mem name !rows) then rows := name :: !rows;
      Hashtbl.replace cell (name, system) r)
    cells;
  let seconds r = Option.bind (Json.member "seconds" r) Json.to_float in
  let lh = C.system_name C.Lh and vs = C.system_name vs in
  Printf.printf "| query | %s | %s ÷ %s |\n" (String.concat " | " systems) lh vs;
  Printf.printf "|---|%s---|\n" (String.concat "" (List.map (fun _ -> "---|") systems));
  List.iter
    (fun name ->
      let find s = Hashtbl.find_opt cell (name, s) in
      let outcome s = match find s with Some r -> str "outcome" r | None -> "-" in
      let ratio =
        match (Option.bind (find lh) seconds, Option.bind (find vs) seconds) with
        | Some a, Some b when b > 0.0 -> Printf.sprintf "%.2fx" (a /. b)
        | _ -> "-"
      in
      Printf.printf "| %s | %s | %s |\n" name (String.concat " | " (List.map outcome systems)) ratio)
    (List.rev !rows)

(* [ids] picks the blocks, in order; none means the BI block. *)
let report ~ids path =
  let module Json = Lh_obs.Json in
  let records =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Json.List l -> l
    | other -> [ other ]
  in
  let tpch_label sql =
    match List.find_opt (fun (_, q) -> String.equal q sql) Queries.tpch with
    | Some (name, _) -> name
    | None -> sql
  in
  List.iteri
    (fun i id ->
      if i > 0 then print_newline ();
      match id with
      | "table2-bi" ->
          report_block ~records ~experiment:id ~systems:Exp_table2.bi_systems ~label:tpch_label
            ~vs:C.Hyper_like
      | "table2-la" ->
          report_block ~records ~experiment:id ~systems:Exp_table2.la_systems ~label:la_label
            ~vs:C.Mkl_like
      | other -> failwith (Printf.sprintf "--report renders table2-bi and table2-la, not %s" other))
    (if ids = [] then [ "table2-bi" ] else ids)

(* ---------------- smoke: one query per experiment family, telemetry on,
   fail if any expected counter is absent (CI wiring: see ci.sh) -------- *)

let smoke params =
  let module L = Levelheaded in
  let module Report = Lh_obs.Report in
  let eng = L.Engine.create () in
  let dict = L.Engine.dict eng in
  List.iter (L.Engine.register eng)
    (Lh_datagen.Tpch.generate ~dict ~sf:0.002 ~seed:params.C.seed ());
  let m = Lh_datagen.Matrices.harbor_like ~dict ~scale:0.005 ~seed:params.C.seed () in
  L.Engine.register eng m.Lh_datagen.Matrices.table;
  let mname = m.Lh_datagen.Matrices.table.Lh_storage.Table.name in
  let n = m.Lh_datagen.Matrices.coo.Lh_blas.Coo.nrows in
  let vt, _ = Lh_datagen.Matrices.dense_vector ~dict ~name:"smoke_x" ~n () in
  L.Engine.register eng vt;
  let dt, _ = Lh_datagen.Matrices.dense ~dict ~name:"smoke_dense" ~n:16 () in
  L.Engine.register eng dt;
  let reports = ref [] in
  (* (label, profile plan) of every analyzed cell: the count-only check
     below reads the root bag's leaf disposition from it. *)
  let plans = ref [] in
  let analyze label sql =
    let result, _, rep = L.Engine.query_analyze eng sql in
    Printf.printf "smoke %-24s %6d rows  %s\n%!" label result.Lh_storage.Table.nrows
      (Lh_util.Timing.duration_to_string rep.Report.total_s);
    Option.iter
      (fun (p : L.Profile.t) -> plans := (label, p.L.Profile.p_plan) :: !plans)
      (L.Engine.last_profile eng);
    reports := (label, rep) :: !reports
  in
  (* table2-bi: the scan path (Q1) and a join (Q3). *)
  analyze "table2-bi/scan" Queries.q1;
  analyze "table2-bi/join" Queries.q3;
  (* table2-la / table4: sparse WCOJ kernel, twice — the second run must
     hit the trie cache (§VI-A hot-run protocol). *)
  let smv = Queries.smv ~matrix:mname ~vector:"smoke_x" in
  analyze "table2-la/smv-cold" smv;
  analyze "table2-la/smv-hot" smv;
  (* fig5/fig6: dense kernel through the BLAS path. *)
  analyze "fig5/dmm-blas" (Queries.dmm ~matrix:"smoke_dense");
  (* layouts: count-only WCOJ leaves over distinct-key cycles. The dense
     16x16 matrix keeps every trie set in the bitset layout (bs∩bs plus
     buffered intersections at the outer positions); the strided sparse
     edge list stays uint (merge/gallop at the outer position — none of
     its 2-paths closes, so its count leaf is never reached). *)
  let edge_schema =
    Lh_storage.Schema.create
      [ ("row", Lh_storage.Dtype.Int, Lh_storage.Schema.Key);
        ("col", Lh_storage.Dtype.Int, Lh_storage.Schema.Key);
        ("v", Lh_storage.Dtype.Float, Lh_storage.Schema.Annotation) ]
  in
  ignore
    (L.Engine.register_rows eng ~name:"smoke_edge_s" ~schema:edge_schema
       (List.init 60 (fun k ->
            [ Lh_storage.Dtype.VInt (k * 97 mod 1999);
              Lh_storage.Dtype.VInt (((k * 53) + 7) mod 1999);
              Lh_storage.Dtype.VFloat (float_of_int (k mod 5)) ])));
  analyze "layouts/tri-dense" (Exp_layouts.triangle_sql "smoke_dense");
  analyze "layouts/tri-sparse" (Exp_layouts.triangle_sql "smoke_edge_s");
  (* table3/ablations: the LogicBlox-like configuration of the engine. *)
  let saved = L.Engine.config eng in
  L.Engine.set_config eng Levelheaded.Config.logicblox_like;
  analyze "table3/ablated" Queries.q3;
  L.Engine.set_config eng saved;
  (* repeated: the same query twice through the plan cache — the second
     run must hit and skip GHD selection + attribute ordering. *)
  L.Engine.reset_plan_cache eng;
  analyze "plancache/cold" Queries.q3;
  analyze "plancache/warm" Queries.q3;
  (* slow-query log: threshold 0 logs every query; the JSONL lines must
     parse back through lib/obs/json.ml with an "ok" outcome. *)
  let slow_lines = ref [] in
  L.Engine.set_profile_sink eng
    (Some (fun p -> slow_lines := L.Profile.to_string p :: !slow_lines));
  let saved = L.Engine.config eng in
  L.Engine.set_config eng { saved with L.Config.slow_log_ms = 0.0 };
  analyze "slowlog/scan" Queries.q1;
  L.Engine.set_config eng saved;
  L.Engine.set_profile_sink eng None;
  (* parallel execution: one cell per family at domains=2. The reports
     must show the pool engaged (exec.domains_used >= 2; pool.tasks > 0
     for the WCOJ cells — the tiny dense matrix fits one GEMM block, so
     the BLAS cell only asserts the gauge). *)
  (* baselines (Table II comparison columns) — run before the parallel
     cells so no worker domain exists yet (see the coverage check). *)
  let lookup nm = L.Catalog.find_exn (L.Engine.catalog eng) nm in
  let ast = Lh_sql.Parser.parse Queries.q3 in
  let (_ : Lh_storage.Dtype.value list list), rep =
    Report.with_session (fun () ->
        Lh_baseline.Pairwise.query ~lookup ~mode:Lh_baseline.Pairwise.Pipelined ast)
  in
  reports := ("baseline/pairwise", rep) :: !reports;
  (* serving: a tiny service over its own engine (the service owns the
     engine it wraps). Open/reject sessions, query sync and async, and
     publish two epochs so admission, queue-wait, publish and retire all
     tick their serve.* / epoch.* telemetry. *)
  let bad_serve = ref [] in
  (let module Serve = Lh_serve.Serve in
   let serve_eng = L.Engine.create () in
   let serve_schema =
     Lh_storage.Schema.create
       [ ("k", Lh_storage.Dtype.Int, Lh_storage.Schema.Key);
         ("v", Lh_storage.Dtype.Float, Lh_storage.Schema.Annotation) ]
   in
   let serve_rows g =
     List.init 8 (fun i ->
         [ Lh_storage.Dtype.VInt i; Lh_storage.Dtype.VFloat (float_of_int (i * g)) ])
   in
   ignore (L.Engine.register_rows serve_eng ~name:"serve_t" ~schema:serve_schema (serve_rows 1));
   let fail fmt = Printf.ksprintf (fun m -> bad_serve := m :: !bad_serve) fmt in
   let (), srep =
     Report.with_session (fun () ->
         let svc = Serve.create ~max_sessions:1 serve_eng in
         let s = Serve.open_session svc in
         (match Serve.open_session svc with
         | exception Serve.Error (Serve.Overloaded _) -> ()
         | _ -> fail "serve: second session admitted at max_sessions=1");
         let sql = "select sum(v) as s from serve_t" in
         (match Serve.query s sql with
         | Ok _ -> ()
         | Error e -> fail "serve: sync query failed: %s" (Serve.error_to_string e));
         (match Serve.await (Serve.submit s sql) with
         | Ok _ -> ()
         | Error e -> fail "serve: async query failed: %s" (Serve.error_to_string e));
         List.iter
           (fun g ->
             match Serve.ingest_rows svc ~name:"serve_t" ~schema:serve_schema (serve_rows g) with
             | Ok _ -> ()
             | Error e -> fail "serve: ingest %d failed: %s" g (Serve.error_to_string e))
           [ 2; 3 ];
         (match Serve.query s sql with
         | Ok t when t.Lh_storage.Table.nrows = 1 -> ()
         | Ok _ -> fail "serve: post-ingest query shape wrong"
         | Error e -> fail "serve: post-ingest query failed: %s" (Serve.error_to_string e));
         Serve.close svc)
   in
   Printf.printf "smoke %-24s %6d rows  %s\n%!" "serve/service" 1
     (Lh_util.Timing.duration_to_string srep.Report.total_s);
   if not (List.mem_assoc "serve.queue_wait" srep.Report.hists) then
     fail "serve: serve.queue_wait histogram absent from report";
   reports := ("serve/service", srep) :: !reports);
  (* durability: a scripted ingest → torn-tail "kill" → recover cycle over
     a throwaway store directory. Three batches (Group 2 sync) with a
     checkpoint after the second, then garbage appended to the WAL — a
     torn in-flight record, what a SIGKILL mid-append leaves behind — then
     restart recovery: checkpoint + suffix replay must land on the last
     acknowledged batch and truncate the torn tail. *)
  let bad_durable = ref [] in
  (let module Serve = Lh_serve.Serve in
   let module Store = Lh_durable.Store in
   let fail fmt = Printf.ksprintf (fun m -> bad_durable := m :: !bad_durable) fmt in
   let d_schema =
     Lh_storage.Schema.create
       [ ("k", Lh_storage.Dtype.Int, Lh_storage.Schema.Key);
         ("v", Lh_storage.Dtype.Float, Lh_storage.Schema.Annotation) ]
   in
   let d_rows g =
     List.init 8 (fun i ->
         [ Lh_storage.Dtype.VInt i; Lh_storage.Dtype.VFloat (float_of_int (i * g)) ])
   in
   let (), drep =
     Report.with_session (fun () ->
         Exp_durable.with_temp_dir (fun dir ->
             let store, _ = Store.open_dir ~sync:(Lh_durable.Wal.Group 2) dir in
             let d_eng = L.Engine.create () in
             let svc = Serve.create ~store ~checkpoint_every:2 d_eng in
             List.iter
               (fun g ->
                 match Serve.ingest_rows svc ~name:"durable_t" ~schema:d_schema (d_rows g) with
                 | Ok _ -> ()
                 | Error e -> fail "durable: ingest %d failed: %s" g (Serve.error_to_string e))
               [ 1; 2; 3 ];
             let wal = Store.wal_path store in
             Serve.close svc;
             let fd = Unix.openfile wal [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
             ignore (Unix.write fd (Bytes.make 32 '\xff') 0 32);
             Unix.close fd;
             let store, rc = Store.open_dir dir in
             if not rc.Store.rc_torn then fail "durable: torn WAL tail not detected";
             if rc.Store.rc_seq <> 3 then fail "durable: recovered seq %d (want 3)" rc.Store.rc_seq;
             if rc.Store.rc_checkpoint_seq <> 2 then
               fail "durable: checkpoint seq %d (want 2)" rc.Store.rc_checkpoint_seq;
             let r_eng = L.Engine.create () in
             Store.replay_into rc (fun ~name ~schema rows ->
                 ignore (L.Engine.register_rows r_eng ~name ~schema rows));
             Store.close store;
             match L.Engine.query r_eng "select sum(v) as s from durable_t" with
             | t when t.Lh_storage.Table.nrows = 1 ->
                 (* last acknowledged batch is g=3: sum(i*3, i<8) = 84 *)
                 let v = Lh_storage.Table.number t 0 0 in
                 if Float.abs (v -. 84.0) > 1e-9 then
                   fail "durable: recovered sum %.17g (want 84)" v
             | t -> fail "durable: recovered query returned %d rows" t.Lh_storage.Table.nrows
             | exception e -> fail "durable: recovered query raised %s" (Printexc.to_string e)))
   in
   Printf.printf "smoke %-24s %6d rows  %s\n%!" "durable/recover" 1
     (Lh_util.Timing.duration_to_string drep.Report.total_s);
   if not (List.mem_assoc "recover.replay" drep.Report.hists) then
     fail "durable: recover.replay histogram absent from report";
   reports := ("durable/recover", drep) :: !reports);
  let par_reports = ref [] in
  let saved = L.Engine.config eng in
  L.Engine.set_config eng { saved with L.Config.domains = 2 };
  let analyze_par label sql =
    analyze label sql;
    par_reports := List.hd !reports :: !par_reports
  in
  analyze_par "parallel/join@2" Queries.q3;
  analyze_par "parallel/smv@2" smv;
  analyze_par "parallel/dmm-blas@2" (Queries.dmm ~matrix:"smoke_dense");
  (* One join key: the count-only leaf is position 0 itself, so it must
     count once as one unsplit unit at any domain count. *)
  let key_schema =
    Lh_storage.Schema.create [ ("k", Lh_storage.Dtype.Int, Lh_storage.Schema.Key) ]
  in
  List.iter
    (fun (name, step) ->
      ignore
        (L.Engine.register_rows eng ~name ~schema:key_schema
           (List.init 200 (fun i -> [ Lh_storage.Dtype.VInt (i * step) ]))))
    [ ("smoke_ka", 1); ("smoke_kb", 3) ];
  analyze_par "parallel/count@2"
    "select count(*) as c from smoke_ka a, smoke_kb b where a.k = b.k";
  L.Engine.set_config eng saved;
  (* ---- assertions ---- *)
  let reports = !reports in
  let sum name =
    List.fold_left
      (fun acc ((_, r) : string * Report.t) ->
        acc + Option.value (List.assoc_opt name r.Report.counters) ~default:0)
      0 reports
  in
  let present name =
    List.exists (fun ((_, r) : string * Report.t) -> List.mem_assoc name r.Report.counters) reports
  in
  let required =
    [
      "trie_cache.hit"; "trie_cache.miss"; "trie.built"; "wcoj.intersections";
      "wcoj.leaf_ticks"; "scan.rows_scanned"; "rows.emitted"; "blas.dispatch";
      "budget.ticks"; "dense_cache.hit"; "dense_cache.miss"; "baseline.hash_builds";
      "baseline.rows_joined"; "exec.domains_used"; "gc.peak_live_words";
      "pool.tasks"; "pool.chunks"; "pool.workers"; "plan_cache.hit"; "plan_cache.miss";
      "profile.records"; "slowlog.lines"; "serve.sessions"; "serve.queries";
      "serve.admitted"; "serve.rejected"; "serve.ingests"; "epoch.published";
      "epoch.retired"; "set.inter.bb"; "set.inter.bu"; "set.inter.uu";
      "set.count_only"; "set.buffer_reuse";
      "wal.appended"; "wal.bytes"; "wal.fsyncs"; "wal.replayed"; "wal.truncated";
      "wal.checkpoints"; "recover.opens"; "recover.replayed";
      "recover.checkpoint_tables"; "recover.torn_tails";
    ]
  in
  let missing = List.filter (fun nm -> not (present nm)) required in
  (* Counters that this smoke workload must actually exercise. *)
  let must_be_nonzero =
    [
      "trie_cache.hit"; "trie_cache.miss"; "trie.built"; "wcoj.intersections";
      "scan.rows_scanned"; "rows.emitted"; "blas.dispatch"; "baseline.hash_builds";
      "baseline.rows_joined"; "gc.peak_live_words"; "plan_cache.hit"; "plan_cache.miss";
      "profile.records"; "slowlog.lines"; "serve.sessions"; "serve.queries";
      "serve.admitted"; "serve.rejected"; "serve.ingests"; "epoch.published";
      "epoch.retired"; "set.inter.bb"; "set.inter.bu"; "set.inter.uu";
      "set.count_only"; "set.buffer_reuse";
      "wal.appended"; "wal.fsyncs"; "wal.replayed"; "recover.opens";
      "recover.replayed"; "recover.torn_tails";
    ]
  in
  let zero = List.filter (fun nm -> present nm && sum nm = 0) must_be_nonzero in
  (* Phase coverage: spans of the analyzed runs must account for most of
     the measured total. Asserted on the cells that run before any worker
     domain exists: once a second domain is alive, scheduler and
     stop-the-world gaps on these sub-millisecond runs land between spans
     and make the ratio flaky — the parallel cells (which run last) are
     held to the counter assertions below instead. *)
  let bad_coverage =
    List.filter_map
      (fun ((label, r) : string * Report.t) ->
        let accounted = List.fold_left (fun a (_, d) -> a +. d) 0.0 (Report.phases r) in
        let skipped prefix =
          String.length label >= String.length prefix
          && String.sub label 0 (String.length prefix) = prefix
        in
        (* serve/ cells spend real time in service bookkeeping (admission,
           epoch bookkeeping) outside engine spans, by design; durable/ is
           dominated by WAL/checkpoint file IO, also unspanned; the layouts/
           triangles are cold sub-millisecond runs where GHD search for the
           3-cycle dominates and span coverage is noise *)
        (* the 0.5ms floor: under it (e.g. the ~200us BLAS cell) fixed
           per-span overheads and scheduler noise dominate the ratio *)
        if (not (skipped "parallel/" || skipped "serve/" || skipped "layouts/" || skipped "durable/"))
           && r.Report.total_s > 5e-4
           && accounted < 0.9 *. r.Report.total_s
        then
          Some (Printf.sprintf "%s: phases cover %.0f%% of %s" label
                  (100. *. accounted /. r.Report.total_s)
                  (Lh_util.Timing.duration_to_string r.Report.total_s))
        else None)
      reports
  in
  (* Parallel assertions on the domains=2 cells. *)
  let counter_of (r : Report.t) name = Option.value (List.assoc_opt name r.Report.counters) ~default:0 in
  (* Plan-cache assertions: the warm run must be a hit and must not have
     re-planned (no GHD / attribute-ordering spans in its trace). *)
  let bad_plancache =
    match List.assoc_opt "plancache/warm" reports with
    | None -> [ "plancache/warm report missing" ]
    | Some (r : Report.t) ->
        let problems = ref [] in
        if counter_of r "plan_cache.hit" < 1 then
          problems :=
            Printf.sprintf "plancache/warm: plan_cache.hit = %d (want >= 1)"
              (counter_of r "plan_cache.hit")
            :: !problems;
        List.iter
          (fun (s : Lh_obs.Obs.span) ->
            if s.Lh_obs.Obs.sname = "plan.ghd" || s.Lh_obs.Obs.sname = "plan.attr_order" then
              problems :=
                Printf.sprintf "plancache/warm: span %s present (query was re-planned)"
                  s.Lh_obs.Obs.sname
                :: !problems)
          r.Report.spans;
        !problems
  in
  let bad_parallel =
    List.concat_map
      (fun (label, (r : Report.t)) ->
        let problems = ref [] in
        if counter_of r "exec.domains_used" < 2 then
          problems :=
            Printf.sprintf "%s: exec.domains_used = %d (want >= 2)" label
              (counter_of r "exec.domains_used")
            :: !problems;
        if
          (* Both WCOJ cells must actually run chunks on the pool. *)
          (label = "parallel/join@2" || label = "parallel/smv@2")
          && counter_of r "pool.tasks" <= 0
        then problems := Printf.sprintf "%s: pool.tasks = 0 (pool never engaged)" label :: !problems;
        !problems)
      !par_reports
  in
  (* A plan that reads leaf=count must fold its matches through count-only
     leaves, whatever its domain count. A cell whose walk never reaches
     the innermost position (layouts/tri-sparse: no 2-path of its edge
     list closes) has no leaf ticks and nothing to count. *)
  let bad_count_only =
    List.filter_map
      (fun (label, plan) ->
        let r = List.assoc label reports in
        let count_only = counter_of r "set.count_only" in
        if Lh_util.Text.contains ~sub:"leaf=count" plan && counter_of r "wcoj.leaf_ticks" > 0 && count_only < 1 then
          Some (Printf.sprintf "%s: plan reads leaf=count, set.count_only = %d" label count_only)
        else None)
      !plans
  in
  (* Profile / histogram / slow-log assertions. *)
  let bad_profile =
    let problems = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
    List.iter
      (fun (label, (r : Report.t)) ->
        if label <> "baseline/pairwise" then
          match List.assoc_opt "query.latency" r.Report.hists with
          | Some s when Lh_obs.Hist.count s >= 1 -> ()
          | _ -> fail "%s: query.latency histogram absent/empty in report" label)
      reports;
    (match L.Engine.last_profile eng with
    | None -> fail "last_profile: no profile recorded"
    | Some p ->
        if p.L.Profile.p_outcome <> L.Profile.Ok_result then
          fail "last_profile: outcome %S (want ok)" (L.Profile.outcome_label p.L.Profile.p_outcome);
        if p.L.Profile.p_total_s <= 0.0 then fail "last_profile: total_seconds = 0";
        if p.L.Profile.p_phases = [] then fail "last_profile: no phase durations");
    (match !slow_lines with
    | [] -> fail "slow-log sink received no lines at threshold 0"
    | ls ->
        List.iter
          (fun line ->
            match Lh_obs.Json.parse line with
            | j -> (
                match Lh_obs.Json.member "outcome" j with
                | Some (Lh_obs.Json.String "ok") -> ()
                | _ -> fail "slow-log line outcome is not \"ok\": %s" line)
            | exception Lh_obs.Json.Parse_error m ->
                fail "slow-log line unparseable (%s): %s" m line)
          ls);
    !problems
  in
  (* --json cells: a measured LevelHeaded cell and an unsupported MKL-like
     one, recorded as --json records them; each must carry gc.minor_words,
     positive for the cell that ran a query. *)
  let bad_cells =
    let saved = !C.json_out in
    C.json_out := Some "(smoke)";
    let cell system = ignore (C.run_system eng { params with C.runs = 1 } system Queries.q6) in
    cell C.Lh;
    cell C.Mkl_like;
    C.json_out := saved;
    let cells = match C.records_json () with Lh_obs.Json.List l -> l | _ -> [] in
    List.filter_map
      (fun j ->
        let str k = match Lh_obs.Json.member k j with Some (Lh_obs.Json.String s) -> s | _ -> "?" in
        match (Option.bind (Lh_obs.Json.member "gc.minor_words" j) Lh_obs.Json.to_float, str "system") with
        | Some w, "LevelHeaded" when w > 0.0 -> None
        | Some _, "MKL-like" -> None
        | w, sys ->
            Some
              (Printf.sprintf "--json cell %s: gc.minor_words %s" sys
                 (match w with Some w -> Printf.sprintf "%g" w | None -> "missing")))
      cells
    @ if List.length cells = 2 then [] else [ "--json: expected 2 smoke cells" ]
  in
  (* A single bad-coverage report on these sub-millisecond runs is a
     one-off OS/GC stall, not an instrumentation gap — a missing span
     would degrade every query report. Warn on one, fail on two. *)
  let coverage_failures = if List.length bad_coverage >= 2 then bad_coverage else [] in
  if missing = [] && zero = [] && coverage_failures = [] && bad_parallel = [] && bad_plancache = []
     && bad_count_only = [] && bad_profile = [] && !bad_serve = [] && !bad_durable = []
     && bad_cells = []
  then begin
    List.iter
      (fun msg -> Printf.printf "smoke warn: %s (single stall tolerated)\n" msg)
      bad_coverage;
    Printf.printf "smoke ok: %d runs, %d counters all present\n%!" (List.length reports)
      (List.length required);
    0
  end
  else begin
    List.iter (fun nm -> Printf.eprintf "smoke FAIL: counter %s absent from telemetry\n" nm) missing;
    List.iter (fun nm -> Printf.eprintf "smoke FAIL: counter %s never incremented\n" nm) zero;
    List.iter (fun msg -> Printf.eprintf "smoke FAIL: %s\n" msg) coverage_failures;
    List.iter (fun msg -> Printf.eprintf "smoke FAIL: %s\n" msg) bad_parallel;
    List.iter (fun msg -> Printf.eprintf "smoke FAIL: %s\n" msg) bad_plancache;
    List.iter (fun msg -> Printf.eprintf "smoke FAIL: %s\n" msg) bad_count_only;
    List.iter (fun msg -> Printf.eprintf "smoke FAIL: %s\n" msg) bad_profile;
    List.iter (fun msg -> Printf.eprintf "smoke FAIL: %s\n" msg) !bad_serve;
    List.iter (fun msg -> Printf.eprintf "smoke FAIL: %s\n" msg) !bad_durable;
    List.iter (fun msg -> Printf.eprintf "smoke FAIL: %s\n" msg) bad_cells;
    1
  end

open Cmdliner

let ids_arg =
  let doc = "Experiments to run: table2-bi table2-la table3 table4 fig1 fig5a fig5b fig5c fig6 ablations repeated concurrency layouts graph durability epochs. Default: all." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let sf_arg =
  let doc = "Comma-separated TPC-H scale factors (analogues of the paper's SF 1/10/100)." in
  Arg.(value & opt string "0.01,0.05" & info [ "sf" ] ~doc)

let la_scale_arg =
  let doc = "Multiplier on the default matrix/voter dataset scales." in
  Arg.(value & opt float 1.0 & info [ "la-scale" ] ~doc)

let dense_arg =
  let doc = "Comma-separated dense matrix dimensions." in
  Arg.(value & opt string "96,128,192" & info [ "dense" ] ~doc)

let runs_arg =
  let doc = "Hot measurement runs per cell (the paper uses 7 and trims min/max)." in
  Arg.(value & opt int 3 & info [ "runs" ] ~doc)

let timeout_arg =
  let doc = "Per-measurement timeout in seconds (reported as t/o)." in
  Arg.(value & opt float 60.0 & info [ "timeout" ] ~doc)

let mem_arg =
  let doc = "Per-measurement live-heap budget in machine words (reported as oom)." in
  Arg.(value & opt int 250_000_000 & info [ "mem-words" ] ~doc)

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Data generation seed.")

let domains_arg =
  let doc =
    "Worker domains for the LevelHeaded configurations (default: \\$LH_DOMAINS if set, else 1). \
     With --json and N > 1, each LevelHeaded cell also runs instrumented at domains=1 and the \
     record gains end-to-end and per-phase speedup columns."
  in
  Arg.(value & opt int (Lh_util.Parfor.default_domains ()) & info [ "domains" ] ~docv:"N" ~doc)

let concurrency_arg =
  let doc =
    "Comma-separated client counts for the $(b,concurrency) experiment (sessions \
     querying the epoch-pinned service in parallel)."
  in
  Arg.(value & opt string "1,2,4,8" & info [ "concurrency" ] ~docv:"N,N,..." ~doc)

let json_arg =
  let doc = "Also write per-query telemetry (phase breakdown + counter deltas) as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let smoke_arg =
  let doc =
    "Smoke test: run one query per experiment family on tiny data with telemetry enabled and \
     fail if any expected counter is absent or never incremented."
  in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let compare_arg =
  let doc =
    "Compare against the baseline record list $(docv) (a previous --json file, e.g. the \
     committed BENCH_6.json) and exit non-zero if any cell regressed beyond tolerance. \
     Compares the records of this run (requires --json) unless --compare-with is given."
  in
  Arg.(value & opt (some string) None & info [ "compare" ] ~docv:"BASELINE" ~doc)

let compare_with_arg =
  let doc =
    "With --compare: skip running experiments and compare the record list $(docv) against the \
     baseline (pure file-vs-file comparison; deterministic, used by CI to self-check the gate)."
  in
  Arg.(value & opt (some string) None & info [ "compare-with" ] ~docv:"CURRENT" ~doc)

let tolerance_arg =
  let doc =
    "Allowed relative slowdown before --compare flags a regression: a cell fails when \
     current > baseline * (1 + $(docv)). Slowdowns under 2ms absolute never fail."
  in
  Arg.(value & opt float 0.5 & info [ "tolerance" ] ~docv:"T" ~doc)

let slowdown_arg =
  let doc =
    "Multiply the current run's seconds by $(docv) before comparing — a testing aid that lets \
     CI prove the --compare gate actually fires."
  in
  Arg.(value & opt float 1.0 & info [ "compare-slowdown" ] ~docv:"F" ~doc)

let report_arg =
  let doc =
    "Print the Table II cells of the record file $(docv) (a --json baseline) as markdown tables \
     and exit: the BI block by default, or one table per EXPERIMENT given (table2-bi, \
     table2-la). EXPERIMENTS.md's generated subsections are this output."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"BASELINE" ~doc)

let run_compare ~baseline_path ~tolerance ~slowdown current =
  match Lh_obs.Baseline.load baseline_path with
  | exception (Sys_error msg | Lh_obs.Json.Parse_error msg) ->
      Printf.eprintf "cannot load baseline %s: %s\n" baseline_path msg;
      2
  | baseline ->
      let v =
        Lh_obs.Baseline.compare_runs ~tolerance ~baseline
          ~current:(Lh_obs.Baseline.scale slowdown current)
          ()
      in
      print_string (Lh_obs.Baseline.to_text v);
      if Lh_obs.Baseline.ok v then 0 else 1

let main ids sf la_scale dense runs timeout mem_words seed domains concurrency json run_smoke
    compare_base compare_with tolerance slowdown report_path =
  let parse_list conv s = String.split_on_char ',' s |> List.map String.trim |> List.map conv in
  let params =
    {
      C.sfs = parse_list float_of_string sf;
      la_scale;
      dense_sizes = parse_list int_of_string dense;
      runs;
      timeout;
      mem_words;
      seed;
      domains = max 1 domains;
      concurrency = parse_list int_of_string concurrency;
    }
  in
  (* validate the sink up front: losing the JSON after a full bench run
     is much worse than refusing to start *)
  (match json with
  | Some path -> (
      try close_out (open_out path)
      with Sys_error msg ->
        Printf.eprintf "cannot write --json file: %s\n" msg;
        exit 2)
  | None -> ());
  C.json_out := json;
  if run_smoke then exit (smoke params);
  Option.iter
    (fun path ->
      match report ~ids path with
      | () -> exit 0
      | exception (Sys_error msg | Lh_obs.Json.Parse_error msg | Failure msg) ->
          Printf.eprintf "cannot report %s: %s\n" path msg;
          exit 2)
    report_path;
  (* Pure file-vs-file comparison: no experiments run. *)
  (match (compare_base, compare_with) with
  | Some b, Some c -> (
      match Lh_obs.Baseline.load c with
      | exception (Sys_error msg | Lh_obs.Json.Parse_error msg) ->
          Printf.eprintf "cannot load %s: %s\n" c msg;
          exit 2
      | current -> exit (run_compare ~baseline_path:b ~tolerance ~slowdown current))
  | None, Some _ ->
      Printf.eprintf "--compare-with requires --compare BASELINE\n";
      exit 2
  | Some _, None when json = None ->
      Printf.eprintf "--compare needs --json FILE (to collect this run's records) or --compare-with CURRENT\n";
      exit 2
  | _ -> ());
  let ids = if ids = [] then all_ids else ids in
  List.iter
    (fun id ->
      if not (List.mem id all_ids) then begin
        Printf.eprintf "unknown experiment %S; available: %s\n" id (String.concat " " all_ids);
        exit 2
      end)
    ids;
  run_ids params ids;
  match compare_base with
  | Some b ->
      exit
        (run_compare ~baseline_path:b ~tolerance ~slowdown
           (Lh_obs.Baseline.cells_of_json (C.records_json ())))
  | None -> ()

let cmd =
  let info = Cmd.info "lh-bench" ~doc:"Regenerate the LevelHeaded paper's tables and figures" in
  Cmd.v info
    Term.(
      const main $ ids_arg $ sf_arg $ la_scale_arg $ dense_arg $ runs_arg $ timeout_arg $ mem_arg
      $ seed_arg $ domains_arg $ concurrency_arg $ json_arg $ smoke_arg $ compare_arg
      $ compare_with_arg $ tolerance_arg $ slowdown_arg $ report_arg)

let () = exit (Cmd.eval cmd)
