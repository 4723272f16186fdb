(* lhcli — load delimited files into a LevelHeaded engine and query them.

   Subcommands:

     gen    generate benchmark datasets as delimited files
     query  load tables and run SQL (or EXPLAIN it)

   Examples:

     lhcli gen tpch --sf 0.01 --out /tmp/tpch
     lhcli query \
       --table "lineitem:/tmp/tpch/lineitem.tbl:l_orderkey int key,l_partkey int key,..." \
       --sql "select count(*) c from lineitem"
     lhcli query --tpch /tmp/tpch --sql "select ... " --explain
*)

module L = Levelheaded
module Schema = Lh_storage.Schema
module Table = Lh_storage.Table
open Cmdliner

(* ---- gen ---- *)

let write_table dir sep (t : Table.t) =
  let path = Filename.concat dir (t.Table.name ^ ".tbl") in
  let rows =
    List.init t.Table.nrows (fun r ->
        List.init (Schema.ncols t.Table.schema) (fun c ->
            Lh_storage.Dtype.value_to_string (Table.value t ~row:r ~col:c)))
  in
  Lh_util.Csv.write_file ~sep path rows;
  Printf.printf "wrote %s (%d rows)\n%!" path t.Table.nrows

let gen_run dataset sf n out seed =
  if not (Sys.file_exists out) then Unix.mkdir out 0o755;
  let dict = Lh_storage.Dict.create () in
  (match dataset with
  | "tpch" -> List.iter (write_table out '|') (Lh_datagen.Tpch.generate ~dict ~sf ~seed ())
  | "matrix" ->
      let m = Lh_datagen.Matrices.banded ~dict ~name:"matrix" ~n ~nnz_per_row:20 ~seed () in
      write_table out ',' m.Lh_datagen.Matrices.table
  | "voter" ->
      let voters, precincts = Lh_datagen.Voter.generate ~dict ~nvoters:n ~nprecincts:(max 1 (n / 200)) ~seed () in
      write_table out ',' voters;
      write_table out ',' precincts
  | other -> failwith (Printf.sprintf "unknown dataset %S (tpch | matrix | voter)" other));
  0

let gen_cmd =
  let dataset = Arg.(required & pos 0 (some string) None & info [] ~docv:"DATASET" ~doc:"tpch, matrix or voter") in
  let sf = Arg.(value & opt float 0.01 & info [ "sf" ] ~doc:"TPC-H scale factor") in
  let n = Arg.(value & opt int 10_000 & info [ "size"; "n" ] ~doc:"matrix dimension / voter count") in
  let out = Arg.(value & opt string "." & info [ "out"; "o" ] ~doc:"output directory") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"generator seed") in
  Cmd.v (Cmd.info "gen" ~doc:"Generate benchmark datasets as delimited files")
    Term.(const gen_run $ dataset $ sf $ n $ out $ seed)

(* ---- query ---- *)

let tpch_schema_sep name =
  (List.assoc name Lh_datagen.Tpch.schemas, '|')

let print_result (result : Table.t) =
  for c = 0 to Schema.ncols result.Table.schema - 1 do
    if c > 0 then print_char '|';
    print_string (Schema.col result.Table.schema c).Schema.name
  done;
  print_newline ();
  for r = 0 to result.Table.nrows - 1 do
    Format.printf "%a@." (fun fmt () -> Table.pp_row fmt result r) ()
  done

let path_name = function
  | L.Engine.Scan_path -> "scan"
  | L.Engine.Wcoj_path -> "wcoj"
  | L.Engine.Blas_path -> "blas"

let query_run tables tpch_dir sql explain_only analyze trace_file metrics_file sep domains params
    repeat prepare_flag profile_flag slow_log slow_ms =
  let failed = ref false in
  (* Configure domains before loading: ingest parallelizes too. *)
  let config = { L.Config.default with L.Config.domains = max 1 domains } in
  (* Slow-log threshold: --slow-ms wins, then LH_SLOW_MS (already folded
     into the default config), and a bare --slow-log means "log every
     query" rather than the log-nothing default. *)
  let config =
    match (slow_ms, slow_log) with
    | Some ms, _ -> { config with L.Config.slow_log_ms = ms }
    | None, Some _ when config.L.Config.slow_log_ms = infinity ->
        { config with L.Config.slow_log_ms = 0.0 }
    | _ -> config
  in
  let eng = L.Engine.create ~config () in
  (* Profiles are only assembled while telemetry is on; --analyze would
     enable it per-run, but --profile / --slow-log want every query. *)
  if profile_flag || slow_log <> None then Lh_obs.Obs.set_enabled true;
  let slow_oc =
    match slow_log with
    | None -> None
    | Some path -> (
        try Some (open_out path)
        with Sys_error msg ->
          Printf.eprintf "cannot open --slow-log file: %s\n" msg;
          exit 2)
  in
  Option.iter
    (fun oc ->
      L.Engine.set_profile_sink eng
        (Some
           (fun p ->
             output_string oc (L.Profile.to_string p);
             output_char oc '\n')))
    slow_oc;
  let finish () =
    (if profile_flag then
       match L.Engine.last_profile eng with
       | Some p -> Printf.eprintf "%s\n" (L.Profile.to_string p)
       | None -> ());
    Option.iter
      (fun oc ->
        close_out oc;
        Option.iter (Printf.eprintf "wrote slow-query log to %s\n") slow_log)
      slow_oc
  in
  let go () =
  (match tpch_dir with
  | None -> ()
  | Some dir ->
      List.iter
        (fun (name, _) ->
          let path = Filename.concat dir (name ^ ".tbl") in
          if Sys.file_exists path then begin
            let schema, sep = tpch_schema_sep name in
            ignore (L.Engine.load_csv eng ~name ~schema ~sep path);
            Printf.printf "loaded %s\n%!" path
          end)
        Lh_datagen.Tpch.schemas);
  List.iter
    (fun arg ->
      let name, path, schema = Cli_args.parse_table_arg arg in
      ignore (L.Engine.load_csv eng ~name ~schema ~sep path);
      Printf.printf "loaded %s as %s\n%!" path name)
    tables;
  let instrumented = analyze || trace_file <> None || metrics_file <> None in
  let use_prepared = prepare_flag || params <> [] || repeat > 1 in
  let write_sinks report =
    let write what path json k =
      match Lh_obs.Report.write_file path json with
      | () -> Printf.eprintf "wrote %s to %s%s\n" what path k
      | exception Sys_error msg ->
          Printf.eprintf "error: cannot write %s: %s\n" what msg;
          failed := true
    in
    Option.iter
      (fun path ->
        write "Chrome trace" path (Lh_obs.Report.chrome_trace report)
          " (open via chrome://tracing)")
      trace_file;
    Option.iter
      (fun path -> write "metrics JSON" path (Lh_obs.Report.metrics_json report) "")
      metrics_file
  in
  (match sql with
  | None -> Printf.eprintf "no --sql given\n"
  | Some sql ->
      if explain_only then print_string (L.Engine.explain eng sql).L.Engine.etext
      else if use_prepared then begin
        let values = List.map Cli_args.parse_param params in
        let stmt, prep_dt = Lh_util.Timing.time (fun () -> L.Engine.prepare eng sql) in
        let n = L.Engine.Stmt.nparams stmt in
        Printf.eprintf "-- prepared in %s (%d parameter%s)\n%!"
          (Lh_util.Timing.duration_to_string prep_dt)
          n
          (if n = 1 then "" else "s");
        for k = 1 to max 1 repeat do
          let last = k = max 1 repeat in
          if last && instrumented then begin
            let result, report = L.Engine.Stmt.exec_analyze stmt values in
            print_result result;
            Printf.eprintf "-- exec %d/%d: %d rows in %s\n" k (max 1 repeat) result.Table.nrows
              (Lh_util.Timing.duration_to_string report.Lh_obs.Report.total_s);
            prerr_string (Lh_obs.Report.to_text report);
            write_sinks report
          end
          else begin
            let result, dt = Lh_util.Timing.time (fun () -> L.Engine.Stmt.exec stmt values) in
            if last then print_result result;
            Printf.eprintf "-- exec %d/%d: %d rows in %s\n%!" k (max 1 repeat) result.Table.nrows
              (Lh_util.Timing.duration_to_string dt)
          end
        done
      end
      else if instrumented then begin
        let result, ex, report = L.Engine.query_analyze eng sql in
        print_result result;
        Printf.eprintf "-- %d rows in %s (%s path)\n" result.Table.nrows
          (Lh_util.Timing.duration_to_string report.Lh_obs.Report.total_s)
          (path_name ex.L.Engine.epath);
        prerr_string (Lh_obs.Report.to_text report);
        write_sinks report
      end
      else begin
        let ex = L.Engine.explain eng sql in
        let result, dt = Lh_util.Timing.time (fun () -> L.Engine.query eng sql) in
        print_result result;
        Printf.eprintf "-- %d rows in %s (%s path)\n" result.Table.nrows
          (Lh_util.Timing.duration_to_string dt)
          (path_name ex.L.Engine.epath)
      end);
  if !failed then 1 else 0
  in
  (* Typed failures (including injected faults and budget overruns) get a
     clean one-line error and exit 1 rather than cmdliner's uncaught-
     exception banner. *)
  match go () with
  | code ->
      finish ();
      code
  | exception L.Engine.Error e ->
      Printf.eprintf "error: %s\n" (L.Engine.Error.to_string e);
      finish ();
      1
  | exception (Lh_util.Budget.Timed_out | Lh_util.Budget.Out_of_memory_budget) ->
      Printf.eprintf "error: budget exceeded (time or memory limit hit mid-execution)\n";
      finish ();
      1

let query_cmd =
  let tables =
    Arg.(value & opt_all string [] & info [ "table"; "t" ] ~docv:"NAME:PATH:SCHEMA"
           ~doc:"Load a delimited file; SCHEMA is 'col dtype [key], ...'")
  in
  let tpch = Arg.(value & opt (some string) None & info [ "tpch" ] ~doc:"Directory of lhcli-generated TPC-H .tbl files to load") in
  let sql = Arg.(value & opt (some string) None & info [ "sql"; "q" ] ~doc:"SQL to run") in
  let explain = Arg.(value & flag & info [ "explain" ] ~doc:"Print the plan instead of executing") in
  let analyze =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"EXPLAIN ANALYZE: run with telemetry and print the per-phase time breakdown and counters")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome chrome://tracing-compatible trace of the run to $(docv)")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the run's telemetry (phases, counters, spans) as JSON to $(docv)")
  in
  let sep = Arg.(value & opt char ',' & info [ "sep" ] ~doc:"Field separator for --table files") in
  let domains =
    Arg.(value
         & opt int (Lh_util.Parfor.default_domains ())
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains for ingest, trie builds and query execution (default: \
                   \\$LH_DOMAINS if set, else 1)")
  in
  let params =
    Arg.(value & opt_all string [] & info [ "param"; "p" ] ~docv:"VALUE"
           ~doc:"Bind a positional parameter (repeat for \\$1, \\$2, ...). Typed by narrowest \
                 parse: int, float, date (YYYY-MM-DD), else string; quote ('42') to force \
                 string. Implies the prepared path.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Prepare once and execute $(docv) times, timing each execution")
  in
  let prepare_flag =
    Arg.(value & flag & info [ "prepare" ]
           ~doc:"Use Engine.prepare / Stmt.exec even without parameters or --repeat")
  in
  let profile_flag =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Print the per-query profile record (normalized SQL, plan summary, cache \
                 disposition, rows, per-phase seconds, counter deltas, outcome) as one JSON \
                 line on stderr. Composes with --analyze and --metrics. On --repeat, the \
                 last execution's profile is printed.")
  in
  let slow_log =
    Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"FILE"
           ~doc:"Append the profile of every query at least --slow-ms milliseconds long to \
                 $(docv) as JSON lines. Without --slow-ms (or \\$LH_SLOW_MS), logs every query.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Slow-query threshold in milliseconds for --slow-log (overrides \\$LH_SLOW_MS)")
  in
  Cmd.v (Cmd.info "query" ~doc:"Load delimited files and run SQL")
    Term.(
      const query_run $ tables $ tpch $ sql $ explain $ analyze $ trace $ metrics $ sep $ domains
      $ params $ repeat $ prepare_flag $ profile_flag $ slow_log $ slow_ms)

let () =
  let info = Cmd.info "lhcli" ~doc:"LevelHeaded command-line interface" in
  exit (Cmd.eval' (Cmd.group info [ gen_cmd; query_cmd ]))
