(* Shared benchmark infrastructure: engine setup, the paper's measurement
   protocol, and table rendering. *)

module L = Levelheaded
module Budget = Lh_util.Budget
module Timing = Lh_util.Timing

type params = {
  sfs : float list;  (* TPC-H scale factors *)
  la_scale : float;  (* multiplier on the default matrix scales *)
  dense_sizes : int list;
  runs : int;
  timeout : float;  (* per-measurement budget, seconds *)
  mem_words : int;  (* per-measurement live-word budget *)
  seed : int;
  domains : int;  (* worker domains for the LevelHeaded configurations *)
  concurrency : int list;  (* client counts for the serve experiment *)
}

let default_params =
  {
    sfs = [ 0.01; 0.05 ];
    la_scale = 1.0;
    dense_sizes = [ 96; 128; 192 ];
    runs = 3;
    timeout = 60.0;
    mem_words = 250_000_000;
    seed = 42;
    domains = 1;
    concurrency = [ 1; 2; 4; 8 ];
  }

type outcome = Time of float | Oom | Timeout | Unsupported

let outcome_to_string = function
  | Time t -> Timing.duration_to_string t
  | Oom -> "oom"
  | Timeout -> "t/o"
  | Unsupported -> "-"

let relative ~baseline = function
  | Time t -> (
      match baseline with
      | Time b when b > 0.0 -> Printf.sprintf "%.2fx" (t /. b)
      | _ -> Timing.duration_to_string t)
  | o -> outcome_to_string o

(* §VI-A protocol: one warm-up run (index construction excluded: it
   builds the tables' memoized tries), then [runs] hot measurements with min/max trimmed (the
   same trimmed mean as [Timing.measure]). A budget violation on any run
   reports oom / t/o. Also returns the raw per-run samples so cells can
   report latency percentiles, not just the mean. *)
let measure_samples ?budget ~runs f =
  let budget = Option.value budget ~default:Budget.unlimited in
  Budget.start budget;
  match f () with
  | exception Budget.Out_of_memory_budget -> (Oom, [])
  | exception Budget.Timed_out -> (Timeout, [])
  | _ -> (
      let samples = ref [] in
      let run () =
        Budget.start budget;
        let t0 = Timing.monotonic_now () in
        ignore (Sys.opaque_identity (f ()));
        samples := (Timing.monotonic_now () -. t0) :: !samples
      in
      match
        for _ = 1 to max 1 runs do
          run ()
        done
      with
      | () ->
          let xs = List.rev !samples in
          let kept =
            if List.length xs >= 3 then
              (* drop the fastest and the slowest run *)
              match List.sort compare xs with
              | _fastest :: rest -> (
                  match List.rev rest with _slowest :: mid -> mid | [] -> [])
              | [] -> []
            else xs
          in
          let mean = List.fold_left ( +. ) 0.0 kept /. float_of_int (List.length kept) in
          (Time mean, xs)
      | exception Budget.Out_of_memory_budget -> (Oom, List.rev !samples)
      | exception Budget.Timed_out -> (Timeout, List.rev !samples))

let measure ?budget ~runs f = fst (measure_samples ?budget ~runs f)

(* ---------------- engines over one dataset ---------------- *)

type system = Lh | Lh_logicblox | Hyper_like | Monet_like | Mkl_like

let system_name = function
  | Lh -> "LevelHeaded"
  | Lh_logicblox -> "LogicBlox-like"
  | Hyper_like -> "HyPer-like"
  | Monet_like -> "MonetDB-like"
  | Mkl_like -> "MKL-like"

(* ---------------- JSON telemetry sink ----------------

   When [json_out] is set (bench --json FILE), every measured cell also
   performs one extra instrumented hot run and appends a record with the
   per-phase span breakdown and counter deltas, so the paper tables can
   be decomposed into planning / trie building / WCOJ / BLAS time. *)

module Json = Lh_obs.Json

let json_out : string option ref = ref None
let current_experiment = ref ""
let json_records : Json.t list ref = ref []

let record_cell ?domains ?seq_report ?(samples = []) ?(extra = []) ~system ~sql ~outcome report =
  if !json_out <> None then begin
    let open Lh_obs in
    let base =
      [
        ("experiment", Json.String !current_experiment);
        ("system", Json.String system);
        ("sql", Json.String sql);
        ("outcome", Json.String (outcome_to_string outcome));
      ]
    in
    let domains_field =
      match domains with None -> [] | Some d -> [ ("domains", Json.Int d) ]
    in
    let timing = match outcome with Time t -> [ ("seconds", Json.Float t) ] | _ -> [] in
    (* Per-cell latency percentiles over the raw hot-run samples, via a
       local (unregistered) log2 histogram. *)
    let latency =
      match samples with
      | [] -> []
      | _ ->
          let h = Hist.make () in
          List.iter (Hist.observe_always h) samples;
          [ ("latency", Hist.stats_json (Hist.snapshot h)) ]
    in
    let telemetry =
      match report with
      | None -> []
      | Some (r : Report.t) ->
          [
            ("analyzed_seconds", Json.Float r.Report.total_s);
            ( "phases",
              Json.Obj (List.map (fun (n, d) -> (n, Json.Float d)) (Report.phases r)) );
            ( "counters",
              Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) r.Report.counters) );
            ( "histograms",
              Json.Obj (List.map (fun (n, s) -> (n, Hist.stats_json s)) r.Report.hists) );
          ]
    in
    (* Parallel speedup decomposition: when the cell also ran instrumented
       at domains=1, report the end-to-end and per-phase sequential/parallel
       time ratios (only phases present in both runs, e.g. trie building,
       WCOJ execution, BLAS kernels). *)
    let speedups =
      match (report, seq_report) with
      | Some (par : Report.t), Some (seq : Report.t) when par.Report.total_s > 0.0 ->
          let par_phases = Report.phases par in
          let phase_speedups =
            List.filter_map
              (fun (n, seq_d) ->
                match List.assoc_opt n par_phases with
                | Some par_d when par_d > 0.0 -> Some (n, Json.Float (seq_d /. par_d))
                | _ -> None)
              (Report.phases seq)
          in
          [
            ("sequential_seconds", Json.Float seq.Report.total_s);
            ("speedup", Json.Float (seq.Report.total_s /. par.Report.total_s));
            ("phase_speedups", Json.Obj phase_speedups);
          ]
      | _ -> []
    in
    json_records :=
      Json.Obj (base @ domains_field @ timing @ latency @ telemetry @ speedups @ extra)
      :: !json_records
  end

let records_json () = Json.List (List.rev !json_records)

let write_json () =
  match !json_out with
  | None -> ()
  | Some path ->
      Lh_obs.Report.write_file path (Json.List (List.rev !json_records));
      Printf.eprintf "wrote per-query telemetry JSON to %s\n%!" path

let instrumented_rerun f =
  match !json_out with
  | None -> None
  | Some _ -> (
      match Lh_obs.Report.with_session f with
      | x, r ->
          ignore (Sys.opaque_identity x);
          Some r
      | exception (Budget.Out_of_memory_budget | Budget.Timed_out) -> None)

(* [measure], plus — when --json is active and the cell succeeded — one
   extra instrumented hot run recorded under [system] / [sql]. When
   [sequential] is given (the same cell pinned to domains=1), it too runs
   instrumented so the record carries speedup columns. *)
let measured ?budget ~runs ?domains ?sequential ~system ~sql f =
  let outcome, samples = measure_samples ?budget ~runs f in
  let report = match outcome with Time _ -> instrumented_rerun f | _ -> None in
  let seq_report =
    match (report, sequential) with
    | Some _, Some fseq -> instrumented_rerun fseq
    | _ -> None
  in
  record_cell ?domains ?seq_report ~samples ~system ~sql ~outcome report;
  outcome

(* Run [sql] on [system] against the master engine. Engine configs are
   swapped in place; tries are memoized on the tables under keys that fix
   their contents, so configurations share only identical tries. *)
let run_system eng params system sql =
  let budget = Budget.create ~max_live_words:params.mem_words ~max_seconds:params.timeout () in
  let lookup n = L.Catalog.find_exn (L.Engine.catalog eng) n in
  let with_cfg cfg f =
    let saved = L.Engine.config eng in
    L.Engine.set_config eng { cfg with L.Config.budget } ;
    Fun.protect ~finally:(fun () -> L.Engine.set_config eng saved) f
  in
  (* One hot run of the cell, as a thunk shared by the measurement loop
     and the instrumented telemetry rerun. LevelHeaded configurations run
     at [params.domains]; when that is > 1 a domains=1 twin of the thunk
     feeds the speedup columns of the JSON record. *)
  let lh_thunk base ~domains () =
    with_cfg { base with L.Config.domains } (fun () -> ignore (L.Engine.query eng sql))
  in
  let lh_pair base =
    ( lh_thunk base ~domains:params.domains,
      if params.domains > 1 then Some (lh_thunk base ~domains:1) else None )
  in
  let once, sequential, domains =
    match system with
    | Lh ->
        let f, s = lh_pair L.Config.default in
        (Some f, s, Some params.domains)
    | Lh_logicblox ->
        let f, s = lh_pair L.Config.logicblox_like in
        (Some f, s, Some params.domains)
    | Hyper_like ->
        let ast = Lh_sql.Parser.parse sql in
        ( Some
            (fun () ->
              ignore
                (Lh_baseline.Pairwise.query ~lookup ~mode:Lh_baseline.Pairwise.Pipelined ~budget
                   ast)),
          None,
          None )
    | Monet_like ->
        let ast = Lh_sql.Parser.parse sql in
        ( Some
            (fun () ->
              ignore
                (Lh_baseline.Pairwise.query ~lookup
                   ~mode:Lh_baseline.Pairwise.Materializing ~budget ast)),
          None,
          None )
    | Mkl_like -> (None, None, None)
  in
  match once with
  | None ->
      record_cell ~system:(system_name system) ~sql ~outcome:Unsupported None;
      Unsupported
  | Some f ->
      measured ~runs:params.runs ?domains ?sequential ~system:(system_name system) ~sql f

(* ---------------- table rendering ---------------- *)

let print_header title columns =
  Printf.printf "\n%s\n" title;
  let line = String.make (String.length title) '=' in
  Printf.printf "%s\n" line;
  Printf.printf "%-22s" "";
  List.iter (fun c -> Printf.printf "%14s" c) columns;
  print_newline ()

let print_row label cells =
  Printf.printf "%-22s" label;
  List.iter (fun c -> Printf.printf "%14s" c) cells;
  print_newline ()

(* baseline = fastest Time cell, as in Table II *)
let best_of outcomes =
  List.fold_left
    (fun acc o -> match (acc, o) with
      | None, Time t -> Some (Time t)
      | Some (Time b), Time t when t < b -> Some (Time t)
      | acc, _ -> acc)
    None outcomes

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
