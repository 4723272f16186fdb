(* Self-checks of the benchmark itself (run by `dune runtest`):

   - the answer checker accepts lhserve's %.6g rendering of a right
     answer and rejects a corrupted expected answer;
   - a tiny-size smoke of every workload, untraced and traced: every
     metric BENCHMARK.json names is reported with its unit, and no
     operation fails;
   - layer attribution: a fixed delay added inside one wrapped public
     call (Store.log_batch) shows up in that layer's number and in no
     other;
   - the public-call breakdown of an ingest sums to within 10% of
     Serve.ingest_rows on the same batch stream, and engine phases plus
     view creation cover at least 90% of Serve.query_epoch.

     selftest.exe --lhserve PATH --benchmark PATH/BENCHMARK.json

   Timing checks are retried a few times before they fail: on a shared
   machine one measurement can land in a slow spell. *)

module Dtype = Lh_storage.Dtype
module Json = Lh_obs.Json
module Layer = Backend.Layer

let failures = ref 0

let check name ok detail =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s: %s\n%!" name detail
  end

let rec retry n f = match f () with Ok () -> Ok () | Error _ when n > 1 -> retry (n - 1) f | e -> e

(* ---- the answer checker ---- *)

let test_checker () =
  let rows =
    [
      [ Dtype.VString "ASIA"; Dtype.VInt 3; Dtype.VFloat 123456.789 ];
      [ Dtype.VString "EUROPE"; Dtype.VInt 4; Dtype.VFloat 0.000123456789 ];
    ]
  in
  (* lhserve prints cells with Dtype.value_to_string (floats as %.6g) *)
  let lines = List.rev_map (fun r -> String.concat "|" (List.map Dtype.value_to_string r)) rows in
  let exp = Check.expected_of_rows rows in
  check "checker accepts the %.6g rendering, any row order" (Check.diff exp lines = None)
    (Option.value ~default:"" (Check.diff exp lines));
  let corrupt =
    Check.expected_of_rows
      [ List.hd rows; [ Dtype.VString "EUROPE"; Dtype.VInt 4; Dtype.VFloat 0.000124 ] ]
  in
  check "checker rejects a corrupted expected answer" (Check.diff corrupt lines <> None) "accepted";
  check "checker rejects a missing row" (Check.diff exp (List.tl lines) <> None) "accepted";
  (* a real answer: the pairwise evaluator's Q1 against the engine's *)
  let a = Analytics.prepare ~seed:1 in
  let eng = Inputs.load_engine a.Analytics.ds in
  let q1 = (snd a.Analytics.mix.Mix.kinds.(0)).(0) in
  let got = Levelheaded.Engine.query eng q1.Mix.sql in
  let expect = a.Analytics.expected.(0).(0) in
  check "engine Q1 matches the pairwise evaluator" (Check.diff_table expect got = None)
    (Option.value ~default:"" (Check.diff_table expect got));
  let bad = Array.copy expect in
  bad.(0) <-
    List.map (function Dtype.VFloat f -> Dtype.VFloat (f *. 1.001) | v -> v) bad.(0);
  check "engine Q1 against a corrupted expected answer is rejected"
    (Check.diff_table bad got <> None) "accepted"

(* ---- tiny smoke of every workload ---- *)

let declared path section =
  let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  match Json.member section j with
  | Some (Json.List ms) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> Some (n, u)
          | _ -> None)
        ms
  | _ -> failwith ("BENCHMARK.json: no " ^ section)

let test_smoke ~bin ~benchmark =
  List.iter
    (fun (trace, section) ->
      let want = declared benchmark section in
      List.iter
        (fun workload ->
          let name = Printf.sprintf "smoke %s --trace %d" workload trace in
          match Workloads.run ~bin ~workload ~seed:1 ~seconds:1.5 ~trace with
          | exception e -> check name false (Printexc.to_string e)
          | tally, metrics, _ ->
              let missing =
                List.filter
                  (fun (n, u) ->
                    not
                      (List.exists
                         (fun m ->
                           m.Stats.m_name = n && m.Stats.m_unit = u
                           && Float.is_finite m.Stats.m_value)
                         metrics))
                  want
              in
              check name
                (missing = [] && tally.Tally.failed = 0 && tally.Tally.attempted > 0)
                (Printf.sprintf "failed %d of %d; missing or non-finite: %s" tally.Tally.failed
                   tally.Tally.attempted
                   (String.concat ", " (List.map fst missing))))
        [ "analytics"; "ingest"; "concurrent" ])
    [ (0, "end_to_end"); (1, "per_layer") ]

(* ---- layer attribution ---- *)

let layers =
  [ "ingest.table"; "ingest.snapshot"; "wal.append"; "checkpoint"; "serve.view"; "engine.query" ]

let nops = 32

(* One ingest stream (set-up ingests, then [nops] ingest+query ops) on a
   fresh engine and store, traced; per-ingest seconds of each layer. *)
let traced_stream ~seed ds backend =
  let exp = Ingest.expected_answers ~seed ds in
  let dir = Inputs.temp_dir "selftest" in
  let eng = Inputs.load_engine ~config:Backend.config ds in
  let store, _ = Lh_durable.Store.open_dir ~sync:(Lh_durable.Wal.Group 8) dir in
  let b = backend ~seed ?store:(Some store) ~checkpoint_every:8 eng in
  let m = Ingest.new_model () in
  let tally = Tally.create () in
  Traced.replay b tally m ~encode:false ~lats:(ref []) ~minor:(ref 0.0) ~after_op:ignore
    (List.init Inputs.nsides (fun g -> Traced.Ingest g));
  let _, report, _ =
    Traced.session (fun () ->
        List.iter
          (fun i ->
            Traced.replay b tally m ~encode:false ~lats:(ref []) ~minor:(ref 0.0)
              ~after_op:ignore (Traced.ingest_ops ~seed exp m i))
          (List.init nops Fun.id))
  in
  b.Backend.close ();
  if tally.Tally.failed > 0 then failwith "operations failed in the traced stream";
  report

let per_op name = fst (Layer.total name) /. float_of_int nops

let test_attribution ds =
  let delay = 0.005 in
  let measure d =
    Layer.delay := d;
    Fun.protect
      ~finally:(fun () -> Layer.delay := None)
      (fun () ->
        ignore (traced_stream ~seed:1 ds Backend.shadow);
        List.map (fun l -> (l, per_op l)) layers)
  in
  let r =
    retry 3 (fun () ->
        let base = measure None in
        let slow = measure (Some ("wal.append", delay)) in
        let delta l = List.assoc l slow -. List.assoc l base in
        let own = delta "wal.append" in
        let leaks = List.filter (fun l -> l <> "wal.append" && Float.abs (delta l) > delay /. 2.0) layers in
        if own >= 0.8 *. delay && own <= 1.8 *. delay && leaks = [] then Ok ()
        else
          Error
            (Printf.sprintf "wal.append moved %.2f ms per ingest (injected %.1f); others moved: %s"
               (own *. 1000.0) (delay *. 1000.0)
               (String.concat ", "
                  (List.map (fun l -> Printf.sprintf "%s %+.2f ms" l (delta l *. 1000.0)) layers))))
  in
  check "a delay inside Store.log_batch shows in wal.append_ms only" (r = Ok ())
    (match r with Error m -> m | Ok () -> "")

(* ---- coverage of the public-call breakdown ---- *)

let engine_phases =
  [ "parse"; "normalize"; "translate"; "plan"; "bind"; "execute.scan"; "execute.wcoj";
    "execute.blas"; "finalize" ]

let test_coverage ds =
  let sum names = List.fold_left (fun acc l -> acc +. fst (Layer.total l)) 0.0 names in
  (* the engine's top-level phases: every span directly below its
     "query" root *)
  let phases (report : Lh_obs.Report.t) =
    List.fold_left
      (fun acc (sp : Lh_obs.Obs.span) ->
        if List.mem sp.Lh_obs.Obs.sname engine_phases then acc +. sp.Lh_obs.Obs.sdur else acc)
      0.0 report.Lh_obs.Report.spans
  in
  let measure () =
    ignore (traced_stream ~seed:1 ds Backend.serve);
    let ingest_serve = sum [ "serve.ingest_rows" ] and query_serve = sum [ "serve.query_epoch" ] in
    let report = traced_stream ~seed:1 ds Backend.shadow in
    let ingest_parts = sum [ "ingest.snapshot"; "ingest.table"; "wal.append"; "checkpoint" ] in
    let query_parts = phases report +. sum [ "serve.view" ] in
    (ingest_serve, ingest_parts, query_serve, query_parts)
  in
  (* the first stream in a process pays for growing the heap *)
  ignore (measure ());
  let last = ref (0.0, 0.0, 0.0, 0.0) in
  let ok_ingest (s, p, _, _) = Float.abs (p -. s) <= 0.1 *. s in
  let ok_query (_, _, s, p) = p >= 0.9 *. s in
  let r =
    retry 4 (fun () ->
        last := measure ();
        if ok_ingest !last && ok_query !last then Ok () else Error ())
  in
  let s, p, qs, qp = !last in
  check "ingest breakdown sums to within 10% of Serve.ingest_rows"
    (r = Ok () || ok_ingest !last)
    (Printf.sprintf "parts %.1f ms, Serve.ingest_rows %.1f ms" (p *. 1000.0) (s *. 1000.0));
  check "engine phases + serve.view cover >= 90% of Serve.query_epoch"
    (r = Ok () || ok_query !last)
    (Printf.sprintf "parts %.1f ms, Serve.query_epoch %.1f ms" (qp *. 1000.0) (qs *. 1000.0))

let () =
  let bin = ref "" and benchmark = ref "" in
  Arg.parse
    [ ("--lhserve", Arg.Set_string bin, "PATH"); ("--benchmark", Arg.Set_string benchmark, "PATH") ]
    (fun _ -> ()) "selftest.exe --lhserve PATH --benchmark PATH";
  Inputs.tiny := true;
  test_checker ();
  test_smoke ~bin:!bin ~benchmark:!benchmark;
  let ds = Inputs.prepare Ingest.spec in
  test_attribution ds;
  Inputs.tiny := false;
  test_coverage (Inputs.prepare Ingest.spec);
  Inputs.cleanup_temp ();
  if !failures > 0 then begin
    Printf.printf "%d self-check(s) failed\n" !failures;
    exit 1
  end
