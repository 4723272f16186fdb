(* lhfuzz — differential query fuzzer.

   Generates schema-aware random queries against the pinned fuzzing
   dataset and runs each through every evaluator (the engine under several
   configurations, the pairwise baselines), checking all of them against
   the brute-force oracle. Mismatches are shrunk to a minimal repro and
   printed with the seed/index needed to replay them.

   With --inject-fault it instead runs the crash-recovery harness: for
   every registered fault site, arm the site (all three kinds), drive a
   workload into it, and assert the typed error + bit-identical re-query
   on the same engine.

   Examples:

     lhfuzz --seed 42 --count 1000
     lhfuzz --seed 42 --index 173 --count 1        # replay one query
     lhfuzz --shape la --shape chain --count 200   # restrict shapes
     lhfuzz --inject-bug --count 50                # demo: detect + shrink
     lhfuzz --inject-fault --seed 42               # crash-only recovery sweep
*)

module Diff = Lh_qgen.Diff
module Gen = Lh_qgen.Gen
module Crashtest = Lh_qgen.Crashtest
module Concurrent = Lh_qgen.Concurrent
open Cmdliner

let run_concurrent seed count domains ingests quiet =
  let progress line = if not quiet then Printf.eprintf "... %s\n%!" line in
  let summary =
    Lh_obs.Obs.with_enabled true (fun () ->
        Concurrent.run ~progress ~seed ~domains ~per_domain:count ~ingests ())
  in
  print_string (Concurrent.to_text summary);
  if Concurrent.ok summary then begin
    print_endline "OK: every query bit-identical to its epoch's sequential replay";
    0
  end
  else begin
    print_endline "FAIL: snapshot-consistency violations";
    1
  end

let run_crashtest seed attempts site quiet =
  let progress line = if not quiet then Printf.eprintf "... %s\n%!" line in
  let summary = Crashtest.run ~progress ~attempts ?site ~seed () in
  print_string (Crashtest.to_text summary);
  if Crashtest.ok summary then begin
    print_endline "OK: every fault site recovered";
    0
  end
  else begin
    print_endline "FAIL: fault sites without crash-only recovery";
    1
  end

let run_kill_restart seed quiet =
  let progress line = if not quiet then Printf.eprintf "... %s\n%!" line in
  let summary = Crashtest.run_kill ~progress ~seed () in
  print_string (Crashtest.to_text summary);
  if Crashtest.ok summary then begin
    print_endline "OK: every acknowledged batch survived kill and restart";
    0
  end
  else begin
    print_endline "FAIL: kill-and-restart recovery violations";
    1
  end

let run seed count first_index shapes max_relations semiring inject_bug layout_stress
    inject_fault attempts site kill_restart concurrent domains ingests quiet =
  if kill_restart then run_kill_restart seed quiet
  else if inject_fault then run_crashtest seed attempts site quiet
  else if concurrent then run_concurrent seed count domains ingests quiet
  else
  let shapes =
    match shapes with
    | [] -> Gen.all_shapes
    | names ->
        List.map
          (fun n ->
            match Gen.shape_of_string n with
            | Some s -> s
            | None ->
                Printf.eprintf "unknown shape %S (want: %s)\n%!" n
                  (String.concat ", " (List.map Gen.shape_to_string Gen.all_shapes));
                exit 2)
          names
  in
  let spec = { Gen.shapes; max_relations; semiring } in
  let progress i =
    if (not quiet) && (i + 1) mod 100 = 0 then Printf.eprintf "... %d queries\n%!" (i + 1)
  in
  let summary =
    Lh_obs.Obs.with_enabled true (fun () ->
        Diff.run ~progress ~inject_bug ~layout_stress ~first_index ~seed ~count spec)
  in
  print_endline (Diff.summary_to_string summary);
  Printf.printf "evaluators: %s\n"
    (String.concat ", " (Diff.evaluator_names ~inject_bug));
  Printf.printf "counters: %s\n"
    (String.concat " "
       (List.filter_map
          (fun (name, v) ->
            if String.length name >= 5 && String.sub name 0 5 = "fuzz." then
              Some (Printf.sprintf "%s=%d" name v)
            else None)
          (Lh_obs.Obs.snapshot ())));
  if summary.Diff.s_discrepancies = [] then begin
    Printf.printf "OK: %d queries, 0 discrepancies\n" count;
    0
  end
  else begin
    Printf.printf "FAIL: %d discrepancies\n" (List.length summary.Diff.s_discrepancies);
    1
  end

let cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Base PRNG seed") in
  let count = Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc:"Number of queries") in
  let index =
    Arg.(value & opt int 0 & info [ "index" ] ~docv:"N"
           ~doc:"First query index (use with --count 1 to replay a reported discrepancy)")
  in
  let shape =
    Arg.(value & opt_all string [] & info [ "shape" ] ~docv:"SHAPE"
           ~doc:"Restrict generation to this shape (repeatable): scan, chain, star, cycle, la")
  in
  let max_relations =
    Arg.(value & opt int Gen.default_spec.Gen.max_relations
         & info [ "max-relations" ] ~docv:"N" ~doc:"Largest FROM-list to generate")
  in
  let semiring =
    Arg.(value & flag & info [ "semiring" ]
           ~doc:"Also generate semiring aggregates — MIN_PLUS(...), REACHES(...) and \
                 agg('name', ...) over the builtin registry — exercising the generalized \
                 fold kernels against the brute-force oracle's hardcoded semantics")
  in
  let inject_bug =
    Arg.(value & flag & info [ "inject-bug" ]
           ~doc:"Add a deliberately wrong evaluator (sign-flips floats) to demonstrate \
                 mismatch detection and shrinking")
  in
  let layout_stress =
    Arg.(value & flag & info [ "layout-stress" ]
           ~doc:"Register the sparse/dense layout-crossover relations (ls_d, ls_s, ls_m) \
                 in the fuzzing dataset: distinct-key matrices whose trie sets straddle \
                 the bitset/uint layout boundary, driving generated joins through every \
                 layout-pair intersection kernel and the count-only WCOJ leaves")
  in
  let inject_fault =
    Arg.(value & flag & info [ "inject-fault" ]
           ~doc:"Run the fault-injection crash-recovery harness instead of differential \
                 fuzzing: arm every registered fault site (generic/timeout/oom kinds), \
                 assert a typed error surfaces and that re-running the same workload on \
                 the same engine matches a clean engine bit-for-bit")
  in
  let attempts =
    Arg.(value & opt int 40 & info [ "attempts" ] ~docv:"N"
           ~doc:"With --inject-fault: per-site bound on the search for a generated query \
                 that reaches the site")
  in
  let site =
    Arg.(value & opt (some string) None & info [ "site" ] ~docv:"GLOB"
           ~doc:"With --inject-fault: only run scenarios for fault sites matching GLOB \
                 ('*' wildcards, e.g. 'wal.*') — the single-site repro loop")
  in
  let kill_restart =
    Arg.(value & flag & info [ "kill-restart" ]
           ~doc:"Run the kill-and-restart durability harness: spawn a real lhserve child \
                 on a temp --data-dir, SIGKILL it mid-ingest at LH_KILL-selected fault \
                 sites (including torn writes and kills during recovery itself), restart \
                 on the same directory and assert every acknowledged batch is \
                 query-visible and bit-identical to a sequential oracle rebuild \
                 (\\$LH_KILL_COUNT batches per scenario, default 6, minimum 4)")
  in
  let concurrent =
    Arg.(value & flag & info [ "concurrent" ]
           ~doc:"Run the concurrent-sessions evaluator instead of differential fuzzing: \
                 N reader domains issue generated ad-hoc and prepared queries through the \
                 query service while a writer publishes new epochs; every query must be \
                 bit-identical to a sequential replay against the epoch it pinned \
                 (--count is queries per domain)")
  in
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N"
           ~doc:"With --concurrent: number of reader domains (sessions)")
  in
  let ingests =
    Arg.(value & opt int 4 & info [ "ingests" ] ~docv:"N"
           ~doc:"With --concurrent: number of epochs the writer publishes")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress output") in
  Cmd.v
    (Cmd.info "lhfuzz" ~doc:"Differential query fuzzer for the LevelHeaded engine")
    Term.(
      const run $ seed $ count $ index $ shape $ max_relations $ semiring $ inject_bug
      $ layout_stress $ inject_fault $ attempts $ site $ kill_restart $ concurrent $ domains
      $ ingests $ quiet)

let () = exit (Cmd.eval' cmd)
