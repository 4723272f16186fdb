(* perfbench: one workload, one seed, one run.

     main.exe --lhserve PATH --workload analytics|ingest|concurrent
              --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with telemetry off; --trace 1
   replays the same operation stream in-process with spans around every
   layer's public calls and reports the per-layer split (plus a Chrome
   trace under .perfbench/out). Human-readable lines go to stdout; the
   last stdout line is the JSON result. Exits 1 when any answer was
   wrong or any operation failed. *)

let usage () =
  prerr_endline
    "usage: main.exe --lhserve PATH --workload analytics|ingest|concurrent --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let bin = get "lhserve" and workload = get "workload" in
  let seed = int "seed" and seconds = float_of_int (int "seconds") and trace = int "trace" in
  if not (Sys.file_exists bin) then usage ();
  if seconds <= 0.0 || (trace <> 0 && trace <> 1) then usage ();
  if not (List.mem workload Workloads.names) then usage ();
  let tally, metrics, extra = Workloads.run ~bin ~workload ~seed ~seconds ~trace in
  Inputs.cleanup_temp ();
  Stats.print_human ~workload (metrics @ extra @ [ Tally.failed_frac tally ]);
  let correct = tally.Tally.failed = 0 in
  Stats.print_result ~correct ~attempted:(max 1 tally.Tally.attempted) ~failed:tally.Tally.failed
    metrics;
  if not correct then exit 1
