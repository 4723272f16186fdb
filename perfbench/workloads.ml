(* One run of one workload: (tally, metrics for the JSON result, extra
   printed-only metrics). *)

let names = [ "analytics"; "ingest"; "concurrent" ]

let run ~bin ~workload ~seed ~seconds ~trace =
  match (workload, trace) with
  | "analytics", 0 -> Analytics.run ~bin ~seed ~seconds
  | "ingest", 0 -> Ingest.run ~bin ~seed ~seconds
  | "concurrent", 0 -> Concurrent.run ~seed ~seconds
  | _ -> Traced.run ~bin ~workload ~seed ~seconds
