(* Epoch experiment (bench epochs): what an ingest that no query reads
   costs the epoch-pinned service. In-process Serve over TPC-H at the
   first --sf plus a banded 2000-row matrix [ep_m] and its vector, one
   session, no store. Each round runs Q5 twice (the second is warm),
   ingests a one-row table [ep_u] and runs Q5 again (the first after the
   ingest), then does the same with SMV. Warm and first queries thus both
   follow the same query, so they see the same CPU caches. Cells (median
   over the rounds, after one warm-up round):
   - q5/warm, q5/first, smv/warm, smv/first: query latency through
     Serve.query;
   - ingest@base: the one-row ingests of those rounds;
   - ingest@+200k: the same over as many rounds run after a table of 200k
     fresh strings was ingested, so a cost that grew with the dictionary
     would show here.

   An epoch shares every table value and the one dictionary with the
   writer, and a plan survives epochs that replace none of its tables,
   so "first" should read like "warm" and the two ingest cells alike. *)

module C = Common
module L = Levelheaded
module Serve = Lh_serve.Serve
module Timing = Lh_util.Timing
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype

let u_schema = Schema.create [ ("k", Dtype.Int, Schema.Key); ("v", Dtype.Float, Schema.Annotation) ]
let pad_schema = Schema.create [ ("k", Dtype.Int, Schema.Key); ("s", Dtype.String, Schema.Annotation) ]
let pad_strings = 200_000

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let build params =
  let eng = L.Engine.create ~config:{ L.Config.default with L.Config.domains = 1 } () in
  let dict = L.Engine.dict eng in
  let sf = match params.C.sfs with sf :: _ -> sf | [] -> 0.01 in
  List.iter (L.Engine.register eng) (Lh_datagen.Tpch.generate ~dict ~sf ~seed:params.C.seed ());
  let m = Lh_datagen.Matrices.banded ~dict ~name:"ep_m" ~n:500 ~nnz_per_row:4 ~seed:params.C.seed () in
  L.Engine.register eng m.Lh_datagen.Matrices.table;
  let n = m.Lh_datagen.Matrices.coo.Lh_blas.Coo.nrows in
  let vt, _ = Lh_datagen.Matrices.dense_vector ~dict ~name:"ep_x" ~n () in
  L.Engine.register eng vt;
  (eng, sf)

let timed f =
  let t0 = Timing.monotonic_now () in
  f ();
  Timing.monotonic_now () -. t0

let run params =
  C.print_header "Epochs — first query after an unrelated ingest, and the ingest"
    [ "median"; "samples" ];
  let eng, sf = build params in
  let svc = Serve.create eng in
  let s = Serve.open_session svc in
  let fail what msg = failwith (Printf.sprintf "epochs: %s failed: %s" what msg) in
  let ingest name schema rows =
    match Serve.ingest_rows svc ~name ~schema rows with
    | Ok _ -> ()
    | Error e -> fail ("ingest " ^ name) (Serve.error_to_string e)
  in
  let g = ref 0 in
  let ingest_u () =
    incr g;
    timed (fun () -> ingest "ep_u" u_schema [ [ Dtype.VInt 0; Dtype.VFloat (float_of_int !g) ] ])
  in
  let query sql () =
    match Serve.query s sql with Ok _ -> () | Error e -> fail "query" (Serve.error_to_string e)
  in
  let q5 = query Queries.q5 and smv = query (Queries.smv ~matrix:"ep_m" ~vector:"ep_x") in
  let rounds = 10 * max 1 params.C.runs in
  let round () =
    q5 ();
    let q5_warm = timed q5 in
    let i1 = ingest_u () in
    let q5_first = timed q5 in
    smv ();
    let smv_warm = timed smv in
    let i2 = ingest_u () in
    let smv_first = timed smv in
    ([ i1; i2 ], q5_first, q5_warm, smv_first, smv_warm)
  in
  ignore (round ());
  let samples = List.init rounds (fun _ -> round ()) in
  let ingest_base = List.concat_map (fun (i, _, _, _, _) -> i) samples in
  ingest "ep_pad" pad_schema
    (List.init pad_strings (fun i -> [ Dtype.VInt i; Dtype.VString (Printf.sprintf "ep_pad_%d" i) ]));
  let ingest_big = List.concat_map (fun (i, _, _, _, _) -> i) (List.init rounds (fun _ -> round ())) in
  Serve.close svc;
  let cells =
    [
      ("q5/warm", Queries.q5, List.map (fun (_, _, w, _, _) -> w) samples);
      ("q5/first", Queries.q5, List.map (fun (_, f, _, _, _) -> f) samples);
      ( "smv/warm",
        Queries.smv ~matrix:"ep_m" ~vector:"ep_x",
        List.map (fun (_, _, _, _, w) -> w) samples );
      ( "smv/first",
        Queries.smv ~matrix:"ep_m" ~vector:"ep_x",
        List.map (fun (_, _, _, f, _) -> f) samples );
      ("ingest@base", "one-row ingest of ep_u through Serve.ingest_rows", ingest_base);
      ("ingest@+200k", "one-row ingest of ep_u after 200k strings were interned", ingest_big);
    ]
  in
  List.iter
    (fun (system, sql, xs) ->
      let med = median xs in
      C.print_row system [ Timing.duration_to_string med; string_of_int (List.length xs) ];
      C.record_cell ~system ~sql ~outcome:(C.Time med) ~samples:xs
        ~extra:[ ("sf", Lh_obs.Json.Float sf) ]
        None)
    cells
