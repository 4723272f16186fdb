(* Repeated-query experiment: the cost of planning on a workload that
   re-runs the same query shapes, and what the plan cache / prepared
   statements buy back.

   Three arms per shape, all with hot tries (§VI-A protocol):
     cold      plan cache flushed before each run — full parse + translate
               + GHD + attribute ordering every time
     warm      plan cache enabled — parse + normalize + bind only
     prepared  Engine.prepare once, Stmt.exec per run — bind only

   Small data on purpose: with tries hot and results tiny, planning time
   dominates, which is exactly the regime the cache targets. The arms
   differ by tens of microseconds, so instead of timing each arm in its
   own block (where clock-frequency and allocator drift between blocks
   can swamp the difference) every measurement round takes one sample of
   each arm back to back and the trimmed means are compared per arm. *)

module C = Common
module L = Levelheaded

type shape = { sh_name : string; sh_sql : string }

let build params =
  let eng = L.Engine.create () in
  let dict = L.Engine.dict eng in
  List.iter (L.Engine.register eng)
    (Lh_datagen.Tpch.generate ~dict ~sf:0.0005 ~seed:params.C.seed ());
  let m =
    Lh_datagen.Matrices.banded ~dict ~name:"rep_m" ~n:256 ~nnz_per_row:4 ~seed:params.C.seed ()
  in
  L.Engine.register eng m.Lh_datagen.Matrices.table;
  let mname = m.Lh_datagen.Matrices.table.Lh_storage.Table.name in
  let n = m.Lh_datagen.Matrices.coo.Lh_blas.Coo.nrows in
  let vt, _ = Lh_datagen.Matrices.dense_vector ~dict ~name:"rep_x" ~n () in
  L.Engine.register eng vt;
  (eng, mname)

(* Same trim as Timing.measure: drop min and max, average the rest. *)
let trimmed samples =
  Array.sort Float.compare samples;
  let n = Array.length samples in
  let lo, hi = if n >= 3 then (1, n - 2) else (0, n - 1) in
  let sum = ref 0.0 in
  for i = lo to hi do
    sum := !sum +. samples.(i)
  done;
  !sum /. float_of_int (hi - lo + 1)

(* One warm-up pass, then [runs] rounds of one sample per arm. *)
let interleaved ~runs arms =
  List.iter (fun (_, f) -> f ()) arms;
  let samples = List.map (fun _ -> Array.make runs 0.0) arms in
  for r = 0 to runs - 1 do
    List.iter2
      (fun (_, f) buf ->
        let _, dt = Lh_util.Timing.time f in
        buf.(r) <- dt)
      arms samples
  done;
  List.map2 (fun (system, _) buf -> (system, C.Time (trimmed buf))) arms samples

let run params =
  let eng, mname = build params in
  let shapes =
    [
      { sh_name = "chain join (Q3)"; sh_sql = Queries.q3 };
      { sh_name = "M*x (SpMV)"; sh_sql = Queries.smv ~matrix:mname ~vector:"rep_x" };
    ]
  in
  (* Planning savings are tens of microseconds; the default 3-run trimmed
     mean is too noisy to resolve them, so this experiment takes more
     samples per cell than the big ones. *)
  let runs = max 25 params.C.runs in
  C.print_header "Repeated queries — planning amortization"
    [ "cold"; "warm"; "prepared"; "warm spd"; "prep spd" ];
  List.map
    (fun { sh_name; sh_sql } ->
      let cold () =
        L.Engine.reset_plan_cache eng;
        ignore (L.Engine.query eng sh_sql)
      in
      let warm () = ignore (L.Engine.query eng sh_sql) in
      let stmt = L.Engine.prepare eng sh_sql in
      let prepared () = ignore (L.Engine.Stmt.exec stmt []) in
      let arms = [ ("cold-plan", cold); ("warm-cache", warm); ("prepared", prepared) ] in
      let outcomes = interleaved ~runs arms in
      List.iter
        (fun (system, outcome) ->
          let f = List.assoc system arms in
          C.record_cell ~minor_words:(C.words_of f) ~system ~sql:sh_sql ~outcome
            (C.instrumented_rerun f))
        outcomes;
      let o_cold = List.assoc "cold-plan" outcomes in
      let o_warm = List.assoc "warm-cache" outcomes in
      let o_prep = List.assoc "prepared" outcomes in
      let speedup a b =
        match (a, b) with
        | C.Time ta, C.Time tb when tb > 0.0 -> Printf.sprintf "%.2fx" (ta /. tb)
        | _ -> "-"
      in
      C.print_row sh_name
        [
          C.outcome_to_string o_cold;
          C.outcome_to_string o_warm;
          C.outcome_to_string o_prep;
          speedup o_cold o_warm;
          speedup o_cold o_prep;
        ];
      (sh_name, o_cold, o_warm, o_prep))
    shapes
