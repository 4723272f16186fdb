(* Linear algebra as SQL: sparse matrices run as pure aggregate-join
   queries through the WCOJ; dense matrices are recognized and handed to
   the BLAS substrate after attribute elimination (§III-D).

     dune exec examples/matrix_queries.exe
*)

module L = Levelheaded
module Table = Lh_storage.Table

let () =
  let eng = L.Engine.create () in
  let dict = L.Engine.dict eng in

  (* A sparse CFD-style matrix and a dense matrix, as relations. *)
  let sparse = Lh_datagen.Matrices.banded ~dict ~name:"a" ~n:3000 ~nnz_per_row:20 () in
  L.Engine.register eng sparse.Lh_datagen.Matrices.table;
  let n_dense = 128 in
  let dense_t, dense_m = Lh_datagen.Matrices.dense ~dict ~name:"d" ~n:n_dense () in
  L.Engine.register eng dense_t;
  let vec_t, _ = Lh_datagen.Matrices.dense_vector ~dict ~name:"x" ~n:3000 () in
  L.Engine.register eng vec_t;

  Printf.printf "sparse a: %d x %d, %d nonzeros\n" 3000 3000
    sparse.Lh_datagen.Matrices.table.Table.nrows;
  Printf.printf "dense  d: %d x %d\n\n" n_dense n_dense;

  (* --- sparse matrix-vector: a pure aggregate-join --- *)
  let smv = "select a.row, sum(a.v * x.v) as y from a, x where a.col = x.idx group by a.row" in
  let ex = L.Engine.explain eng smv in
  let y, dt = Lh_util.Timing.time (fun () -> L.Engine.query eng smv) in
  Printf.printf "SMV  path=%s rows=%d time=%s\n"
    (match ex.L.Engine.epath with
    | L.Engine.Wcoj_path -> "wcoj"
    | L.Engine.Blas_path -> "blas"
    | L.Engine.Scan_path -> "scan")
    y.Table.nrows
    (Lh_util.Timing.duration_to_string dt);

  (* --- sparse matrix-matrix: the relaxed [i,k,j] order (Example 5.2) --- *)
  let smm =
    "select a1.row, a2.col, sum(a1.v * a2.v) as v from a a1, a a2 where a1.col = a2.row group \
     by a1.row, a2.col"
  in
  let ex = L.Engine.explain eng smm in
  let sq, dt = Lh_util.Timing.time (fun () -> L.Engine.query eng smm) in
  Printf.printf "SMM  path=%s rows=%d time=%s\n"
    (match ex.L.Engine.epath with L.Engine.Wcoj_path -> "wcoj" | _ -> "?")
    sq.Table.nrows
    (Lh_util.Timing.duration_to_string dt);
  (* the chosen attribute order is visible in the plan *)
  print_string ex.L.Engine.etext;

  (* cross-check A*A against the BLAS substrate *)
  let csr = Lh_blas.Csr.of_coo sparse.Lh_datagen.Matrices.coo in
  let expect = Lh_blas.Csr.spgemm csr csr in
  let got = Lh_datagen.Matrices.to_coo sq in
  let diff =
    Lh_blas.Dense.max_abs_diff (Lh_blas.Csr.to_dense expect) (Lh_blas.Coo.to_dense got)
  in
  Printf.printf "SMM result matches CSR spgemm: max |diff| = %g\n\n" diff;

  (* --- dense matrix-matrix: recognized and dispatched to BLAS --- *)
  let dmm =
    "select d1.row, d2.col, sum(d1.v * d2.v) as v from d d1, d d2 where d1.col = d2.row group \
     by d1.row, d2.col"
  in
  let ex = L.Engine.explain eng dmm in
  let dsq, dt = Lh_util.Timing.time (fun () -> L.Engine.query eng dmm) in
  Printf.printf "DMM  path=%s rows=%d time=%s\n"
    (match ex.L.Engine.epath with L.Engine.Blas_path -> "blas" | _ -> "wcoj")
    dsq.Table.nrows
    (Lh_util.Timing.duration_to_string dt);
  let expect = Lh_blas.Dense.gemm dense_m dense_m in
  let got_d = Lh_blas.Coo.to_dense (Lh_datagen.Matrices.to_coo dsq) in
  Printf.printf "DMM result matches dense gemm: max |diff| = %g\n"
    (Lh_blas.Dense.max_abs_diff expect got_d);

  (* and with targeting disabled, the same query runs as a join *)
  L.Engine.set_config eng { L.Config.default with L.Config.blas_targeting = false };
  let _, dt_wcoj = Lh_util.Timing.time (fun () -> L.Engine.query eng dmm) in
  Printf.printf "DMM via pure WCOJ (BLAS targeting off): %s (%.0fx slower)\n"
    (Lh_util.Timing.duration_to_string dt_wcoj)
    (dt_wcoj /. dt)
