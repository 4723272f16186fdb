(* Table II: runtime of the best engine per row and relative runtime of
   the others, over the TPC-H block and the LA block. *)

module L = Levelheaded
module C = Common

let bi_systems = [ C.Lh; C.Hyper_like; C.Monet_like; C.Lh_logicblox ]
let la_systems = [ C.Lh; C.Mkl_like; C.Hyper_like; C.Monet_like; C.Lh_logicblox ]

type cell_row = { label : string; outcomes : (C.system * C.outcome) list }

let print_block title systems rows =
  C.print_header title ("baseline" :: List.map C.system_name systems);
  List.iter
    (fun { label; outcomes } ->
      let baseline = C.best_of (List.map snd outcomes) in
      let cells =
        (match baseline with Some b -> C.outcome_to_string b | None -> "-")
        :: List.map (fun s -> C.relative ~baseline:(Option.value baseline ~default:C.Unsupported)
                        (List.assoc s outcomes))
          systems
      in
      C.print_row label cells)
    rows;
  rows

(* ---------------- BI ---------------- *)

let run_bi params =
  List.concat_map
    (fun sf ->
      let eng = L.Engine.create () in
      let dict = L.Engine.dict eng in
      let tables = Lh_datagen.Tpch.generate ~dict ~sf ~seed:params.C.seed () in
      List.iter (L.Engine.register eng) tables;
      List.map
        (fun (qname, sql) ->
          let outcomes = List.map (fun s -> (s, C.run_system eng params s sql)) bi_systems in
          { label = Printf.sprintf "%s sf=%g" qname sf; outcomes })
        Queries.tpch)
    params.C.sfs

(* ---------------- LA ---------------- *)

let sparse_datasets params dict =
  let s = params.C.la_scale in
  [
    ("harbor", Lh_datagen.Matrices.harbor_like ~dict ~scale:(0.04 *. s) ());
    ("hv15r", Lh_datagen.Matrices.hv15r_like ~dict ~scale:(0.0005 *. s) ());
    ("nlpkkt", Lh_datagen.Matrices.nlpkkt_like ~dict ~scale:(0.0005 *. s) ());
  ]

let run_la params =
  let eng = L.Engine.create () in
  let dict = L.Engine.dict eng in
  let budget () =
    Lh_util.Budget.create ~max_live_words:params.C.mem_words ~max_seconds:params.C.timeout ()
  in
  (* sparse *)
  let sparse_rows =
    List.concat_map
      (fun (name, (m : Lh_datagen.Matrices.sparse)) ->
        L.Engine.register eng m.Lh_datagen.Matrices.table;
        let n = m.Lh_datagen.Matrices.coo.Lh_blas.Coo.nrows in
        let vec_name = name ^ "_x" in
        let vt, vec = Lh_datagen.Matrices.dense_vector ~dict ~name:vec_name ~n () in
        L.Engine.register eng vt;
        let csr = Lh_blas.Csr.of_coo m.Lh_datagen.Matrices.coo in
        let tname = m.Lh_datagen.Matrices.table.Lh_storage.Table.name in
        let smv_row =
          let sql = Queries.smv ~matrix:tname ~vector:vec_name in
          let outcomes =
            List.map
              (fun s ->
                ( s,
                  match s with
                  | C.Mkl_like ->
                      C.measured ~budget:(budget ()) ~runs:params.C.runs
                        ~system:(C.system_name C.Mkl_like) ~sql (fun () ->
                          Lh_blas.Csr.spmv csr vec)
                  | _ -> C.run_system eng params s sql ))
              la_systems
          in
          { label = Printf.sprintf "SMV %s" name; outcomes }
        in
        let smm_row =
          let sql = Queries.smm ~matrix:tname in
          let outcomes =
            List.map
              (fun s ->
                ( s,
                  match s with
                  | C.Mkl_like ->
                      C.measured ~budget:(budget ()) ~runs:params.C.runs
                        ~system:(C.system_name C.Mkl_like) ~sql (fun () ->
                          Lh_blas.Csr.spgemm csr csr)
                  | _ -> C.run_system eng params s sql ))
              la_systems
          in
          { label = Printf.sprintf "SMM %s" name; outcomes }
        in
        [ smv_row; smm_row ])
      (sparse_datasets params dict)
  in
  (* dense *)
  let dense_rows =
    List.concat_map
      (fun n ->
        let mname = Printf.sprintf "dense%d" n in
        let mt, md = Lh_datagen.Matrices.dense ~dict ~name:mname ~n () in
        L.Engine.register eng mt;
        let vt, vec = Lh_datagen.Matrices.dense_vector ~dict ~name:(mname ^ "_x") ~n () in
        L.Engine.register eng vt;
        let dmv_row =
          let sql = Queries.dmv ~matrix:mname ~vector:(mname ^ "_x") in
          let outcomes =
            List.map
              (fun s ->
                ( s,
                  match s with
                  | C.Mkl_like ->
                      C.measured ~budget:(budget ()) ~runs:params.C.runs
                        ~system:(C.system_name C.Mkl_like) ~sql (fun () ->
                          Lh_blas.Dense.gemv md vec)
                  | _ -> C.run_system eng params s sql ))
              la_systems
          in
          { label = Printf.sprintf "DMV %d" n; outcomes }
        in
        let dmm_row =
          let sql = Queries.dmm ~matrix:mname in
          let outcomes =
            List.map
              (fun s ->
                ( s,
                  match s with
                  | C.Mkl_like ->
                      C.measured ~budget:(budget ()) ~runs:params.C.runs
                        ~system:(C.system_name C.Mkl_like) ~sql (fun () ->
                          Lh_blas.Dense.gemm md md)
                  | _ -> C.run_system eng params s sql ))
              la_systems
          in
          { label = Printf.sprintf "DMM %d" n; outcomes }
        in
        [ dmv_row; dmm_row ])
      params.C.dense_sizes
  in
  (sparse_rows, dense_rows)

(* The two blocks run independently, so [table2-bi] alone never pays for
   the LA datasets. *)
let bi params = print_block "Table II — TPC-H (BI) block" bi_systems (run_bi params)

let la params =
  let sparse, dense = run_la params in
  print_block "Table II — Linear Algebra block" la_systems (sparse @ dense)
