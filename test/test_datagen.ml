module Table = Lh_storage.Table
module Schema = Lh_storage.Schema
module Dict = Lh_storage.Dict

let gen sf =
  let dict = Dict.create () in
  (dict, Lh_datagen.Tpch.generate ~dict ~sf ())

let table_named tables name =
  List.find (fun (t : Table.t) -> String.equal t.Table.name name) tables

(* ---- tpch ---- *)

let test_tpch_row_counts () =
  let _, tables = gen 0.01 in
  let counts = Lh_datagen.Tpch.row_counts ~sf:0.01 in
  List.iter
    (fun (t : Table.t) ->
      let want = List.assoc t.Table.name counts in
      if String.equal t.Table.name "lineitem" then begin
        (* approximate: 1-7 lines per order, mean 4 *)
        let lo = want / 2 and hi = want * 3 / 2 in
        Alcotest.(check bool) "lineitem approx" true (t.Table.nrows >= lo && t.Table.nrows <= hi)
      end
      else Alcotest.(check int) t.Table.name want t.Table.nrows)
    tables

let test_tpch_deterministic () =
  let _, a = gen 0.005 in
  let _, b = gen 0.005 in
  List.iter2
    (fun (ta : Table.t) (tb : Table.t) ->
      Alcotest.(check bool) (ta.Table.name ^ " identical") true (Table.to_rows ta = Table.to_rows tb))
    a b

let test_tpch_foreign_keys () =
  let _, tables = gen 0.005 in
  let t = table_named tables in
  let key_set table col =
    let codes = Table.icol table (Schema.find_exn table.Table.schema col) in
    let s = Hashtbl.create 64 in
    Array.iter (fun c -> Hashtbl.replace s c ()) codes;
    s
  in
  let check_fk child ccol parent pcol =
    let parents = key_set (t parent) pcol in
    let codes = Table.icol (t child) (Schema.find_exn (t child).Table.schema ccol) in
    Array.iter
      (fun c -> if not (Hashtbl.mem parents c) then Alcotest.failf "%s.%s: dangling %d" child ccol c)
      codes
  in
  check_fk "nation" "n_regionkey" "region" "r_regionkey";
  check_fk "supplier" "s_nationkey" "nation" "n_nationkey";
  check_fk "customer" "c_nationkey" "nation" "n_nationkey";
  check_fk "orders" "o_custkey" "customer" "c_custkey";
  check_fk "lineitem" "l_orderkey" "orders" "o_orderkey";
  check_fk "lineitem" "l_partkey" "part" "p_partkey";
  check_fk "lineitem" "l_suppkey" "supplier" "s_suppkey";
  check_fk "partsupp" "ps_partkey" "part" "p_partkey";
  check_fk "partsupp" "ps_suppkey" "supplier" "s_suppkey"

let test_tpch_lineitem_consistent_with_partsupp () =
  (* every (l_partkey, l_suppkey) pair must exist in partsupp, or Q9's
     join would silently drop lineitems *)
  let _, tables = gen 0.005 in
  let t = table_named tables in
  let ps = t "partsupp" in
  let pairs = Hashtbl.create 256 in
  let pk = Table.icol ps 0 and sk = Table.icol ps 1 in
  for r = 0 to ps.Table.nrows - 1 do
    Hashtbl.replace pairs (pk.(r), sk.(r)) ()
  done;
  let li = t "lineitem" in
  let lpk = Table.icol li (Schema.find_exn li.Table.schema "l_partkey") in
  let lsk = Table.icol li (Schema.find_exn li.Table.schema "l_suppkey") in
  for r = 0 to li.Table.nrows - 1 do
    if not (Hashtbl.mem pairs (lpk.(r), lsk.(r))) then
      Alcotest.failf "lineitem (%d,%d) not in partsupp" lpk.(r) lsk.(r)
  done

let test_tpch_dates_and_flags () =
  let _, tables = gen 0.005 in
  let li = table_named tables "lineitem" in
  let ship = Table.icol li (Schema.find_exn li.Table.schema "l_shipdate") in
  let flags = Table.icol li (Schema.find_exn li.Table.schema "l_returnflag") in
  let cutoff = Lh_storage.Date.of_string "1995-06-17" in
  let lo = Lh_storage.Date.of_string "1992-01-01" in
  let hi = Lh_storage.Date.of_string "1999-01-01" in
  let dict = li.Table.dict in
  Array.iteri
    (fun r d ->
      if d < lo || d > hi then Alcotest.failf "shipdate out of range: %s" (Lh_storage.Date.to_string d);
      let f = Dict.decode dict flags.(r) in
      if d > cutoff && not (String.equal f "N") then Alcotest.failf "late shipment flagged %s" f)
    ship

let test_tpch_selective_values_exist () =
  (* the constants the benchmark queries filter on must occur *)
  let dict, tables = gen 0.01 in
  ignore tables;
  List.iter
    (fun v ->
      if Dict.find dict v = None then Alcotest.failf "%s missing from generated data" v)
    [ "ASIA"; "AMERICA"; "BRAZIL"; "BUILDING"; "ECONOMY ANODIZED STEEL"; "R"; "N" ]

(* ---- matrices ---- *)

let test_banded_structure () =
  let dict = Dict.create () in
  let m = Lh_datagen.Matrices.banded ~dict ~name:"b" ~n:100 ~nnz_per_row:6 ~bandwidth:10 () in
  let coo = m.Lh_datagen.Matrices.coo in
  let diag = Hashtbl.create 128 in
  Array.iteri
    (fun k i ->
      let j = coo.Lh_blas.Coo.col.(k) in
      if i = j then Hashtbl.replace diag i ();
      if abs (i - j) > 10 then Alcotest.failf "outside band: (%d,%d)" i j)
    coo.Lh_blas.Coo.row;
  for i = 0 to 99 do
    if not (Hashtbl.mem diag i) then Alcotest.failf "diagonal %d missing" i
  done

let test_matrix_table_unique_keys () =
  let dict = Dict.create () in
  List.iter
    (fun (m : Lh_datagen.Matrices.sparse) ->
      let t = m.Lh_datagen.Matrices.table in
      let rows = Table.icol t 0 and cols = Table.icol t 1 in
      let seen = Hashtbl.create 1024 in
      for r = 0 to t.Table.nrows - 1 do
        let key = (rows.(r), cols.(r)) in
        if Hashtbl.mem seen key then Alcotest.failf "%s: duplicate key (%d,%d)" t.Table.name rows.(r) cols.(r);
        Hashtbl.replace seen key ()
      done)
    [
      Lh_datagen.Matrices.harbor_like ~dict ~scale:0.01 ();
      Lh_datagen.Matrices.hv15r_like ~dict ~scale:0.0002 ();
      Lh_datagen.Matrices.nlpkkt_like ~dict ~scale:0.00002 ();
    ]

let test_nlpkkt_symmetric_sparsity () =
  let dict = Dict.create () in
  let m = Lh_datagen.Matrices.nlpkkt_like ~dict ~scale:0.00003 () in
  let coo = m.Lh_datagen.Matrices.coo in
  let entries = Hashtbl.create 1024 in
  Array.iteri (fun k i -> Hashtbl.replace entries (i, coo.Lh_blas.Coo.col.(k)) ()) coo.Lh_blas.Coo.row;
  Hashtbl.iter
    (fun (i, j) () ->
      if not (Hashtbl.mem entries (j, i)) then Alcotest.failf "asymmetric sparsity at (%d,%d)" i j)
    entries

let test_dense_is_complete_grid () =
  let dict = Dict.create () in
  let t, d = Lh_datagen.Matrices.dense ~dict ~name:"d" ~n:9 () in
  Alcotest.(check int) "81 rows" 81 t.Table.nrows;
  (match Table.dense_rect t with
  | Some info -> Alcotest.(check (array int)) "dims" [| 9; 9 |] info.Table.dims
  | None -> Alcotest.fail "dense table not detected as a grid");
  (* the table's value buffer is the row-major dense data *)
  Alcotest.(check bool) "row-major identity" true (Table.fcol t 2 = d.Lh_blas.Dense.data)

let test_to_coo_roundtrip () =
  let dict = Dict.create () in
  let m = Lh_datagen.Matrices.banded ~dict ~name:"b" ~n:50 ~nnz_per_row:4 () in
  let coo2 = Lh_datagen.Matrices.to_coo m.Lh_datagen.Matrices.table in
  Alcotest.(check bool) "same dense" true
    (Lh_blas.Dense.max_abs_diff
       (Lh_blas.Coo.to_dense m.Lh_datagen.Matrices.coo)
       (Lh_blas.Coo.to_dense coo2)
    < 1e-12)

(* ---- voter ---- *)

let test_voter_shapes () =
  let dict = Dict.create () in
  let voters, precincts = Lh_datagen.Voter.generate ~dict ~nvoters:1000 ~nprecincts:20 () in
  Alcotest.(check int) "voters" 1000 voters.Table.nrows;
  Alcotest.(check int) "precincts" 20 precincts.Table.nrows;
  let labels = Table.icol voters (Schema.find_exn voters.Table.schema "v_voted") in
  let ones = Array.fold_left ( + ) 0 labels in
  Alcotest.(check bool) "labels binary" true (Array.for_all (fun v -> v = 0 || v = 1) labels);
  Alcotest.(check bool) "both classes present" true (ones > 50 && ones < 950);
  let prec = Table.icol voters (Schema.find_exn voters.Table.schema "v_precinct") in
  Array.iter (fun p -> if p < 0 || p >= 20 then Alcotest.failf "precinct %d out of range" p) prec

let () =
  Alcotest.run "lh_datagen"
    [
      ( "tpch",
        [
          Alcotest.test_case "row counts" `Quick test_tpch_row_counts;
          Alcotest.test_case "deterministic" `Quick test_tpch_deterministic;
          Alcotest.test_case "foreign keys" `Quick test_tpch_foreign_keys;
          Alcotest.test_case "lineitem/partsupp consistency" `Quick
            test_tpch_lineitem_consistent_with_partsupp;
          Alcotest.test_case "dates and flags" `Quick test_tpch_dates_and_flags;
          Alcotest.test_case "selective constants exist" `Quick test_tpch_selective_values_exist;
        ] );
      ( "matrices",
        [
          Alcotest.test_case "banded structure" `Quick test_banded_structure;
          Alcotest.test_case "unique keys" `Quick test_matrix_table_unique_keys;
          Alcotest.test_case "nlpkkt symmetric sparsity" `Quick test_nlpkkt_symmetric_sparsity;
          Alcotest.test_case "dense grid detection" `Quick test_dense_is_complete_grid;
          Alcotest.test_case "to_coo roundtrip" `Quick test_to_coo_roundtrip;
        ] );
      ("voter", [ Alcotest.test_case "shapes" `Quick test_voter_shapes ]);
    ]
