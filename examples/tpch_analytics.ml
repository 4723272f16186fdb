(* Business-intelligence example: generate a TPC-H-like warehouse and run
   the paper's BI queries, printing plans and results.

     dune exec examples/tpch_analytics.exe -- [sf]
*)

module L = Levelheaded
module Table = Lh_storage.Table

let q5 =
  "select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue from customer, orders, \
   lineitem, supplier, nation, region where c_custkey = o_custkey and l_orderkey = o_orderkey \
   and l_suppkey = s_suppkey and c_nationkey = s_nationkey and s_nationkey = n_nationkey and \
   n_regionkey = r_regionkey and r_name = 'ASIA' and o_orderdate >= date '1994-01-01' and \
   o_orderdate < date '1995-01-01' group by n_name"

let q6 =
  "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date \
   '1994-01-01' and l_shipdate < date '1995-01-01' and l_discount between 0.05 and 0.07 and \
   l_quantity < 24"

let q10_top =
  "select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue from customer, orders, \
   lineitem, nation where c_custkey = o_custkey and l_orderkey = o_orderkey and o_orderdate >= \
   date '1993-10-01' and o_orderdate < date '1994-01-01' and l_returnflag = 'R' and c_nationkey \
   = n_nationkey group by n_name"

let () =
  let sf = if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.01 in
  let eng = L.Engine.create () in
  let dict = L.Engine.dict eng in
  Printf.printf "generating TPC-H-like data at sf=%g ...\n%!" sf;
  let tables = Lh_datagen.Tpch.generate ~dict ~sf () in
  List.iter (L.Engine.register eng) tables;
  List.iter (fun (t : Table.t) -> Printf.printf "  %-10s %8d rows\n" t.Table.name t.Table.nrows) tables;

  let run name sql =
    Printf.printf "\n=== %s ===\n" name;
    let explain = L.Engine.explain eng sql in
    let result, dt = Lh_util.Timing.time (fun () -> L.Engine.query eng sql) in
    print_string explain.L.Engine.etext;
    Printf.printf "rows: %d   time: %s\n" result.Table.nrows (Lh_util.Timing.duration_to_string dt);
    for r = 0 to min 9 (result.Table.nrows - 1) do
      Format.printf "  %a@." (fun fmt () -> Table.pp_row fmt result r) ()
    done
  in
  run "Q6 (scan + scalar aggregate)" q6;
  run "Q5 (two-node GHD; region selection pushed deep)" q5;
  run "revenue of returned items by nation (Q10 variant)" q10_top;

  (* The same query under the LogicBlox-like configuration (no
     LevelHeaded optimizations) for comparison. *)
  Printf.printf "\n=== Q5 without LevelHeaded's optimizations ===\n";
  L.Engine.set_config eng L.Config.logicblox_like;
  let _, dt = Lh_util.Timing.time (fun () -> L.Engine.query eng q5) in
  Printf.printf "LogicBlox-like config: %s\n" (Lh_util.Timing.duration_to_string dt);
  L.Engine.set_config eng L.Config.default;
  let _, dt = Lh_util.Timing.time (fun () -> L.Engine.query eng q5) in
  Printf.printf "full LevelHeaded:      %s\n" (Lh_util.Timing.duration_to_string dt)
