(* Quickstart: create an engine, load a table from a delimited file, run
   SQL, and inspect the plan.

     dune exec examples/quickstart.exe
*)

module L = Levelheaded
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Table = Lh_storage.Table

let print_table (t : Table.t) =
  (* header *)
  for c = 0 to Schema.ncols t.Table.schema - 1 do
    if c > 0 then print_char '|';
    print_string (Schema.col t.Table.schema c).Schema.name
  done;
  print_newline ();
  for r = 0 to t.Table.nrows - 1 do
    Format.printf "%a@." (fun fmt () -> Table.pp_row fmt t r) ()
  done

let () =
  let eng = L.Engine.create () in

  (* 1. Describe the data: every attribute is a key or an annotation
     (§III-A).  Keys join; annotations carry values. *)
  let sales_schema =
    Schema.create
      [
        ("product_id", Dtype.Int, Schema.Key);
        ("store_id", Dtype.Int, Schema.Key);
        ("sale_date", Dtype.Date, Schema.Annotation);
        ("amount", Dtype.Float, Schema.Annotation);
      ]
  in
  let stores_schema =
    Schema.create
      [
        ("store_id", Dtype.Int, Schema.Key);
        ("city", Dtype.String, Schema.Annotation);
      ]
  in

  (* 2. Ingest delimited files (LevelHeaded ingests structured data from
     delimited files on disk, §III). *)
  let dir = Filename.temp_file "lh_quickstart" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sales_csv = Filename.concat dir "sales.csv" in
  Lh_util.Csv.write_file sales_csv
    [
      [ "1"; "10"; "2024-01-05"; "19.99" ];
      [ "1"; "11"; "2024-01-06"; "24.50" ];
      [ "2"; "10"; "2024-01-06"; "5.00" ];
      [ "2"; "10"; "2024-02-01"; "7.25" ];
      [ "3"; "11"; "2024-02-02"; "102.00" ];
    ];
  let stores_csv = Filename.concat dir "stores.csv" in
  Lh_util.Csv.write_file stores_csv [ [ "10"; "Oslo" ]; [ "11"; "Bergen" ] ];
  ignore (L.Engine.load_csv eng ~name:"sales" ~schema:sales_schema sales_csv);
  ignore (L.Engine.load_csv eng ~name:"stores" ~schema:stores_schema stores_csv);

  (* 3. Query: an aggregate-join executed by the generic worst-case
     optimal join over tries. *)
  let sql =
    "select city, sum(amount) as revenue, count(*) as sales from sales, stores where \
     sales.store_id = stores.store_id and sale_date >= date '2024-01-01' group by city"
  in
  let explain = L.Engine.explain eng sql in
  let result = L.Engine.query eng sql in
  print_endline "-- result --";
  print_table result;
  print_endline "\n-- plan --";
  print_string explain.L.Engine.etext;

  (* 4. Results are ordinary tables: register and query them again. *)
  let renamed =
    Table.create ~name:"city_revenue" ~schema:result.Table.schema ~dict:result.Table.dict
      result.Table.cols
  in
  L.Engine.register eng renamed;
  let top = L.Engine.query eng "select max(revenue) as best from city_revenue" in
  print_endline "\n-- max city revenue --";
  print_table top
