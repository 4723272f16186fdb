(* Inputs. The base datasets are fixed, as TPC-H dbgen output and the UF
   matrices are: generated from [data_seed], written once as
   '|'-separated files under .perfbench/cache, and read by both sides —
   lhserve preloads them with --table, and the benchmark loads the same
   files into its own engine to compute expected answers. Generation
   sits outside every timed region. The run's --seed drives the load:
   query parameters, operation order, session schedule and every
   ingested side table.

   Why not seed the base data too: with the same plan, TPC-H Q9 takes
   twice as long on some generator seeds as on others, which would make
   run-to-run spread a property of the seed rather than of the code. *)

module L = Levelheaded
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Table = Lh_storage.Table
module Dict = Lh_storage.Dict
module M = Lh_datagen.Matrices

(* Never occurs in a generated string (checked while writing); lhserve
   also prints result cells joined by '|', which keeps result lines
   splittable. *)
let sep = '|'

let work_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* A fresh directory under .perfbench/tmp, removed by [cleanup_temp]
   (also at exit, so a failing run leaves nothing behind). *)
let temps = ref []

let cleanup_temp () =
  List.iter rm_rf !temps;
  temps := []

let temp_dir tag =
  let d =
    Filename.concat work_dir
      (Printf.sprintf "tmp/%s-%d-%d" tag (Unix.getpid ()) (List.length !temps))
  in
  rm_rf d;
  mkdir_p d;
  temps := d :: !temps;
  d

let () = at_exit cleanup_temp

(* ---- values as text ---- *)

(* Full precision: Dtype.value_to_string prints floats as %.6g, which
   would silently change the data the server loads. *)
let cell_to_string = function
  | Dtype.VInt i -> string_of_int i
  | Dtype.VFloat f -> Printf.sprintf "%.17g" f
  | Dtype.VDate d -> Lh_storage.Date.to_string d
  | Dtype.VString s ->
      String.iter
        (fun c ->
          if c = sep || c = ',' || c = '"' || c = '\n' then
            failwith (Printf.sprintf "generated string %S contains a separator" s))
        s;
      s

let write_table path (t : Table.t) =
  let oc = open_out_bin path in
  let ncols = Schema.ncols t.Table.schema in
  let b = Buffer.create 4096 in
  for row = 0 to t.Table.nrows - 1 do
    for col = 0 to ncols - 1 do
      if col > 0 then Buffer.add_char b sep;
      Buffer.add_string b (cell_to_string (Table.value t ~row ~col))
    done;
    Buffer.add_char b '\n';
    if Buffer.length b > 65536 then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  done;
  Buffer.output_buffer oc b;
  close_out oc

(* lhserve --table syntax: "col dtype [key], ..." *)
let table_spec schema =
  String.concat ","
    (List.init (Schema.ncols schema) (fun i ->
         let c = Schema.col schema i in
         Printf.sprintf "%s %s%s" c.Schema.name (Dtype.to_string c.Schema.dtype)
           (if c.Schema.kind = Schema.Key then " key" else "")))

(* lhserve ingest syntax: "name:dtype[:key],..." *)
let ingest_spec schema =
  String.concat ","
    (List.init (Schema.ncols schema) (fun i ->
         let c = Schema.col schema i in
         Printf.sprintf "%s:%s%s" c.Schema.name (Dtype.to_string c.Schema.dtype)
           (if c.Schema.kind = Schema.Key then ":key" else "")))

(* ---- datasets ---- *)

type table = { name : string; schema : Schema.t; path : string }

type dataset = { tables : table list }

type spec = {
  ds_name : string;
  tpch_sf : float;
  harbor_scale : float;  (* sparse matrix [harbor] and vector [harbor_x] *)
  band : (int * int * int) option;  (* SMM matrix [band]: n, nnz per row, bandwidth *)
  dense : int option;  (* dense matrix [dense] and vector [dense_x] *)
}

let data_seed = 42

let generate spec =
  let seed = data_seed in
  let dict = Dict.create () in
  let tpch = Lh_datagen.Tpch.generate ~dict ~sf:spec.tpch_sf ~seed () in
  let harbor = M.harbor_like ~dict ~scale:spec.harbor_scale ~seed () in
  let n = harbor.M.coo.Lh_blas.Coo.nrows in
  let hx, _ = M.dense_vector ~dict ~name:"harbor_x" ~n ~seed:(seed + 1) () in
  let band =
    match spec.band with
    | None -> []
    | Some (n, nnz_per_row, bandwidth) ->
        [ (M.banded ~dict ~name:"band" ~n ~nnz_per_row ~bandwidth ~seed:(seed + 2) ()).M.table ]
  in
  let dense =
    match spec.dense with
    | None -> []
    | Some n ->
        [
          fst (M.dense ~dict ~name:"dense" ~n ~seed:(seed + 3) ());
          fst (M.dense_vector ~dict ~name:"dense_x" ~n ~seed:(seed + 4) ());
        ]
  in
  tpch @ [ harbor.M.table; hx ] @ band @ dense

(* Smaller datasets for the benchmark's own smoke tests. *)
let tiny = ref false

let sized spec =
  if not !tiny then spec
  else
    {
      ds_name = spec.ds_name ^ "-tiny";
      tpch_sf = 0.001;
      harbor_scale = 0.002;
      band = Option.map (fun _ -> (100, 3, 2)) spec.band;
      dense = Option.map (fun _ -> 16) spec.dense;
    }

(* Generated once: written into a scratch directory and renamed into
   place, so a run killed mid-write never leaves a half-written cache
   behind. *)
let prepare spec =
  let spec = sized spec in
  let dir = Filename.concat work_dir ("cache/" ^ spec.ds_name) in
  if not (Sys.file_exists dir) then begin
    let tmp = dir ^ Printf.sprintf ".tmp%d" (Unix.getpid ()) in
    rm_rf tmp;
    mkdir_p tmp;
    List.iter
      (fun (t : Table.t) -> write_table (Filename.concat tmp (t.Table.name ^ ".tbl")) t)
      (generate spec);
    (try Unix.rename tmp dir with Unix.Unix_error _ -> rm_rf tmp)
  end;
  let t name schema = { name; schema; path = Filename.concat dir (name ^ ".tbl") } in
  {
    tables =
      List.map (fun (n, s) -> t n s) Lh_datagen.Tpch.schemas
      @ [ t "harbor" M.matrix_schema; t "harbor_x" M.vector_schema ]
      @ (if spec.band = None then [] else [ t "band" M.matrix_schema ])
      @
      if spec.dense = None then []
      else [ t "dense" M.matrix_schema; t "dense_x" M.vector_schema ];
  }

let table_flags ds =
  List.concat_map
    (fun t -> [ "--table"; Printf.sprintf "%s:%s:%s" t.name t.path (table_spec t.schema) ])
    ds.tables

(* The same files, loaded into an engine of this process. *)
let load_engine ?config ds =
  let eng = L.Engine.create ?config () in
  List.iter
    (fun t -> ignore (L.Engine.load_csv eng ~name:t.name ~schema:t.schema ~sep t.path))
    ds.tables;
  eng

(* ---- side tables (the ingest stream) ----

   Ingest [g] (0-based) replaces side table [side (g mod 4)] with 64 rows
   of variant [g mod variants] and stamps every row with [x_ver = g], so
   each acknowledged version is distinguishable after a restart while
   the join query's answer depends on the variant only. *)

let nsides = 4
let side_rows = 64
let variants = 16

let side_name i = Printf.sprintf "side%d" i

let side_schema =
  Schema.create
    [
      ("x_id", Dtype.Int, Schema.Key);
      ("x_nationkey", Dtype.Int, Schema.Key);
      ("x_ver", Dtype.Int, Schema.Annotation);
      ("x_v", Dtype.Float, Schema.Annotation);
    ]

let side_batch ~seed g =
  let rng = Lh_util.Prng.create ((seed * 7919) + (g mod variants)) in
  List.init side_rows (fun r ->
      [
        Dtype.VInt r;
        Dtype.VInt (Lh_util.Prng.int rng 25);
        Dtype.VInt g;
        Dtype.VFloat (Lh_util.Prng.float rng 100.0 -. 50.0);
      ])

let side_join_sql i =
  Printf.sprintf
    "select n_name, count(*) as c, sum(x_v) as v from %s, nation where x_nationkey = \
     n_nationkey group by n_name"
    (side_name i)

(* Every row of a side table; the sums are over one row each (x_id is
   unique), since key columns may only be selected when grouped on. *)
let side_scan_sql i =
  Printf.sprintf
    "select x_id, x_nationkey, sum(x_ver) as x_ver, sum(x_v) as x_v from %s group by x_id, \
     x_nationkey"
    (side_name i)
