module L = Levelheaded
module Schema = Lh_storage.Schema
module Table = Lh_storage.Table
module Dtype = Lh_storage.Dtype
module Date = Lh_storage.Date
module Prng = Lh_util.Prng

type col_info = {
  ci_name : string;
  ci_dtype : Dtype.t;
  ci_key : bool;
  ci_strings : string array;
  ci_lo : float;
  ci_hi : float;
}

type table_info = { ti_name : string; ti_cols : col_info array; ti_rows : int }

type profile = table_info array

(* Annotation floats are quarters so that sums and products of a handful
   of them are exact in double precision: the differential comparison then
   only needs its tolerance for genuine accumulation-order drift. *)
let quarter rng = float_of_int (Prng.int_in rng (-40) 40) /. 4.0

let cities = [| "paris"; "tokyo"; "lima"; "oslo" |]
let segments = [| "auto"; "bike" |]
let cats = [| "red"; "green"; "blue"; "gold" |]
let brands = [| "acme"; "globex"; "umbra" |]
let tags = [| "t0"; "t1"; "t2"; "t3"; "t4"; "t5" |]

let matrix_rows rng n =
  List.init n (fun _ ->
      [
        Dtype.VInt (Prng.int rng 7);
        Dtype.VInt (Prng.int rng 7);
        Dtype.VFloat (float_of_int (Prng.int_in rng (-4) 4));
      ])

(* Distinct-key matrix relations whose sets straddle the Sparse/Dense
   layout crossover ([Lh_set.Set.choose_layout]: dense iff card >= 16 and
   span <= 16 * card). Registered only under [~layout_stress:true] so the
   pinned base catalog — and every replay seed against it — is unchanged.

   - [ls_d]: pairs over a 0..17 domain at ~85% fill. The first level is one
     dense bitset; per-row column sets hover around cardinality 15-16, so a
     single level mixes bitset and uint sets (bs∩bs, bs∩uint, uint∩uint all
     arise inside one query).
   - [ls_s]: ~48 pairs spread over 0..999 — every set stays uint.
   - [ls_m]: a full dense first level (0..17) over sparse wide-domain
     column sets, so joins against [ls_d] hit bs∩bs at the root and joins
     against [ls_s] hit uint∩uint below it.

   All three have strictly distinct key tuples and a float annotation: with
   only keys referenced their tries are leaf-unit, which is what arms the
   executor's count-only kernels on cycle-shaped counts. *)
let layout_stress_tables reg =
  let rng = Prng.create 0xB17F1E1D in
  let mat = [ ("row", Dtype.Int, Schema.Key); ("col", Dtype.Int, Schema.Key);
              ("v", Dtype.Float, Schema.Annotation) ] in
  let pair r c = [ Dtype.VInt r; Dtype.VInt c; Dtype.VFloat (quarter rng) ] in
  let dense_rows =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun c -> if Prng.int rng 20 < 17 then Some (pair r c) else None)
          (List.init 18 Fun.id))
      (List.init 18 Fun.id)
  in
  reg "ls_d" mat dense_rows;
  let seen = Hashtbl.create 64 in
  let sparse_rows =
    List.init 48 (fun _ ->
        let rec fresh () =
          let r = Prng.int rng 1000 and c = Prng.int rng 1000 in
          if Hashtbl.mem seen (r, c) then fresh ()
          else begin
            Hashtbl.add seen (r, c) ();
            pair r c
          end
        in
        fresh ())
  in
  reg "ls_s" mat sparse_rows;
  let mixed_rows =
    List.concat_map
      (fun r ->
        (* three distinct wide-domain columns per dense row key *)
        let cols = Hashtbl.create 4 in
        let rec draw k acc =
          if k = 0 then acc
          else
            let c = Prng.int rng 1000 in
            if Hashtbl.mem cols c then draw k acc
            else begin
              Hashtbl.add cols c ();
              draw (k - 1) (pair r c :: acc)
            end
        in
        draw 3 [])
      (List.init 18 Fun.id)
  in
  reg "ls_m" mat mixed_rows

let build ?(layout_stress = false) () =
  let eng = L.Engine.create () in
  let dict = L.Engine.dict eng in
  let rng = Prng.create 0xA11CE in
  let reg name schema rows =
    ignore (L.Engine.register_rows eng ~name ~schema:(Schema.create schema) rows)
  in
  (* Sparse matrices with duplicate keys (multiplicity / pre-aggregation). *)
  List.iter
    (fun name ->
      reg name
        [ ("row", Dtype.Int, Schema.Key); ("col", Dtype.Int, Schema.Key);
          ("v", Dtype.Float, Schema.Annotation) ]
        (matrix_rows rng 35))
    [ "m_a"; "m_b"; "m_c" ];
  (* Dense matrices and vectors: the BLAS targets. *)
  let dm, _ = Lh_datagen.Matrices.dense ~dict ~name:"dm" ~n:6 ~seed:7 () in
  L.Engine.register eng dm;
  let dm2, _ = Lh_datagen.Matrices.dense ~dict ~name:"dm2" ~n:6 ~seed:8 () in
  L.Engine.register eng dm2;
  let dv, _ = Lh_datagen.Matrices.dense_vector ~dict ~name:"dv" ~n:6 ~seed:9 () in
  L.Engine.register eng dv;
  (* Sparse vector: distinct keys over the matrix key domain. *)
  reg "sv"
    [ ("idx", Dtype.Int, Schema.Key); ("v", Dtype.Float, Schema.Annotation) ]
    (List.filteri
       (fun _ _ -> Prng.int rng 10 < 7)
       (List.init 7 (fun i ->
            [ Dtype.VInt i; Dtype.VFloat (float_of_int (Prng.int_in rng (-4) 4)) ])));
  (* BI star: fact with two foreign keys and mixed-type annotations. *)
  reg "fact"
    [ ("cust", Dtype.Int, Schema.Key); ("item", Dtype.Int, Schema.Key);
      ("d", Dtype.Date, Schema.Annotation); ("cat", Dtype.String, Schema.Annotation);
      ("qty", Dtype.Int, Schema.Annotation); ("price", Dtype.Float, Schema.Annotation) ]
    (List.init 60 (fun _ ->
         [
           Dtype.VInt (Prng.int rng 5);
           Dtype.VInt (Prng.int rng 6);
           Dtype.VDate (Date.of_ymd 1994 1 1 + Prng.int rng 1000);
           Dtype.VString (Prng.pick rng cats);
           Dtype.VInt (Prng.int rng 10);
           Dtype.VFloat (quarter rng);
         ]));
  reg "cust"
    [ ("cust", Dtype.Int, Schema.Key); ("city", Dtype.String, Schema.Annotation);
      ("seg", Dtype.String, Schema.Annotation); ("bal", Dtype.Float, Schema.Annotation) ]
    (List.init 5 (fun i ->
         [
           Dtype.VInt i;
           Dtype.VString (Prng.pick rng cities);
           Dtype.VString (Prng.pick rng segments);
           Dtype.VFloat (quarter rng);
         ]));
  reg "item"
    [ ("item", Dtype.Int, Schema.Key); ("brand", Dtype.String, Schema.Annotation);
      ("weight", Dtype.Float, Schema.Annotation); ("y", Dtype.Int, Schema.Annotation) ]
    (List.init 6 (fun i ->
         [
           Dtype.VInt i;
           Dtype.VString (Prng.pick rng brands);
           Dtype.VFloat (quarter rng);
           Dtype.VInt (Prng.int_in rng 1990 1999);
         ]));
  (* String-keyed pair (dictionary-coded key join). *)
  reg "s1"
    [ ("tag", Dtype.String, Schema.Key); ("w", Dtype.Float, Schema.Annotation) ]
    (List.init 8 (fun _ -> [ Dtype.VString (Prng.pick rng tags); Dtype.VFloat (quarter rng) ]));
  reg "s2"
    [ ("tag", Dtype.String, Schema.Key); ("u", Dtype.Float, Schema.Annotation);
      ("n", Dtype.Int, Schema.Annotation) ]
    (List.init 8 (fun _ ->
         [
           Dtype.VString (Prng.pick rng tags);
           Dtype.VFloat (quarter rng);
           Dtype.VInt (Prng.int rng 6);
         ]));
  (* Appended last, from an independent rng: the base tables above are
     bit-identical with and without the stress tables. *)
  if layout_stress then layout_stress_tables reg;
  eng

let oracle ?base batches =
  let eng = match base with Some e -> e | None -> L.Engine.create () in
  List.iter
    (fun (name, schema, rows) -> ignore (L.Engine.register_rows eng ~name ~schema rows))
    batches;
  eng

let profile eng =
  let cat = L.Engine.catalog eng in
  L.Catalog.names cat
  |> List.sort String.compare
  |> List.map (fun name ->
         let t = L.Catalog.find_exn cat name in
         let cols =
           Array.init (Schema.ncols t.Table.schema) (fun c ->
               let col = Schema.col t.Table.schema c in
               let strings = Hashtbl.create 8 in
               let lo = ref infinity and hi = ref neg_infinity in
               for r = 0 to t.Table.nrows - 1 do
                 match Table.value t ~row:r ~col:c with
                 | Dtype.VString s -> Hashtbl.replace strings s ()
                 | v ->
                     let x = Dtype.numeric v in
                     lo := Float.min !lo x;
                     hi := Float.max !hi x
               done;
               {
                 ci_name = col.Schema.name;
                 ci_dtype = col.Schema.dtype;
                 ci_key = col.Schema.kind = Schema.Key;
                 ci_strings =
                   Hashtbl.fold (fun s () acc -> s :: acc) strings []
                   |> List.sort String.compare |> Array.of_list;
                 (* strings-only or empty columns have no numeric range *)
                 ci_lo = (if !lo > !hi then 0.0 else !lo);
                 ci_hi = (if !lo > !hi then 0.0 else !hi);
               })
         in
         { ti_name = name; ti_cols = cols; ti_rows = t.Table.nrows })
  |> Array.of_list
