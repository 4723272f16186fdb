(* Kernel equivalence: the batch kernels of Levelheaded.Compile against
   the per-row evaluator of the pairwise baseline (Lh_baseline.Xcompile),
   on random single-table predicates and expressions over int, float,
   date and string columns. Each kernel runs over random selections of
   every interesting size, in chunks of at most [Compile.chunk] rows as
   the executor feeds them, and must keep exactly the rows the per-row
   predicate keeps and produce bit-identical floats. *)

module A = Lh_sql.Ast
module T = Lh_storage.Table
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Date = Lh_storage.Date
module Compile = Levelheaded.Compile
module X = Lh_baseline.Xcompile

let nrows = 4500
let words = [| "alpha"; "beta"; "gamma"; "delta"; "" |]
let specials = [| 0.0; -0.0; nan; -.nan; infinity; neg_infinity; 1e-300; 2.5 |]

let table =
  lazy
    (let st = Random.State.make [| 27 |] in
     let pick a = a.(Random.State.int st (Array.length a)) in
     let schema =
       Schema.create
         [
           ("i", Dtype.Int, Schema.Annotation);
           ("f", Dtype.Float, Schema.Annotation);
           ("d", Dtype.Date, Schema.Annotation);
           ("s", Dtype.String, Schema.Annotation);
           ("s2", Dtype.String, Schema.Annotation);
         ]
     in
     let row _ =
       [
         Dtype.VInt (Random.State.int st 9 - 4);
         Dtype.VFloat
           (if Random.State.int st 4 = 0 then pick specials
            else float_of_int (Random.State.int st 9 - 4) /. 2.0);
         Dtype.VDate (Date.of_ymd (1992 + Random.State.int st 5) 1 1 + Random.State.int st 365);
         Dtype.VString (pick words);
         Dtype.VString (pick words);
       ]
     in
     T.of_rows ~name:"t" ~schema ~dict:(Lh_storage.Dict.create ()) (List.init nrows row))

let col name = A.Col { A.relation = None; column = name }

(* Random trees, drawn from an int seed so a failure prints a replayable
   seed alongside the tree. *)
let rec gen_expr st depth =
  let leaf () =
    match Random.State.int st 7 with
    | 0 -> col "i"
    | 1 -> col "f"
    | 2 -> col "d"
    | 3 -> A.Int_lit (Random.State.int st 7 - 3)
    | 4 -> A.Float_lit specials.(Random.State.int st (Array.length specials))
    | 5 -> A.Extract_year (col "d")
    | _ -> A.Date_lit (Date.of_ymd 1994 6 1)
  in
  if depth = 0 then leaf ()
  else
    let sub () = gen_expr st (depth - 1) in
    match Random.State.int st 9 with
    | 0 | 1 | 2 -> leaf ()
    | 3 -> A.Neg (sub ())
    | 4 -> A.Add (sub (), sub ())
    | 5 -> A.Sub (sub (), sub ())
    | 6 -> A.Mul (sub (), sub ())
    | 7 -> A.Div (sub (), sub ())
    | _ -> A.Case_when (gen_pred st (depth - 1), sub (), sub ())

and gen_pred st depth =
  let ops = [| A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge |] in
  let e () = gen_expr st (depth / 2) in
  let base () =
    match Random.State.int st 5 with
    | 0 | 1 -> A.Cmp (ops.(Random.State.int st 6), e (), e ())
    | 2 ->
        (* "omega" is not in the dictionary. *)
        let lit = A.String_lit [| "alpha"; "beta"; ""; "omega" |].(Random.State.int st 4) in
        let a, b = if Random.State.bool st then (col "s", lit) else (lit, col "s2") in
        let b = if Random.State.int st 4 = 0 then col "s2" else b in
        A.Cmp ((if Random.State.bool st then A.Eq else A.Ne), a, b)
    | 3 ->
        let pattern = [| "a%"; "%ta"; "_eta"; "%"; "gamma"; "x%"; "" |].(Random.State.int st 7) in
        if Random.State.bool st then A.Like (col "s", pattern) else A.Not_like (col "s", pattern)
    | _ -> A.Between (e (), e (), e ())
  in
  if depth = 0 then base ()
  else
    match Random.State.int st 6 with
    | 0 -> A.And (gen_pred st (depth - 1), gen_pred st (depth - 1))
    | 1 -> A.Or (gen_pred st (depth - 1), gen_pred st (depth - 1))
    | 2 -> A.Not (gen_pred st (depth - 1))
    | _ -> base ()

let sizes = [ 0; 1; 1023; 1024; 1025; 4097 ]

(* A random ascending selection of [k] distinct rows. *)
let selection st k =
  let ids = Array.init nrows Fun.id in
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (nrows - i) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let s = Array.sub ids 0 k in
  Array.sort compare s;
  s

(* Runs [kernel sel n] over [rows] in chunks of at most [Compile.chunk],
   passing each chunk's rows and its kernel result to [check]. *)
let chunked rows kernel check =
  let sel = Array.make Compile.chunk 0 in
  let lo = ref 0 in
  while !lo < Array.length rows do
    let n = min Compile.chunk (Array.length rows - !lo) in
    Array.blit rows !lo sel 0 n;
    let chunk_rows = Array.sub rows !lo n in
    check chunk_rows (kernel sel n) sel;
    lo := !lo + n
  done

let resolve tbl (c : A.col_ref) = Schema.find_exn tbl.T.schema c.A.column
let spec tbl = [ ("t", tbl) ]
let gen_seed = QCheck2.Gen.int_bound 0x3FFFFFFF

let filter_agrees seed =
  let tbl = Lazy.force table and st = Random.State.make [| seed |] in
  let p = gen_pred st 3 in
  let kernel = Compile.filter tbl ~resolve:(resolve tbl) p and keep = X.pred (spec tbl) p in
  List.for_all
    (fun k ->
      let ok = ref true in
      chunked (selection st k) kernel (fun rows m sel ->
          let want = List.filter (fun r -> keep [| r |]) (Array.to_list rows) in
          if want <> Array.to_list (Array.sub sel 0 m) then begin
            ok := false;
            Printf.eprintf "filter %s differs at selection size %d\n%!"
              (Format.asprintf "%a" A.pp_pred p) k
          end);
      !ok)
    sizes

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let scalar_agrees seed =
  let tbl = Lazy.force table and st = Random.State.make [| seed |] in
  let e = gen_expr st 4 in
  let out = Array.make Compile.chunk 0.0 in
  let kernel = Compile.scalar tbl ~resolve:(resolve tbl) e out and value = X.scalar (spec tbl) e in
  List.for_all
    (fun k ->
      let ok = ref true in
      chunked (selection st k) kernel (fun rows () _ ->
          Array.iteri
            (fun p r ->
              if not (same_float out.(p) (value [| r |])) then begin
                ok := false;
                Printf.eprintf "%s at row %d: kernel %h, per-row %h\n%!"
                  (Format.asprintf "%a" A.pp_expr e) r out.(p) (value [| r |])
              end)
            rows);
      !ok)
    sizes

let code_agrees seed =
  let tbl = Lazy.force table and st = Random.State.make [| seed |] in
  let e = [| col "i"; col "d"; col "s"; A.Extract_year (col "d") |].(seed mod 4) in
  let out = Array.make Compile.chunk 0 in
  let kernel = Compile.code tbl ~resolve:(resolve tbl) e out and value = X.code (spec tbl) e in
  List.for_all
    (fun k ->
      let ok = ref true in
      chunked (selection st k) kernel (fun rows () _ ->
          Array.iteri (fun p r -> if out.(p) <> value [| r |] then ok := false) rows);
      !ok)
    sizes

let () =
  Alcotest.run "levelheaded-compile"
    [
      ( "kernels",
        [
          Helpers.qtest ~count:150 "filter = per-row predicate" gen_seed filter_agrees;
          Helpers.qtest ~count:150 "scalar = per-row expression, bit for bit" gen_seed scalar_agrees;
          Helpers.qtest ~count:20 "group code = per-row code" gen_seed code_agrees;
        ] );
    ]
