(* Answer checking. Expected rows come from the pairwise hash-join
   evaluator (Lh_baseline.Pairwise, Pipelined) over the same table files
   the server loaded; they never come from the engine under test.

   lhserve prints one result row per line, cells joined by '|', floats as
   %.6g. A line is parsed back cell by cell against the expected row's
   types, then both row sets are compared in canonical order with a
   relative float tolerance that covers the 6-significant-digit
   rendering (at most 5e-6 relative) plus summation-order differences. *)

module Dtype = Lh_storage.Dtype
module Rows = Lh_qgen.Rows

type row = Dtype.value list

let rel_tol = 2e-5

let float_close a b =
  a = b
  || Float.abs (a -. b) <= (rel_tol *. Float.max (Float.abs a) (Float.abs b)) +. 1e-9

let value_close (a : Dtype.value) (b : Dtype.value) =
  match (a, b) with
  | VString x, VString y -> String.equal x y
  | VDate x, VDate y -> x = y
  | VInt x, VInt y -> x = y
  | (VInt _ | VFloat _), (VInt _ | VFloat _) ->
      float_close (Dtype.numeric a) (Dtype.numeric b)
  | _ -> false

(* A printed cell, read back as the type of the expected cell [like]. *)
let parse_cell ~(like : Dtype.value) s : Dtype.value =
  match like with
  | VString _ -> VString s
  | VDate _ -> ( try VDate (Lh_storage.Date.of_string s) with _ -> VString s)
  | VInt _ -> (
      match int_of_string_opt s with
      | Some i -> VInt i
      | None -> ( match float_of_string_opt s with Some f -> VFloat f | None -> VString s))
  | VFloat _ -> ( match float_of_string_opt s with Some f -> VFloat f | None -> VString s)

(* Expected answers are canonicalized once, when they are computed. *)
type expected = row array

let expected_of_rows (rows : row list) : expected = Array.of_list (Rows.canonical rows)

let show_row r = Rows.row_to_string r

(* [None] when the printed lines are the expected row set. *)
let diff (expect : expected) (lines : string list) =
  let n = Array.length expect in
  let nlines = List.length lines in
  if n <> nlines then Some (Printf.sprintf "expected %d rows, got %d" n nlines)
  else if n = 0 then None
  else
    let like = expect.(0) in
    let ncols = List.length like in
    let parse line =
      let cells = String.split_on_char '|' line in
      if List.length cells <> ncols then None
      else Some (List.map2 (fun like s -> parse_cell ~like s) like cells)
    in
    match List.map parse lines with
    | got when List.exists Option.is_none got ->
        Some (Printf.sprintf "a result line does not have %d cells" ncols)
    | got ->
        let got = Array.of_list (Rows.canonical (List.map Option.get got)) in
        let rec first i =
          if i >= n then None
          else if List.for_all2 value_close expect.(i) got.(i) then first (i + 1)
          else
            Some
              (Printf.sprintf "row %d: expected %s, got %s" i (show_row expect.(i))
                 (show_row got.(i)))
        in
        first 0

(* Same comparison for a result table produced in this process. *)
let diff_table expect (t : Lh_storage.Table.t) =
  diff expect
    (List.init t.Lh_storage.Table.nrows (fun r ->
         Format.asprintf "%a" (fun fmt () -> Lh_storage.Table.pp_row fmt t r) ()))

let pairwise ~lookup sql : expected =
  expected_of_rows
    (Lh_baseline.Pairwise.query ~lookup ~mode:Lh_baseline.Pairwise.Pipelined
       (Lh_sql.Parser.parse sql))

let lookup_of eng name = Levelheaded.Catalog.find_exn (Levelheaded.Engine.catalog eng) name
