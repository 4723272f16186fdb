open Lh_sql
module Dtype = Lh_storage.Dtype
module Date = Lh_storage.Date
module Prng = Lh_util.Prng

type shape = Scan | Chain | Star | Cycle | La

let all_shapes = [ Scan; Chain; Star; Cycle; La ]

let shape_to_string = function
  | Scan -> "scan" | Chain -> "chain" | Star -> "star" | Cycle -> "cycle" | La -> "la"

let shape_of_string = function
  | "scan" -> Some Scan | "chain" -> Some Chain | "star" -> Some Star
  | "cycle" -> Some Cycle | "la" -> Some La | _ -> None

type spec = { shapes : shape list; max_relations : int; semiring : bool }

let default_spec = { shapes = all_shapes; max_relations = 4; semiring = false }

(* ------------------------------------------------------------------ *)
(* Profile classification                                               *)

open Dataset

let keys (t : table_info) = Array.to_list t.ti_cols |> List.filter (fun c -> c.ci_key)
let anns (t : table_info) = Array.to_list t.ti_cols |> List.filter (fun c -> not c.ci_key)

let numeric_anns t =
  List.filter (fun c -> c.ci_dtype <> Dtype.String) (anns t)

let is_matrix t =
  match keys t with
  | [ a; b ] -> a.ci_dtype = Dtype.Int && b.ci_dtype = Dtype.Int && numeric_anns t <> []
  | _ -> false

let is_vector t =
  match keys t with
  | [ a ] -> a.ci_dtype = Dtype.Int && numeric_anns t <> []
  | _ -> false

(* A table whose int key columns enumerate a complete zero-based grid:
   the shape {!Lh_blas} kernels accept (mirrors [Lh_storage.Table.dense_rect]
   without scanning the data again). *)
let is_dense t =
  let ks = keys t in
  ks <> []
  && List.for_all (fun c -> c.ci_dtype = Dtype.Int && c.ci_lo = 0.0) ks
  && t.ti_rows > 0
  && t.ti_rows
     = List.fold_left (fun acc c -> acc * (int_of_float c.ci_hi + 1)) 1 ks

type rel = { alias : string; info : table_info }

let cref rel (c : col_info) = Ast.Col { Ast.relation = Some rel.alias; column = c.ci_name }

let join_pred ra ca rb cb =
  match (cref ra ca, cref rb cb) with
  | (Ast.Col _ as a), (Ast.Col _ as b) -> Ast.Cmp (Ast.Eq, a, b)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Constants and filters                                                *)

let const_in rng (c : col_info) =
  let lo = c.ci_lo and hi = c.ci_hi in
  match c.ci_dtype with
  | Dtype.Int -> Ast.Int_lit (Prng.int_in rng (int_of_float lo) (max (int_of_float lo) (int_of_float hi)))
  | Dtype.Date -> Ast.Date_lit (Prng.int_in rng (int_of_float lo) (max (int_of_float lo) (int_of_float hi)))
  | Dtype.Float ->
      (* quarters: exact in the printed SQL and in every evaluator *)
      let qlo = int_of_float (Float.round (lo *. 4.0)) in
      let qhi = max qlo (int_of_float (Float.round (hi *. 4.0))) in
      Ast.Float_lit (float_of_int (Prng.int_in rng qlo qhi) /. 4.0)
  | Dtype.String -> assert false

let like_pattern rng s =
  if String.length s <= 1 then s ^ "%"
  else
    let n = String.length s in
    match Prng.int rng 4 with
    | 0 -> String.sub s 0 (1 + Prng.int rng (n - 1)) ^ "%"
    | 1 ->
        let pos = Prng.int rng n in
        "%" ^ String.sub s pos (n - pos)
    | 2 -> "%" ^ String.sub s 1 (n - 1)
    | _ -> "_" ^ String.sub s 1 (n - 1)

let string_atom rng rel (c : col_info) =
  let value =
    if Array.length c.ci_strings = 0 || Prng.int rng 10 = 0 then "zzz"
    else Prng.pick rng c.ci_strings
  in
  match Prng.int rng 4 with
  | 0 -> Ast.Cmp (Ast.Eq, cref rel c, Ast.String_lit value)
  | 1 -> Ast.Cmp (Ast.Ne, cref rel c, Ast.String_lit value)
  | 2 -> Ast.Like (cref rel c, like_pattern rng value)
  | _ -> Ast.Not_like (cref rel c, like_pattern rng value)

let numeric_atom rng rel (c : col_info) =
  match Prng.int rng 7 with
  | 0 -> Ast.Cmp (Ast.Lt, cref rel c, const_in rng c)
  | 1 -> Ast.Cmp (Ast.Le, cref rel c, const_in rng c)
  | 2 -> Ast.Cmp (Ast.Gt, cref rel c, const_in rng c)
  | 3 -> Ast.Cmp (Ast.Ge, cref rel c, const_in rng c)
  | 4 -> Ast.Cmp (Ast.Eq, cref rel c, const_in rng c)
  | 5 -> Ast.Cmp (Ast.Ne, cref rel c, const_in rng c)
  | _ ->
      let a = const_in rng c and b = const_in rng c in
      (* BETWEEN lo AND hi with lo <= hi so the range is satisfiable *)
      let lo, hi = if compare a b <= 0 then (a, b) else (b, a) in
      Ast.Between (cref rel c, lo, hi)

let filter_atom_over rng rel cols =
  let c = Prng.pick rng (Array.of_list cols) in
  if c.ci_dtype = Dtype.String then string_atom rng rel c else numeric_atom rng rel c

let filter_atom rng rel = filter_atom_over rng rel (Array.to_list rel.info.ti_cols)

let filter_pred rng rel =
  let p = filter_atom rng rel in
  let p =
    if Prng.int rng 100 < 25 then
      let q = filter_atom rng rel in
      if Prng.bool rng then Ast.And (p, q) else Ast.Or (p, q)
    else p
  in
  if Prng.int rng 100 < 10 then Ast.Not p else p

(* ------------------------------------------------------------------ *)
(* Aggregate expressions (decomposable by construction)                 *)

let pick_numeric rng rel =
  match numeric_anns rel.info with
  | [] -> None
  | cols -> Some (Prng.pick rng (Array.of_list cols))

(* A single-relation factor: the shapes [Logical.decompose] accepts. *)
let factor rng rel (c : col_info) =
  let col = cref rel c in
  match Prng.int rng 8 with
  | 0 | 1 | 2 -> col
  | 3 -> Ast.Mul (col, Ast.Int_lit 2)
  | 4 -> Ast.Sub (Ast.Int_lit 1, col)
  | 5 -> Ast.Div (col, Ast.Float_lit 4.0)
  | 6 -> (
      match pick_numeric rng rel with
      | Some c2 -> Ast.Mul (col, cref rel c2)
      | None -> col)
  | _ -> (
      (* keys cannot appear anywhere in an aggregate, including the
         CASE WHEN indicator predicate (§III-A) *)
      match anns rel.info with
      | [] -> col
      | cols -> Ast.Case_when (filter_atom_over rng rel cols, col, Ast.Int_lit 0))

let agg_arg rng rels =
  (* product of factors over 1..3 distinct relations *)
  let withnum = List.filter (fun r -> pick_numeric rng r <> None) rels in
  match withnum with
  | [] -> None
  | _ ->
      let arr = Array.of_list withnum in
      Prng.shuffle rng arr;
      let n = min (Array.length arr) (1 + Prng.int rng 3) in
      let fs =
        List.init n (fun i ->
            let r = arr.(i) in
            match pick_numeric rng r with
            | Some c -> factor rng r c
            | None -> assert false)
      in
      Some (List.fold_left (fun acc f -> Ast.Mul (acc, f)) (List.hd fs) (List.tl fs))

let single_alias_arg rng rels =
  let withnum = List.filter (fun r -> pick_numeric rng r <> None) rels in
  match withnum with
  | [] -> None
  | _ ->
      let r = Prng.pick rng (Array.of_list withnum) in
      Option.map (factor rng r) (pick_numeric rng r)

(* A sum of single-relation addends over 1..3 distinct relations: the
   shape [Logical.decompose_plus] accepts for ⊗ = + semirings. *)
let dplus_arg rng rels =
  let withnum = List.filter (fun r -> pick_numeric rng r <> None) rels in
  match withnum with
  | [] -> None
  | _ ->
      let arr = Array.of_list withnum in
      Prng.shuffle rng arr;
      let n = min (Array.length arr) (1 + Prng.int rng 3) in
      let fs =
        List.init n (fun i ->
            let r = arr.(i) in
            match pick_numeric rng r with
            | Some c -> factor rng r c
            | None -> assert false)
      in
      Some (List.fold_left (fun acc f -> Ast.Add (acc, f)) (List.hd fs) (List.tl fs))

(* Registered-semiring names the baselines also know how to fold; the
   star forms Fold "min"/"max" would reject are never drawn. *)
let fold_names = [| "sum_product"; "min"; "max"; "min_plus"; "bool_or_and" |]

let semiring_aggregate rng rels name =
  match Prng.int rng 3 with
  | 0 -> Ast.Aggregate (Ast.Min_plus, dplus_arg rng rels, name)
  | 1 -> Ast.Aggregate (Ast.Reaches, single_alias_arg rng rels, name)
  | _ -> (
      match Prng.pick rng fold_names with
      | "sum_product" -> Ast.Aggregate (Ast.Fold "sum_product", agg_arg rng rels, name)
      | "min_plus" -> Ast.Aggregate (Ast.Fold "min_plus", dplus_arg rng rels, name)
      | "bool_or_and" -> Ast.Aggregate (Ast.Fold "bool_or_and", single_alias_arg rng rels, name)
      | ("min" | "max") as n -> (
          match single_alias_arg rng rels with
          | Some e -> Ast.Aggregate (Ast.Fold n, Some e, name)
          | None -> Ast.Aggregate (Ast.Count, None, name))
      | _ -> assert false)

let aggregate rng ~semiring rels i =
  let name = Printf.sprintf "a%d" i in
  if semiring && Prng.int rng 3 = 0 then semiring_aggregate rng rels name
  else
    match Prng.int rng 6 with
    | 0 -> Ast.Aggregate (Ast.Count, None, name)
    | 1 -> (
        match single_alias_arg rng rels with
        | Some e -> Ast.Aggregate ((if Prng.bool rng then Ast.Min else Ast.Max), Some e, name)
        | None -> Ast.Aggregate (Ast.Count, None, name))
    | 2 -> (
        match agg_arg rng rels with
        | Some e -> Ast.Aggregate (Ast.Avg, Some e, name)
        | None -> Ast.Aggregate (Ast.Count, None, name))
    | _ -> (
        match agg_arg rng rels with
        | Some e -> Ast.Aggregate (Ast.Sum, Some e, name)
        | None -> Ast.Aggregate (Ast.Count, None, name))

(* ------------------------------------------------------------------ *)
(* GROUP BY                                                             *)

let group_by_exprs rng rels =
  let candidates =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun (c : col_info) ->
            if c.ci_key then [ cref r c ]
            else
              match c.ci_dtype with
              | Dtype.Float -> []  (* float GROUP BY is outside the subset *)
              | Dtype.Date ->
                  [ cref r c; Ast.Extract_year (cref r c) ]
              | Dtype.Int | Dtype.String -> [ cref r c ])
          (Array.to_list r.info.ti_cols))
      rels
  in
  let n =
    match Prng.int rng 10 with 0 | 1 | 2 -> 0 | 3 | 4 | 5 | 6 -> 1 | _ -> 2
  in
  if n = 0 || candidates = [] then []
  else begin
    let arr = Array.of_list candidates in
    Prng.shuffle rng arr;
    let seen = Hashtbl.create 4 in
    let out = ref [] in
    Array.iter
      (fun e ->
        if List.length !out < n && not (Hashtbl.mem seen e) then begin
          Hashtbl.replace seen e ();
          out := e :: !out
        end)
      arr;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* Shapes                                                               *)

let tables_where profile p = List.filter p (Array.to_list profile)

let require what = function
  | [] -> failwith (Printf.sprintf "Qgen.Gen: profile has no %s table" what)
  | l -> Array.of_list l

let alias i = Printf.sprintf "r%d" i

let key1 t = List.nth (keys t) 0
let key2 t = List.nth (keys t) 1

let chain_rels rng profile max_relations =
  let matrices = require "matrix (two int keys)" (tables_where profile is_matrix) in
  let vectors = tables_where profile is_vector in
  let k = Prng.int_in rng 2 (max 2 max_relations) in
  let infos =
    List.init k (fun i ->
        if i = k - 1 && vectors <> [] && Prng.int rng 3 = 0 then
          Prng.pick rng (Array.of_list vectors)
        else Prng.pick rng matrices)
  in
  let rels = List.mapi (fun i info -> { alias = alias i; info }) infos in
  let joins =
    List.init (k - 1) (fun i ->
        let a = List.nth rels i and b = List.nth rels (i + 1) in
        join_pred a (key2 a.info) b (key1 b.info))
  in
  (rels, joins)

let star_rels rng profile max_relations =
  let centers = require "multi-key" (tables_where profile (fun t -> List.length (keys t) >= 2)) in
  let center_info = Prng.pick rng centers in
  let center = { alias = alias 0; info = center_info } in
  let ckeys = Array.of_list (keys center_info) in
  Prng.shuffle rng ckeys;
  let nsat = Prng.int_in rng 1 (min (Array.length ckeys) (max 1 (max_relations - 1))) in
  let sats = ref [] and joins = ref [] in
  for i = 0 to nsat - 1 do
    let ck = ckeys.(i) in
    let partners =
      tables_where profile (fun t -> List.exists (fun k -> k.ci_dtype = ck.ci_dtype) (keys t))
    in
    match partners with
    | [] -> ()
    | _ ->
        let pinfo = Prng.pick rng (Array.of_list partners) in
        let pk =
          Prng.pick rng
            (Array.of_list (List.filter (fun k -> k.ci_dtype = ck.ci_dtype) (keys pinfo)))
        in
        let sat = { alias = alias (i + 1); info = pinfo } in
        sats := sat :: !sats;
        joins := join_pred center ck sat pk :: !joins
  done;
  (center :: List.rev !sats, List.rev !joins)

let cycle_rels rng profile max_relations =
  let matrices = require "matrix (two int keys)" (tables_where profile is_matrix) in
  let k = if max_relations >= 4 && Prng.bool rng then 4 else 3 in
  let rels = List.init k (fun i -> { alias = alias i; info = Prng.pick rng matrices }) in
  let joins =
    List.init k (fun i ->
        let a = List.nth rels i and b = List.nth rels ((i + 1) mod k) in
        join_pred a (key2 a.info) b (key1 b.info))
  in
  (rels, joins)

(* matvec / matmul in the §III-D shape; the pure dense arms BLAS-match. *)
let la_query rng profile =
  let matrices = require "matrix (two int keys)" (tables_where profile is_matrix) in
  let dense_m = tables_where profile (fun t -> is_matrix t && is_dense t) in
  let vectors = tables_where profile is_vector in
  let dense_v = tables_where profile (fun t -> is_vector t && is_dense t) in
  let pick_m dense =
    if dense && dense_m <> [] then Prng.pick rng (Array.of_list dense_m)
    else Prng.pick rng matrices
  in
  let dense = Prng.bool rng in
  let matmul = vectors = [] || Prng.bool rng in
  let m1 = { alias = alias 0; info = pick_m dense } in
  let m2 =
    if matmul then { alias = alias 1; info = pick_m dense }
    else
      {
        alias = alias 1;
        info =
          (if dense && dense_v <> [] then Prng.pick rng (Array.of_list dense_v)
           else Prng.pick rng (Array.of_list vectors));
      }
  in
  let joins = [ join_pred m1 (key2 m1.info) m2 (key1 m2.info) ] in
  let rels = [ m1; m2 ] in
  let pure = Prng.int rng 4 < 3 in
  if pure then begin
    (* the canonical product: GROUP BY outer keys, one SUM of products *)
    let gb =
      if matmul then [ cref m1 (key1 m1.info); cref m2 (key2 m2.info) ]
      else [ cref m1 (key1 m1.info) ]
    in
    let v r = cref r (List.hd (numeric_anns r.info)) in
    let q =
      {
        Ast.select =
          List.mapi (fun i e -> Ast.Plain (e, Printf.sprintf "g%d" i)) gb
          @ [ Ast.Aggregate (Ast.Sum, Some (Ast.Mul (v m1, v m2)), "a0") ];
        from = List.map (fun r -> (r.info.ti_name, r.alias)) rels;
        where = Some (List.hd joins);
        group_by = gb;
      }
    in
    `Done q
  end
  else `Generic (rels, joins)

(* ------------------------------------------------------------------ *)

let assemble rng ~semiring rels joins =
  let gb = group_by_exprs rng rels in
  let plains = List.mapi (fun i e -> Ast.Plain (e, Printf.sprintf "g%d" i)) gb in
  (* occasionally group by more than is selected *)
  let plains =
    match plains with
    | _ :: tl when Prng.int rng 10 = 0 -> tl
    | l -> l
  in
  let naggs = Prng.int_in rng 1 3 in
  let aggs = List.init naggs (fun i -> aggregate rng ~semiring rels i) in
  let filters =
    List.concat_map
      (fun r -> if Prng.int rng 100 < 45 then [ filter_pred rng r ] else [])
      rels
  in
  let where =
    match joins @ filters with
    | [] -> None
    | p :: ps -> Some (List.fold_left (fun acc q -> Ast.And (acc, q)) p ps)
  in
  {
    Ast.select = plains @ aggs;
    from = List.map (fun r -> (r.info.ti_name, r.alias)) rels;
    where;
    group_by = gb;
  }

let generate profile ~seed ~index spec =
  let rng = Prng.create (seed + (index * 1_000_003)) in
  let shapes = if spec.shapes = [] then all_shapes else spec.shapes in
  let shape = Prng.pick rng (Array.of_list shapes) in
  let semiring = spec.semiring in
  let q =
    match shape with
    | Scan ->
        let t = Prng.pick rng profile in
        assemble rng ~semiring [ { alias = alias 0; info = t } ] []
    | Chain ->
        let rels, joins = chain_rels rng profile spec.max_relations in
        assemble rng ~semiring rels joins
    | Star ->
        let rels, joins = star_rels rng profile spec.max_relations in
        assemble rng ~semiring rels joins
    | Cycle ->
        let rels, joins = cycle_rels rng profile spec.max_relations in
        assemble rng ~semiring rels joins
    | La -> (
        match la_query rng profile with
        | `Done q -> q
        | `Generic (rels, joins) -> assemble rng ~semiring rels joins)
  in
  (q, shape)

(* ------------------------------------------------------------------ *)

let vocabulary profile =
  let keywords =
    [
      "select"; "from"; "where"; "group"; "by"; "and"; "or"; "not"; "sum"; "count"; "avg";
      "min"; "max"; "min_plus"; "reaches"; "agg"; "("; ")"; ","; "."; "*"; "+"; "-"; "/";
      "="; "<"; ">"; "<="; ">="; "<>"; "as"; "between"; "like"; "case"; "when"; "then";
      "else"; "end"; "date"; "interval"; "extract"; "year"; "0"; "1"; "2"; "0.25";
      "'1994-01-01'"; "'%a%'"; "'min_plus'"; "'bool_or_and'";
    ]
  in
  let names =
    Array.to_list profile
    |> List.concat_map (fun t ->
           t.ti_name
           :: List.concat_map
                (fun (c : col_info) ->
                  c.ci_name
                  :: (Array.to_list c.ci_strings |> List.map (fun s -> "'" ^ s ^ "'")))
                (Array.to_list t.ti_cols))
  in
  Array.of_list (keywords @ List.sort_uniq String.compare names)
