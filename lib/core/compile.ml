open Lh_sql
module T = Lh_storage.Table
module Dtype = Lh_storage.Dtype
module Schema = Lh_storage.Schema

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let col_dtype tbl i = (Schema.col tbl.T.schema i).Schema.dtype

let rec const_value = function
  | Ast.Int_lit n -> Some (Dtype.VInt n)
  | Ast.Float_lit f -> Some (Dtype.VFloat f)
  | Ast.String_lit s -> Some (Dtype.VString s)
  | Ast.Date_lit d -> Some (Dtype.VDate d)
  | Ast.Neg e -> (
      match const_value e with
      | Some (Dtype.VInt n) -> Some (Dtype.VInt (-n))
      | Some (Dtype.VFloat f) -> Some (Dtype.VFloat (-.f))
      | _ -> None)
  | Ast.Add (a, b) -> const_arith ( + ) ( +. ) a b
  | Ast.Sub (a, b) -> const_arith ( - ) ( -. ) a b
  | Ast.Mul (a, b) -> const_arith ( * ) ( *. ) a b
  | Ast.Div (a, b) -> (
      match (const_value a, const_value b) with
      | Some x, Some y -> Some (Dtype.VFloat (Dtype.numeric x /. Dtype.numeric y))
      | _ -> None)
  | Ast.Col _ | Ast.Case_when _ | Ast.Extract_year _ | Ast.Interval_day _ | Ast.Param _ -> None

and const_arith iop fop a b =
  match (const_value a, const_value b) with
  | Some (Dtype.VInt x), Some (Dtype.VInt y) -> Some (Dtype.VInt (iop x y))
  | Some x, Some y -> (
      match (x, y) with
      | (Dtype.VString _, _ | _, Dtype.VString _) -> None
      | _ -> Some (Dtype.VFloat (fop (Dtype.numeric x) (Dtype.numeric y))))
  | _ -> None

(* A per-row float reader for one column, dispatching on representation
   once at compile time. *)
let numeric_col tbl i =
  match (tbl.T.cols.(i), col_dtype tbl i) with
  | T.Fcol a, _ -> fun r -> Array.unsafe_get a r
  | T.Icol _, Dtype.String ->
      unsupported "string column %s in numeric position" (Schema.col tbl.T.schema i).Schema.name
  | T.Icol a, _ -> fun r -> float_of_int (Array.unsafe_get a r)

let rec scalar tbl ~resolve e =
  match e with
  | Ast.Col c -> numeric_col tbl (resolve c)
  | Ast.Int_lit n ->
      let v = float_of_int n in
      fun _ -> v
  | Ast.Float_lit v -> fun _ -> v
  | Ast.Date_lit d ->
      let v = float_of_int d in
      fun _ -> v
  | Ast.String_lit s -> unsupported "string literal %S in numeric position" s
  | Ast.Interval_day _ -> unsupported "unfolded interval literal"
  | Ast.Param i -> unsupported "unbound parameter $%d" i
  | Ast.Neg a ->
      let fa = scalar tbl ~resolve a in
      fun r -> -.fa r
  | Ast.Add (a, b) ->
      let fa = scalar tbl ~resolve a and fb = scalar tbl ~resolve b in
      fun r -> fa r +. fb r
  | Ast.Sub (a, b) ->
      let fa = scalar tbl ~resolve a and fb = scalar tbl ~resolve b in
      fun r -> fa r -. fb r
  | Ast.Mul (a, b) ->
      let fa = scalar tbl ~resolve a and fb = scalar tbl ~resolve b in
      fun r -> fa r *. fb r
  | Ast.Div (a, b) ->
      let fa = scalar tbl ~resolve a and fb = scalar tbl ~resolve b in
      fun r -> fa r /. fb r
  | Ast.Case_when (p, a, b) ->
      let fp = pred tbl ~resolve p in
      let fa = scalar tbl ~resolve a and fb = scalar tbl ~resolve b in
      fun r -> if fp r then fa r else fb r
  | Ast.Extract_year a -> (
      match a with
      | Ast.Col c ->
          let i = resolve c in
          if col_dtype tbl i <> Dtype.Date then unsupported "EXTRACT(YEAR) from non-date column";
          let codes = T.icol tbl i in
          fun r -> float_of_int (Lh_storage.Date.year (Array.unsafe_get codes r))
      | Ast.Date_lit d ->
          let v = float_of_int (Lh_storage.Date.year d) in
          fun _ -> v
      | _ -> unsupported "EXTRACT(YEAR) from a computed expression")

(* Predicates.  String comparison is only defined for equality and LIKE
   because the shared dictionary is not order-preserving. *)
and pred tbl ~resolve p =
  match p with
  | Ast.And (a, b) ->
      let fa = pred tbl ~resolve a and fb = pred tbl ~resolve b in
      fun r -> fa r && fb r
  | Ast.Or (a, b) ->
      let fa = pred tbl ~resolve a and fb = pred tbl ~resolve b in
      fun r -> fa r || fb r
  | Ast.Not a ->
      let fa = pred tbl ~resolve a in
      fun r -> not (fa r)
  | Ast.Between (e, lo, hi) ->
      let fe = scalar tbl ~resolve e
      and flo = scalar tbl ~resolve lo
      and fhi = scalar tbl ~resolve hi in
      fun r ->
        let v = fe r in
        flo r <= v && v <= fhi r
  | Ast.Like (e, pat) ->
      let get = string_getter tbl ~resolve e in
      fun r -> Ast.like_match ~pattern:pat (get r)
  | Ast.Not_like (e, pat) ->
      let get = string_getter tbl ~resolve e in
      fun r -> not (Ast.like_match ~pattern:pat (get r))
  | Ast.Cmp (op, a, b) ->
      if is_stringy tbl ~resolve a || is_stringy tbl ~resolve b then compile_string_cmp tbl ~resolve op a b
      else
        let fa = scalar tbl ~resolve a and fb = scalar tbl ~resolve b in
        let test =
          match op with
          | Ast.Eq -> ( = )
          | Ast.Ne -> ( <> )
          | Ast.Lt -> ( < )
          | Ast.Le -> ( <= )
          | Ast.Gt -> ( > )
          | Ast.Ge -> ( >= )
        in
        fun r -> test (fa r) (fb r)

and is_stringy tbl ~resolve = function
  | Ast.String_lit _ -> true
  | Ast.Col c -> col_dtype tbl (resolve c) = Dtype.String
  | _ -> false

and string_getter tbl ~resolve = function
  | Ast.Col c ->
      let i = resolve c in
      if col_dtype tbl i <> Dtype.String then unsupported "LIKE on a non-string column";
      let codes = T.icol tbl i in
      let dict = tbl.T.dict in
      fun r -> Lh_storage.Dict.decode dict codes.(r)
  | _ -> unsupported "LIKE on a computed expression"

and compile_string_cmp tbl ~resolve op a b =
  let eq =
    match op with
    | Ast.Eq -> true
    | Ast.Ne -> false
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
        unsupported "order comparison on strings (dictionary codes are not ordered)"
  in
  match (a, b) with
  | Ast.Col ca, Ast.Col cb ->
      let ia = resolve ca and ib = resolve cb in
      if col_dtype tbl ia <> Dtype.String || col_dtype tbl ib <> Dtype.String then
        unsupported "mixed string/non-string comparison";
      let xa = T.icol tbl ia and xb = T.icol tbl ib in
      fun r -> eq = (xa.(r) = xb.(r))
  | Ast.Col c, Ast.String_lit s | Ast.String_lit s, Ast.Col c -> (
      let i = resolve c in
      if col_dtype tbl i <> Dtype.String then unsupported "string literal compared to non-string column";
      let codes = T.icol tbl i in
      match Lh_storage.Dict.find tbl.T.dict s with
      | None -> fun _ -> not eq
      | Some code -> fun r -> eq = (codes.(r) = code))
  | Ast.String_lit s1, Ast.String_lit s2 ->
      let v = eq = String.equal s1 s2 in
      fun _ -> v
  | _ -> unsupported "string comparison on computed expressions"

let code tbl ~resolve e =
  match e with
  | Ast.Col c -> (
      let i = resolve c in
      match tbl.T.cols.(i) with
      | T.Icol a -> fun r -> Array.unsafe_get a r
      | T.Fcol _ -> unsupported "GROUP BY on a float column")
  | Ast.Extract_year (Ast.Col c) ->
      let i = resolve c in
      if col_dtype tbl i <> Dtype.Date then unsupported "EXTRACT(YEAR) from non-date column";
      let codes = T.icol tbl i in
      fun r -> Lh_storage.Date.year codes.(r)
  | _ -> unsupported "GROUP BY expression must be a column or EXTRACT(YEAR FROM column)"

let code_dtype tbl ~resolve = function
  | Ast.Col c -> col_dtype tbl (resolve c)
  | Ast.Extract_year _ -> Dtype.Int
  | _ -> unsupported "GROUP BY expression must be a column or EXTRACT(YEAR FROM column)"

(* ---------------- WCOJ leaf disposition ----------------

   The executor asks this once per bag execution, from the bound tries'
   statistics (bind-time filters rebuild tries under the same plan, so
   the answer is never cached). A pure decision over plan/trie facts, so
   it can be unit-tested without an engine. *)

module Leaf = struct
  type mode =
    | Count
        (** the innermost position only contributes a factor n (the
            intersection cardinality): never materialize nor iterate it *)
    | Stream
        (** stream innermost matches, with their ranks, through
            [Intersect.foreach_inter_ranked] straight into leaf
            aggregation *)

  let mode_to_string = function Count -> "count" | Stream -> "stream"

  (* Count-only leaves are sound exactly when
     - every relation whose trie ends at the innermost position has unit
       leaf groups (no owned aggregate slots, no annotation codes, no
       duplicate-key multiplicity), so each of the n matches contributes
       the same combo vector;
     - every live slot's semiring can absorb that repetition: ⊕-folding n
       copies of a value must have a closed form — [Semiring.Scale f]
       slots scale by [f v n] ((+,×): v ×. n), [Idem] slots ((min,×),
       (min,+), (∨,∧)) are unaffected. An [Opaque] cardinality law has no
       closed form, so the leaf must stream ([scalable] = false);
     - the emitted group key never reads the innermost position: with a
       sorted-prefix boundary that means the boundary wraps strictly above
       it, and on the hash path no GROUP BY source may be the innermost
       position (relations with unit groups carry no annotation codes, so
       code sources cannot reach it);
     - the relaxed-tail sparse accumulator is off (it indexes output by the
       innermost value). *)
  let mode ~leaf_unit ~scalable ~relaxed_tail ~boundary ~group_uses_last ~npos =
    if
      npos >= 1 && leaf_unit && scalable && (not relaxed_tail) && (not group_uses_last)
      && (match boundary with Some m -> m <= npos - 1 | None -> true)
    then Count
    else Stream
end
