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

(* ---------------- Batch kernels (see the interface) ---------------- *)

let chunk = 1024

(* Keeps the [sel.(p)] for which [test p] holds. *)
let compact sel n test =
  let k = ref 0 in
  for p = 0 to n - 1 do
    if test p then begin
      sel.(!k) <- sel.(p);
      incr k
    end
  done;
  !k

(* The rows of [sel] that [f], run on a copy of it, drops. *)
let complement f =
  let t = Array.make chunk 0 in
  fun sel n ->
    Array.blit sel 0 t 0 n;
    let m = f t n and j = ref 0 in
    compact sel n (fun p ->
        let kept = !j < m && t.(!j) = sel.(p) in
        if kept then incr j;
        not kept)

(* The int codes of a column of type [dtype]. *)
let codes_of tbl ~resolve c dtype what =
  let i = resolve c in
  if col_dtype tbl i <> dtype then unsupported "%s" what;
  T.icol tbl i

let rec scalar tbl ~resolve e (out : float array) =
  let const v _ n = Array.fill out 0 n v in
  (* [a] evaluates into [out] and [b] into a buffer of its own; [f]
     combines them. *)
  let binary a b f =
    let fa = scalar tbl ~resolve a out and y = Array.create_float chunk in
    let fb = scalar tbl ~resolve b y in
    fun sel n ->
      fa sel n;
      fb sel n;
      f sel y n
  in
  match e with
  | Ast.Col c -> (
      let i = resolve c in
      match (tbl.T.cols.(i), col_dtype tbl i) with
      | T.Fcol a, _ ->
          fun sel n ->
            for p = 0 to n - 1 do
              out.(p) <- Array.unsafe_get a sel.(p)
            done
      | T.Icol _, Dtype.String ->
          unsupported "string column %s in numeric position" (Schema.col tbl.T.schema i).Schema.name
      | T.Icol a, _ ->
          fun sel n ->
            for p = 0 to n - 1 do
              out.(p) <- float_of_int (Array.unsafe_get a sel.(p))
            done)
  | Ast.Int_lit n | Ast.Date_lit n -> const (float_of_int n)
  | Ast.Float_lit v -> const v
  | Ast.String_lit s -> unsupported "string literal %S in numeric position" s
  | Ast.Interval_day _ -> unsupported "unfolded interval literal"
  | Ast.Param i -> unsupported "unbound parameter $%d" i
  | Ast.Neg a ->
      let fa = scalar tbl ~resolve a out in
      fun sel n ->
        fa sel n;
        for p = 0 to n - 1 do
          out.(p) <- -.out.(p)
        done
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) | Ast.Div (a, b) ->
      binary a b (fun _ y n ->
          for p = 0 to n - 1 do
            let u = out.(p) and v = y.(p) in
            out.(p) <-
              (match e with
              | Ast.Add _ -> u +. v
              | Ast.Sub _ -> u -. v
              | Ast.Mul _ -> u *. v
              | _ -> u /. v)
          done)
  | Ast.Case_when (c, a, b) ->
      (* Both branches are pure, so both run over every row; the rows the
         condition drops take the ELSE value. *)
      let fc = filter tbl ~resolve c and t = Array.make chunk 0 in
      binary a b (fun sel y n ->
          Array.blit sel 0 t 0 n;
          let m = fc t n and j = ref 0 in
          for p = 0 to n - 1 do
            if !j < m && t.(!j) = sel.(p) then incr j else out.(p) <- y.(p)
          done)
  | Ast.Extract_year (Ast.Col c) ->
      let codes = codes_of tbl ~resolve c Dtype.Date "EXTRACT(YEAR) from non-date column" in
      fun sel n ->
        for p = 0 to n - 1 do
          out.(p) <- float_of_int (Lh_storage.Date.year (Array.unsafe_get codes sel.(p)))
        done
  | Ast.Extract_year (Ast.Date_lit d) -> const (float_of_int (Lh_storage.Date.year d))
  | Ast.Extract_year _ -> unsupported "EXTRACT(YEAR) from a computed expression"

(* Filters. String comparison is only defined for equality and LIKE
   because the shared dictionary is not order-preserving. *)
and filter tbl ~resolve p =
  let rows test sel n = compact sel n (fun p -> test sel.(p)) in
  let string_col c what = codes_of tbl ~resolve c Dtype.String what in
  let stringy = function
    | Ast.String_lit _ -> true
    | Ast.Col c -> col_dtype tbl (resolve c) = Dtype.String
    | _ -> false
  in
  match p with
  | Ast.And (a, b) ->
      let fa = filter tbl ~resolve a and fb = filter tbl ~resolve b in
      fun sel n -> fb sel (fa sel n)
  | Ast.Or (a, b) -> filter tbl ~resolve (Ast.Not (Ast.And (Ast.Not a, Ast.Not b)))
  | Ast.Not a -> complement (filter tbl ~resolve a)
  | Ast.Between (e, lo, hi) ->
      filter tbl ~resolve (Ast.And (Ast.Cmp (Ast.Le, lo, e), Ast.Cmp (Ast.Le, e, hi)))
  | Ast.Like (Ast.Col c, pattern) | Ast.Not_like (Ast.Col c, pattern) ->
      (* Decided once per distinct code the rows carry. *)
      let codes = string_col c "LIKE on a non-string column" and memo = Hashtbl.create 64 in
      let want = match p with Ast.Like _ -> true | _ -> false in
      rows (fun r ->
          let c = Array.unsafe_get codes r in
          match Hashtbl.find memo c with
          | hit -> hit = want
          | exception Not_found ->
              let hit = Ast.like_match ~pattern (Lh_storage.Dict.decode tbl.T.dict c) in
              Hashtbl.replace memo c hit;
              hit = want)
  | Ast.Like _ | Ast.Not_like _ -> unsupported "LIKE on a computed expression"
  | Ast.Cmp (op, a, b) when stringy a || stringy b -> (
      if op <> Ast.Eq && op <> Ast.Ne then
        unsupported "order comparison on strings (dictionary codes are not ordered)";
      let eq = op = Ast.Eq in
      match (a, b) with
      | Ast.Col ca, Ast.Col cb ->
          let what = "mixed string/non-string comparison" in
          let xa = string_col ca what and xb = string_col cb what in
          rows (fun r -> xa.(r) = xb.(r) = eq)
      | Ast.Col c, Ast.String_lit s | Ast.String_lit s, Ast.Col c -> (
          let codes = string_col c "string literal compared to non-string column" in
          match Lh_storage.Dict.find tbl.T.dict s with
          | None -> rows (fun _ -> not eq)
          | Some code -> rows (fun r -> codes.(r) = code = eq))
      | Ast.String_lit s1, Ast.String_lit s2 -> rows (fun _ -> String.equal s1 s2 = eq)
      | _ -> unsupported "string comparison on computed expressions")
  | Ast.Cmp (op, a, b) ->
      let x = Array.create_float chunk and y = Array.create_float chunk in
      let fa = scalar tbl ~resolve a x and fb = scalar tbl ~resolve b y in
      fun sel n ->
        fa sel n;
        fb sel n;
        (* [compact] inlined: a test closure per row costs a third more. *)
        let k = ref 0 in
        for p = 0 to n - 1 do
          let u = x.(p) and v = y.(p) in
          if
            match op with
            | Ast.Eq -> u = v
            | Ast.Ne -> u <> v
            | Ast.Lt -> u < v
            | Ast.Le -> u <= v
            | Ast.Gt -> u > v
            | Ast.Ge -> u >= v
          then begin
            sel.(!k) <- sel.(p);
            incr k
          end
        done;
        !k

let code tbl ~resolve e (out : int array) =
  let gather codes ~year sel n =
    for p = 0 to n - 1 do
      let c = Array.unsafe_get codes sel.(p) in
      out.(p) <- (if year then Lh_storage.Date.year c else c)
    done
  in
  match e with
  | Ast.Col c -> (
      match tbl.T.cols.(resolve c) with
      | T.Icol a -> gather a ~year:false
      | T.Fcol _ -> unsupported "GROUP BY on a float column")
  | Ast.Extract_year (Ast.Col c) ->
      gather (codes_of tbl ~resolve c Dtype.Date "EXTRACT(YEAR) from non-date column") ~year:true
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
