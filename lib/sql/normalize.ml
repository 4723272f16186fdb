(* AST normalization for the plan cache: hoist literals out of a query so
   that textually different queries sharing one plan shape normalize to the
   same parameterized AST, plus the inverse substitution used at bind time. *)

let literal_of_value : Lh_storage.Dtype.value -> Ast.expr = function
  | Lh_storage.Dtype.VInt i -> Ast.Int_lit i
  | Lh_storage.Dtype.VFloat f -> Ast.Float_lit f
  | Lh_storage.Dtype.VString s -> Ast.String_lit s
  | Lh_storage.Dtype.VDate d -> Ast.Date_lit d

let value_of_literal : Ast.expr -> Lh_storage.Dtype.value option = function
  | Ast.Int_lit i -> Some (Lh_storage.Dtype.VInt i)
  | Ast.Float_lit f -> Some (Lh_storage.Dtype.VFloat f)
  | Ast.String_lit s -> Some (Lh_storage.Dtype.VString s)
  | Ast.Date_lit d -> Some (Lh_storage.Dtype.VDate d)
  | _ -> None

(* --- substitution ------------------------------------------------------- *)

let rec subst_expr f e =
  match e with
  | Ast.Param i -> f i
  | Ast.Col _ | Ast.Int_lit _ | Ast.Float_lit _ | Ast.String_lit _ | Ast.Date_lit _
  | Ast.Interval_day _ ->
      e
  | Ast.Neg a -> Ast.Neg (subst_expr f a)
  | Ast.Add (a, b) -> Ast.Add (subst_expr f a, subst_expr f b)
  | Ast.Sub (a, b) -> Ast.Sub (subst_expr f a, subst_expr f b)
  | Ast.Mul (a, b) -> Ast.Mul (subst_expr f a, subst_expr f b)
  | Ast.Div (a, b) -> Ast.Div (subst_expr f a, subst_expr f b)
  | Ast.Case_when (p, a, b) -> Ast.Case_when (subst_pred f p, subst_expr f a, subst_expr f b)
  | Ast.Extract_year a -> Ast.Extract_year (subst_expr f a)

and subst_pred f p =
  match p with
  | Ast.Cmp (op, a, b) -> Ast.Cmp (op, subst_expr f a, subst_expr f b)
  | Ast.Between (e, lo, hi) -> Ast.Between (subst_expr f e, subst_expr f lo, subst_expr f hi)
  | Ast.Like (e, pat) -> Ast.Like (subst_expr f e, pat)
  | Ast.Not_like (e, pat) -> Ast.Not_like (subst_expr f e, pat)
  | Ast.And (a, b) -> Ast.And (subst_pred f a, subst_pred f b)
  | Ast.Or (a, b) -> Ast.Or (subst_pred f a, subst_pred f b)
  | Ast.Not q -> Ast.Not (subst_pred f q)

let subst_query f (q : Ast.query) =
  let item = function
    | Ast.Aggregate (a, Some e, alias) -> Ast.Aggregate (a, Some (subst_expr f e), alias)
    | Ast.Aggregate (_, None, _) as it -> it
    | Ast.Plain (e, alias) -> Ast.Plain (subst_expr f e, alias)
  in
  {
    q with
    Ast.select = List.map item q.Ast.select;
    where = Option.map (subst_pred f) q.Ast.where;
    group_by = List.map (subst_expr f) q.Ast.group_by;
  }

let substitute q (params : Lh_storage.Dtype.value list) =
  let vals = Array.of_list params in
  let n = Array.length vals in
  let lookup i =
    if i >= 1 && i <= n then literal_of_value vals.(i - 1)
    else failwith (Printf.sprintf "Normalize.substitute: no value for parameter $%d (have %d)" i n)
  in
  subst_query lookup q

(* --- literal lifting ---------------------------------------------------- *)

(* Positions where a literal's VALUE, not just its shape, decides the plan
   stay verbatim so the parameterized AST plans exactly like the original:
   the right operand of [/] (constant non-zero divisors compile away), the
   ELSE branch of CASE (the multi-relation rule needs ELSE 0), and
   EXTRACT(YEAR FROM _) subtrees (year filters fold to date ranges). *)
let lifter fresh =
  let rec expr e =
    match value_of_literal e with
    | Some v -> fresh v
    | None -> (
        match e with
        | Ast.Col _ | Ast.Param _ | Ast.Interval_day _ | Ast.Int_lit _ | Ast.Float_lit _
        | Ast.String_lit _ | Ast.Date_lit _ ->
            e
        | Ast.Neg a -> Ast.Neg (expr a)
        | Ast.Add (a, b) -> Ast.Add (expr a, expr b)
        | Ast.Sub (a, b) -> Ast.Sub (expr a, expr b)
        | Ast.Mul (a, b) -> Ast.Mul (expr a, expr b)
        | Ast.Div (a, b) -> Ast.Div (expr a, b)
        | Ast.Case_when (p, a, b) -> Ast.Case_when (pred p, expr a, b)
        | Ast.Extract_year _ -> e)
  and pred p =
    match p with
    | Ast.Cmp (op, a, b) -> Ast.Cmp (op, expr a, expr b)
    | Ast.Between (e, lo, hi) -> Ast.Between (expr e, expr lo, expr hi)
    | Ast.Like (e, pat) -> Ast.Like (expr e, pat)
    | Ast.Not_like (e, pat) -> Ast.Not_like (expr e, pat)
    | Ast.And (a, b) -> Ast.And (pred a, pred b)
    | Ast.Or (a, b) -> Ast.Or (pred a, pred b)
    | Ast.Not a -> Ast.Not (pred a)
  in
  (expr, pred)

let shape = fst (lifter (fun _ -> Ast.Param 0))

let lift_literals (q : Ast.query) =
  let next = ref (Ast.max_param q) in
  let acc = ref [] in
  let fresh v =
    incr next;
    acc := v :: !acc;
    Ast.Param !next
  in
  let expr, pred = lifter fresh in
  let item = function
    | Ast.Aggregate (a, Some e, alias) -> Ast.Aggregate (a, Some (expr e), alias)
    | Ast.Aggregate (_, None, _) as it -> it
    | Ast.Plain _ as it -> it
  in
  let q' =
    {
      q with
      Ast.select = List.map item q.Ast.select;
      where = Option.map pred q.Ast.where;
    }
  in
  (q', List.rev !acc)
