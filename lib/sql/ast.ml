type col_ref = { relation : string option; column : string }

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Col of col_ref
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Date_lit of int
  | Interval_day of int
  | Param of int
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Case_when of pred * expr * expr
  | Extract_year of expr

and pred =
  | Cmp of cmp * expr * expr
  | Between of expr * expr * expr
  | Like of expr * string
  | Not_like of expr * string
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type agg = Sum | Count | Avg | Min | Max | Min_plus | Reaches | Fold of string

type select_item =
  | Aggregate of agg * expr option * string
  | Plain of expr * string

type query = {
  select : select_item list;
  from : (string * string) list;
  where : pred option;
  group_by : expr list;
}

let cmp_to_string = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let pp_col fmt { relation; column } =
  match relation with
  | Some r -> Format.fprintf fmt "%s.%s" r column
  | None -> Format.pp_print_string fmt column

(* The printed text keys caches, so distinct literals print distinctly:
   floats in the fewest digits that read back exactly, never like ints. *)
let float_text f =
  let exact s = Float.equal (float_of_string s) f in
  let s = List.find exact [ Printf.sprintf "%.15g" f; Printf.sprintf "%.17g" f ] in
  if String.exists (fun c -> not (c = '-' || (c >= '0' && c <= '9'))) s then s else s ^ ".0"

let quoted s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let rec pp_expr fmt = function
  | Col c -> pp_col fmt c
  | Int_lit i -> Format.pp_print_int fmt i
  | Float_lit f -> Format.pp_print_string fmt (float_text f)
  | String_lit s -> Format.pp_print_string fmt (quoted s)
  | Date_lit d -> Format.fprintf fmt "date '%s'" (Lh_storage.Date.to_string d)
  | Interval_day n -> Format.fprintf fmt "interval '%d' day" n
  | Param i -> Format.fprintf fmt "$%d" i
  | Neg e -> Format.fprintf fmt "(-%a)" pp_expr e
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_expr a pp_expr b
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp_expr a pp_expr b
  | Div (a, b) -> Format.fprintf fmt "(%a / %a)" pp_expr a pp_expr b
  | Case_when (p, a, b) ->
      Format.fprintf fmt "case when %a then %a else %a end" pp_pred p pp_expr a pp_expr b
  | Extract_year e -> Format.fprintf fmt "extract(year from %a)" pp_expr e

and pp_pred fmt = function
  | Cmp (op, a, b) -> Format.fprintf fmt "%a %s %a" pp_expr a (cmp_to_string op) pp_expr b
  | Between (e, lo, hi) ->
      Format.fprintf fmt "%a between %a and %a" pp_expr e pp_expr lo pp_expr hi
  | Like (e, p) -> Format.fprintf fmt "%a like %s" pp_expr e (quoted p)
  | Not_like (e, p) -> Format.fprintf fmt "%a not like %s" pp_expr e (quoted p)
  | And (a, b) -> Format.fprintf fmt "(%a and %a)" pp_pred a pp_pred b
  | Or (a, b) -> Format.fprintf fmt "(%a or %a)" pp_pred a pp_pred b
  | Not p -> Format.fprintf fmt "not (%a)" pp_pred p

let agg_to_string = function
  | Sum -> "sum" | Count -> "count" | Avg -> "avg" | Min -> "min" | Max -> "max"
  | Min_plus -> "min_plus" | Reaches -> "reaches"
  (* Fold prints as the generic registry-dispatch form; see pp_query. *)
  | Fold name -> Printf.sprintf "agg('%s', …)" name

let pp_agg_call fmt a arg =
  match (a, arg) with
  | Fold name, Some e -> Format.fprintf fmt "agg('%s', %a)" name pp_expr e
  | Fold name, None -> Format.fprintf fmt "agg('%s', *)" name
  | _, Some e -> Format.fprintf fmt "%s(%a)" (agg_to_string a) pp_expr e
  | _, None -> Format.fprintf fmt "%s(*)" (agg_to_string a)

let pp_query fmt q =
  Format.fprintf fmt "select ";
  List.iteri
    (fun i item ->
      if i > 0 then Format.fprintf fmt ", ";
      match item with
      | Aggregate (a, arg, alias) ->
          Format.fprintf fmt "%a as %s" (fun fmt () -> pp_agg_call fmt a arg) () alias
      | Plain (e, alias) -> Format.fprintf fmt "%a as %s" pp_expr e alias)
    q.select;
  Format.fprintf fmt " from ";
  List.iteri
    (fun i (t, a) ->
      if i > 0 then Format.fprintf fmt ", ";
      if String.equal t a then Format.pp_print_string fmt t
      else Format.fprintf fmt "%s as %s" t a)
    q.from;
  (match q.where with None -> () | Some p -> Format.fprintf fmt " where %a" pp_pred p);
  match q.group_by with
  | [] -> ()
  | cols ->
      Format.fprintf fmt " group by ";
      List.iteri
        (fun i c ->
          if i > 0 then Format.fprintf fmt ", ";
          pp_expr fmt c)
        cols

(* Normalize to either a pure interval (day count) or an interval-free
   expression, folding date ± interval as we go. *)
let rec norm_intervals e =
  match e with
  | Interval_day n -> `I n
  | Add (a, b) -> (
      match (norm_intervals a, norm_intervals b) with
      | `E (Date_lit d), `I n | `I n, `E (Date_lit d) -> `E (Date_lit (d + n))
      | `I m, `I n -> `I (m + n)
      | `E x, `E y -> `E (Add (x, y))
      | _ -> failwith "Ast.fold_intervals: interval added to a non-date")
  | Sub (a, b) -> (
      match (norm_intervals a, norm_intervals b) with
      | `E (Date_lit d), `I n -> `E (Date_lit (d - n))
      | `I m, `I n -> `I (m - n)
      | `E x, `E y -> `E (Sub (x, y))
      | _ -> failwith "Ast.fold_intervals: interval subtracted from a non-date")
  | Col _ | Int_lit _ | Float_lit _ | String_lit _ | Date_lit _ | Param _ -> `E e
  | Neg a -> `E (Neg (strict a))
  | Mul (a, b) -> `E (Mul (strict a, strict b))
  | Div (a, b) -> `E (Div (strict a, strict b))
  | Case_when (p, a, b) -> `E (Case_when (p, strict a, strict b))
  | Extract_year a -> `E (Extract_year (strict a))

and strict e =
  match norm_intervals e with
  | `E x -> x
  | `I _ -> failwith "Ast.fold_intervals: interval outside date arithmetic"

let fold_intervals = strict

let rec expr_columns = function
  | Col c -> [ c ]
  | Int_lit _ | Float_lit _ | String_lit _ | Date_lit _ | Interval_day _ | Param _ -> []
  | Neg e | Extract_year e -> expr_columns e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> expr_columns a @ expr_columns b
  | Case_when (p, a, b) -> pred_columns p @ expr_columns a @ expr_columns b

and pred_columns = function
  | Cmp (_, a, b) -> expr_columns a @ expr_columns b
  | Between (e, lo, hi) -> expr_columns e @ expr_columns lo @ expr_columns hi
  | Like (e, _) | Not_like (e, _) -> expr_columns e
  | And (a, b) | Or (a, b) -> pred_columns a @ pred_columns b
  | Not p -> pred_columns p

let rec expr_params = function
  | Param i -> [ i ]
  | Col _ | Int_lit _ | Float_lit _ | String_lit _ | Date_lit _ | Interval_day _ -> []
  | Neg e | Extract_year e -> expr_params e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> expr_params a @ expr_params b
  | Case_when (p, a, b) -> pred_params p @ expr_params a @ expr_params b

and pred_params = function
  | Cmp (_, a, b) -> expr_params a @ expr_params b
  | Between (e, lo, hi) -> expr_params e @ expr_params lo @ expr_params hi
  | Like (e, _) | Not_like (e, _) -> expr_params e
  | And (a, b) | Or (a, b) -> pred_params a @ pred_params b
  | Not p -> pred_params p

let query_params q =
  let items =
    List.concat_map
      (function Aggregate (_, Some e, _) | Plain (e, _) -> expr_params e | Aggregate (_, None, _) -> [])
      q.select
  in
  let where = match q.where with Some p -> pred_params p | None -> [] in
  let gb = List.concat_map expr_params q.group_by in
  List.sort_uniq compare (items @ where @ gb)

let max_param q = List.fold_left max 0 (query_params q)

let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* Classic two-pointer LIKE matcher with backtracking on the last '%'. *)
  let rec go pi si star_pi star_si =
    if si >= ns then begin
      let rec only_percent pi = pi >= np || (pattern.[pi] = '%' && only_percent (pi + 1)) in
      only_percent pi
    end
    else if pi < np && pattern.[pi] = '%' then go (pi + 1) si (pi + 1) si
    else if pi < np && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
      go (pi + 1) (si + 1) star_pi star_si
    else if star_pi >= 0 then go star_pi (star_si + 1) star_pi (star_si + 1)
    else false
  in
  go 0 0 (-1) (-1)
