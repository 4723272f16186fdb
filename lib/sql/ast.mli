(** Abstract syntax for the SQL 2008 subset LevelHeaded accepts (§III):
    single-block SELECT / FROM / WHERE / GROUP BY aggregate-join queries.
    ORDER BY is intentionally absent (the paper's TPC-H runs drop it). *)

type col_ref = { relation : string option; column : string }

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Col of col_ref
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Date_lit of int  (** days since epoch; see {!Lh_storage.Date} *)
  | Interval_day of int  (** [INTERVAL 'n' DAY]; folded away before planning *)
  | Param of int
      (** positional parameter [$n] (1-based; [?] is numbered by the
          parser); bound to a literal before execution *)
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Case_when of pred * expr * expr  (** [CASE WHEN p THEN a ELSE b END] *)
  | Extract_year of expr

and pred =
  | Cmp of cmp * expr * expr
  | Between of expr * expr * expr  (** [e BETWEEN lo AND hi], inclusive *)
  | Like of expr * string  (** pattern with [%] and [_] wildcards *)
  | Not_like of expr * string
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type agg =
  | Sum
  | Count
  | Avg
  | Min
  | Max
  | Min_plus  (** [MIN_PLUS(e)]: min over matches of [e] in the (min,+) semiring *)
  | Reaches  (** [REACHES(e)]: 1 iff some match has [e <> 0]; (∨,∧) semiring *)
  | Fold of string
      (** [agg('name', e)]: fold [e] in the named registered semiring
          (see {!Levelheaded.Semiring}); resolved at planning time *)

type select_item =
  | Aggregate of agg * expr option * string
      (** [None] expr means COUNT star; the string is the output alias *)
  | Plain of expr * string  (** non-aggregated output (must be grouped) *)

type query = {
  select : select_item list;
  from : (string * string) list;  (** (table name, binding alias) *)
  where : pred option;
  group_by : expr list;  (** columns or EXTRACT(YEAR FROM column) *)
}

val pp_expr : Format.formatter -> expr -> unit
(** Distinct literals print distinctly: the text keys caches. *)

val pp_pred : Format.formatter -> pred -> unit
val pp_query : Format.formatter -> query -> unit

val fold_intervals : expr -> expr
(** Constant-folds date ± interval arithmetic ([Date_lit] ±
    [Interval_day]) into plain [Date_lit]s; raises [Failure] when an
    interval survives in a non-date position. *)

val expr_columns : expr -> col_ref list
val pred_columns : pred -> col_ref list

val expr_params : expr -> int list
val pred_params : pred -> int list

val query_params : query -> int list
(** The distinct parameter indices appearing anywhere in the query,
    sorted ascending. *)

val max_param : query -> int
(** Highest parameter index used; [0] for a parameter-free query. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE semantics: [%] matches any run, [_] any single character. *)
