(** AST normalization for prepared statements and the plan cache.

    [lift_literals] hoists literal constants out of a query into fresh
    positional parameters so that two queries differing only in constants
    normalize to the same AST (and thus share a cached plan);
    [substitute] is its inverse, binding concrete values back in at
    execution time. *)

val literal_of_value : Lh_storage.Dtype.value -> Ast.expr
(** [VInt] → [Int_lit], [VFloat] → [Float_lit], [VString] → [String_lit],
    [VDate] → [Date_lit]. *)

val value_of_literal : Ast.expr -> Lh_storage.Dtype.value option
(** Inverse of {!literal_of_value}; [None] for non-literal expressions. *)

val subst_expr : (int -> Ast.expr) -> Ast.expr -> Ast.expr
(** Replace every [Param i] with [f i], leaving everything else intact. *)

val subst_pred : (int -> Ast.expr) -> Ast.pred -> Ast.pred

val subst_query : (int -> Ast.expr) -> Ast.query -> Ast.query

val substitute : Ast.query -> Lh_storage.Dtype.value list -> Ast.query
(** Bind parameters [$1 .. $n] to the given values (in order). Raises
    [Failure] when the query references a parameter index beyond the
    list. Extra values are ignored. *)

val lift_literals : Ast.query -> Ast.query * Lh_storage.Dtype.value list
(** Hoist literals in filter and aggregate-scalar positions into fresh
    parameters numbered from [max_param q + 1], returning the lifted
    query and the hoisted values in parameter order (so for a
    parameter-free input, [substitute] with that list round-trips).

    Literals whose concrete value (not just type) steers planning are
    deliberately left in place: divisors (right operand of [/]), CASE
    ELSE branches, EXTRACT(YEAR FROM _) subtrees, LIKE patterns, plain
    (non-aggregate) select items, and GROUP BY expressions. *)

val shape : Ast.expr -> Ast.expr
(** [e] with every literal {!lift_literals} would hoist replaced by [$0]:
    equal for two expressions that differ only in those constants. *)
