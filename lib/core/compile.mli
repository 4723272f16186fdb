(** Compilation of single-relation expressions and predicates to closures
    over a table's column buffers.

    Column references are resolved by the caller-supplied [resolve]
    function (the translator knows which alias binds to which table); the
    compiled closures then read the column arrays directly, so evaluation
    per row performs no name lookups or dispatch on dtype. *)

exception Unsupported of string

val scalar :
  Lh_storage.Table.t -> resolve:(Lh_sql.Ast.col_ref -> int) -> Lh_sql.Ast.expr -> int -> float
(** Numeric evaluator (row -> float). Dates evaluate to their day code.
    Raises {!Unsupported} at compile time on string-typed subexpressions in
    numeric position. *)

val code :
  Lh_storage.Table.t -> resolve:(Lh_sql.Ast.col_ref -> int) -> Lh_sql.Ast.expr -> int -> int
(** Int-code evaluator for GROUP BY expressions: a plain int/date/string
    column yields its stored code; [EXTRACT(YEAR ...)] yields the year. *)

val code_dtype :
  Lh_storage.Table.t -> resolve:(Lh_sql.Ast.col_ref -> int) -> Lh_sql.Ast.expr -> Lh_storage.Dtype.t
(** The dtype the codes of {!code} decode as. *)

val pred :
  Lh_storage.Table.t -> resolve:(Lh_sql.Ast.col_ref -> int) -> Lh_sql.Ast.pred -> int -> bool
(** Row predicate. String columns support [=], [<>], [LIKE] and
    [NOT LIKE]; order comparisons on strings raise {!Unsupported} (the
    shared dictionary is not order-preserving). *)

val const_value : Lh_sql.Ast.expr -> Lh_storage.Dtype.value option
(** Evaluates a column-free expression to a constant, if it is one. *)

(** WCOJ leaf disposition: decides, from plan shape and trie-node
    statistics, how the executor's innermost loop treats the last
    attribute position. The executor calls {!Leaf.mode} once per bag
    execution against the bound tries (bind-time filters can change leaf
    statistics under one plan, so nothing is cached). Pure, so the tests
    drive it directly. *)
module Leaf : sig
  type mode =
    | Count
        (** the innermost position only contributes a factor n (the
            intersection cardinality): never materialize nor iterate it *)
    | Stream
        (** stream innermost matches, with their ranks, through
            [Intersect.foreach_inter_ranked] straight into leaf
            aggregation *)

  val mode_to_string : mode -> string

  val mode :
    leaf_unit:bool ->
    scalable:bool ->
    relaxed_tail:bool ->
    boundary:int option ->
    group_uses_last:bool ->
    npos:int ->
    mode
  (** [leaf_unit]: every relation whose trie ends at the innermost position
      has unit leaf groups ({!Lh_storage.Trie.t.leaf_unit});
      [scalable]: every live slot's semiring satisfies {!Semiring.scalable}
      — ⊕-folding n copies has a closed form ([Scale]) or is idempotent
      ([Idem]); an [Opaque] cardinality law makes count-only leaves
      unsound, since the factor n cannot be applied after the fold;
      [relaxed_tail]: the §V-A2 sparse-accumulator tail is active;
      [boundary]: the sorted-emit group-prefix length, when that path runs;
      [group_uses_last]: some GROUP BY source reads attribute position
      [npos - 1]. Returns [Count] when a count-only leaf is sound (and
      [npos >= 1]), else [Stream]. *)
end
