(** Compilation of single-relation expressions and predicates to batch
    kernels over a table's column buffers.

    Column references are resolved by the caller-supplied [resolve]
    function (the translator knows which alias binds to which table). A
    kernel runs over a selection vector: [sel.(0..n-1)] holds distinct row
    ids of the table, with [n <= ]{!chunk}. It evaluates node by node,
    column at a time, into buffers it allocated when it was compiled, so a
    call allocates nothing per row and performs no name lookup or dtype
    dispatch. A compiled kernel serves one domain at a time. *)

exception Unsupported of string

val chunk : int
(** The largest selection a kernel takes (1024). *)

val scalar :
  Lh_storage.Table.t ->
  resolve:(Lh_sql.Ast.col_ref -> int) ->
  Lh_sql.Ast.expr ->
  float array ->
  int array ->
  int ->
  unit
(** [scalar tbl ~resolve e out] compiles numeric expression [e]; applied
    to [sel n] it sets [out.(p)] to [e]'s value at row [sel.(p)] for
    [p < n]. Dates evaluate to their day code; [CASE WHEN] evaluates both
    branches. Raises {!Unsupported} at compile time on string-typed
    subexpressions in numeric position. *)

val code :
  Lh_storage.Table.t ->
  resolve:(Lh_sql.Ast.col_ref -> int) ->
  Lh_sql.Ast.expr ->
  int array ->
  int array ->
  int ->
  unit
(** [code tbl ~resolve e out]: the int-code kernel of a GROUP BY
    expression, writing like {!scalar}. A plain int/date/string column
    yields its stored code; [EXTRACT(YEAR ...)] yields the year. *)

val code_dtype :
  Lh_storage.Table.t -> resolve:(Lh_sql.Ast.col_ref -> int) -> Lh_sql.Ast.expr -> Lh_storage.Dtype.t
(** The dtype the codes of {!code} decode as. *)

val filter :
  Lh_storage.Table.t -> resolve:(Lh_sql.Ast.col_ref -> int) -> Lh_sql.Ast.pred -> int array -> int -> int
(** [filter tbl ~resolve p] compiles predicate [p]; applied to [sel n] it
    moves the rows of [sel.(0..n-1)] that satisfy [p] to the front of
    [sel], in order, and returns how many there are. String columns
    support [=] and [<>] (on dictionary codes; a literal absent from the
    dictionary matches no row), [LIKE] and [NOT LIKE] (decided once per
    distinct code); order comparisons on strings raise {!Unsupported}
    (the shared dictionary is not order-preserving). *)

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
