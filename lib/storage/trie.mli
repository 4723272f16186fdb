(** The trie storage of key attributes (§III-B, Fig. 3).

    Each trie level holds one key attribute; every set is stored in the
    sparse (uint) or dense (bs) layout chosen per set at build time. The
    annotation data a query needs is pre-evaluated into leaf {!group}s while
    the trie is built:

    - [vec.(j)] is the relation's contribution to physical aggregate slot
      [j], already ⊕-combined over duplicate key tuples;
    - [codes] are the relation's GROUP BY annotation codes (duplicate key
      tuples with different codes stay in separate groups, keeping GROUP BY
      on annotations exact);
    - [mult] is the total multiplicity collapsed into the group (row count
      for base tables, an aggregated float for materialized GHD-node
      results) — the factor a sum-style aggregate owned by {e another}
      relation must be scaled by.

    Building a trie only touches the key columns and annotation buffers the
    query references: this is the physical half of attribute elimination
    (§IV-A). *)

type group = { codes : int array; vec : float array; mult : float }

type node = {
  set : Lh_set.Set.t;
  children : node array;  (** one per set value, in rank order; [||] at the last level *)
  groups : group array array;  (** per set value at the last level; [||] above it *)
}

type t = {
  nlevels : int;
  root : node;
  total_tuples : int;
  level_max : int array;  (** max key value per level; -1 when the trie is empty *)
  leaf_unit : bool;
      (** Every leaf groups array is the single unit group
          [{codes = \[||\]; vec = \[||\]; mult = 1.0}] — i.e. the relation
          carries no owned aggregates, no GROUP BY annotation codes, and no
          duplicate key tuples. This is the precondition for the executor's
          count-only WCOJ leaves: n intersection matches contribute exactly
          the factor n. Vacuously true for an empty trie. *)
  level_dense : int array;  (** number of dense ("bs") sets per level *)
  level_nodes : int array;  (** total number of sets per level *)
}

val build :
  ?domains:int ->
  keys:int array array ->
  rows:int array ->
  ?group_cols:int array array ->
  ?aggs:((float -> float -> float) * float array) array ->
  ?mults:float array ->
  unit ->
  t
(** [build ~keys ~rows ()] sorts [rows] by the key tuple
    [(keys.(0).(r), keys.(1).(r), ...)] and constructs the trie.
    [group_cols.(g).(r)] supplies GROUP BY annotation codes; [aggs.(j)] is
    the ⊕ combine function (the owning slot's semiring [add]) and the
    per-row values of owned aggregate slot [j], indexed like
    [group_cols] by row id — pre-⊕-folding duplicate key tuples here is
    valid for any semiring by distributivity; [mults.(r)] is row [r]'s
    multiplicity (default 1.0, i.e. [mult] counts rows). The caller
    evaluates these columns before the build, so the build runs no
    expression code.
    At least one key level is required.

    Rows are ordered by a stable radix sort over the key codes, which must
    be non-negative (skipped when [rows] already arrive in key order), so
    rows sharing a key prefix fold into their leaf group's [vec] and [mult]
    in input-row order.

    With [domains > 1] the subtrees under distinct first-level keys are
    built in parallel on the shared {!Lh_util.Pool}. Each subtree is the
    same computation the sequential recursion performs over the same row
    segment, so the resulting trie is bit-identical for every [domains]
    value. *)

val first_level : t -> Lh_set.Set.t

val lookup : t -> int array -> node option
(** [lookup t prefix] walks [prefix] from the root: the node whose [set]
    holds the values at level [length prefix] — the [R\[t\]] operation of
    Table I. [None] when the prefix is absent. Linear in prefix length;
    used by tests and the CLI, not by the executor's inner loop. *)

val iter_tuples : t -> (int array -> group -> unit) -> unit
(** Visits every (key tuple, leaf group) pair in lexicographic order. *)

val cardinality : t -> int
(** Number of distinct key tuples (leaf set entries). *)
