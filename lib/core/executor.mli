(** Physical planning and execution of GHD query plans.

    Physical planning walks the chosen GHD top-down, asking the §V
    optimizer for each node's attribute order (materialized attributes are
    the interface with the parent, or the GROUP BY key vertices at the
    root, and the chosen relative order of materialized attributes is
    propagated as the global order).

    Execution is Yannakakis-style and bottom-up: every child bag runs the
    WCOJ interpreter over its relations' tries and materializes a
    derived relation keyed by its interface, carrying all partial aggregate
    slots, its GROUP BY annotation codes and a multiplicity; the parent
    treats it exactly like a base relation. The root emits output groups.

    Two output paths: a hash aggregator in general, and a streaming
    "sorted emit" path (with a Gustavson-style sparse accumulator for the
    §V-A2 relaxed orders) when the GROUP BY keys are a prefix of the
    attribute order — the path that lets sparse matrix multiplication run
    without materializing a hash of the output.

    Interior positions intersect into per-position reusable buffers. The
    innermost position runs one of two leaf modes, decided once per bag
    execution by {!Compile.Leaf.mode}: [Count] folds the intersection's
    cardinality without iterating it, [Stream] iterates its matches
    straight into the fold.

    Every bag runs through one driver (§III-D): position 0's values are
    materialized once and split into contiguous chunks by
    {!Lh_util.Parfor.map_reduce}, each walked with a private execution
    context, and the contexts merge in chunk order (hash tables,
    sorted-emit rows, the scalar accumulator or the sparse accumulator).
    With one domain, or when position 0 is not iterated (no vertices, or
    a count-only leaf at position 0), the bag is one unsplit unit that
    walks position 0 in place, so a [Count] leaf counts at every domain
    count. *)

type pnode = {
  pbag : Ghd.bag;
  porder : int list;  (** vertex ids, execution order *)
  prelaxed : bool;
  pmaterialized : int list;
  pchildren : pnode list;
  pcost : float;
}
(** One physical plan node. Immutable, so cached plans are shared safely
    across executions and domains; what depends on the bound tries (the
    leaf disposition) is decided per execution. *)

val physical :
  Config.t -> Logical.t -> dense_of:(Logical.edge -> bool) -> Ghd.t -> pnode
(** Assign attribute orders to every GHD node. *)

val rel_infos :
  Logical.t -> dense_of:(Logical.edge -> bool) -> Ghd.bag -> Attr_order.rel_info list
(** The §V relation descriptors of one bag (base relations followed by
    derived child relations) — exposed for the Fig. 5 experiments. *)

type row = { gcodes : int array; slots : float array }
(** One output group: codes per GROUP BY item (vertex value for key items,
    annotation code for the rest) and one value per physical slot. *)

val run : Config.t -> Logical.t -> pnode -> row list * Compile.Leaf.mode
(** Execute the plan. Rows are sorted by [gcodes]. Scalar queries yield
    exactly one row with empty [gcodes]. Also returns the root bag's leaf
    disposition, which every bag decides once per execution from its bound
    tries ({!Compile.Leaf.mode}). Budget violations raise the
    {!Lh_util.Budget} exceptions. A relation without a selection takes its
    trie from its table's memo ({!Lh_storage.Table.trie}; index creation
    is load-time work, §VI-A); one with a selection gets a fresh trie. *)

val run_scan : Config.t -> Logical.t -> row list
(** The no-join path (queries whose hypergraph has no vertices, e.g.
    TPC-H Q1/Q6): a filtered columnar scan with hash grouping, touching
    only referenced buffers. *)

val pp_plan : Logical.t -> Format.formatter -> pnode -> unit
