(** Set intersection — the bottleneck operator of the generic WCOJ
    algorithm (Algorithm 1). Three specialized kernels mirror the paper's
    icost experiment (Fig. 5a): uint∩uint (merge or galloping), bs∩uint
    (probes), and bs∩bs (word-wise AND).

    Beyond the materializing {!inter}/{!inter_many}, the executor-facing
    entry points are monomorphic per layout pair and never allocate on the
    hot path: {!inter_into}/{!inter_many_into} write into caller-provided
    reusable buffers, {!count} popcounts / gallop-counts / merge-counts
    without building the result, and {!foreach_inter_ranked} streams
    matches, each with its rank in both operands, to a closure for leaf
    aggregation. Each call ticks one of the
    [set.inter.{bb,bu,uu}] telemetry counters, and the buffered kernels
    probe the [set.inter_into] fault site between clearing and filling the
    buffer. *)

val uint_uint : int array -> int array -> int array
(** Sorted-array intersection. Switches from a linear merge to galloping
    (exponential search) when one side is much smaller than the other. *)

val inter : Set.t -> Set.t -> Set.t
(** Dispatches on the layouts of the two operands. *)

val sort_for_inter : Set.t list -> Set.t list
(** The operand order {!inter_many} and {!inter_many_into} process in:
    bitsets first, then ascending cardinality, ties keeping list order
    (stable). Exposed so the property suite can pin the ordering contract
    directly. *)

val inter_many : Set.t list -> Set.t
(** Intersection of one or more sets. Bitset operands are processed first
    and, within a layout, smaller sets first (§V-A1: "the bs sets are always
    processed first"); ties keep list order (the sort is stable). Raises
    [Invalid_argument] on the empty list. *)

val count : Set.t -> Set.t -> int
(** Cardinality of the intersection without materializing it in any layout
    pair: word-parallel popcount of the AND for bs∩bs, membership-probe
    count for bs∩uint, merge/gallop count for uint∩uint. *)

val foreach_inter_ranked : (int -> int -> int -> unit) -> Set.t -> Set.t -> unit
(** [foreach_inter_ranked f a b] streams the members of [a ∩ b] to [f v
    rank_a rank_b] in increasing order without materializing the result
    set, where [rank_x] is [Set.rank x v] — the index that addresses [v]'s
    trie children. The ranks fall out of the kernel: bs∩bs adds the
    per-word prefix count to one popcount below the bit, bs∩uint takes
    the uint index plus {!Bitset.rank} on the bitset, and uint∩uint reports
    its merge (or gallop) indices, galloping from the smaller side. *)

val inter_into : Lh_util.Vec.Int.t -> Set.t -> Set.t -> unit
(** [inter_into buf a b] clears [buf] and fills it with the sorted values
    of [a ∩ b]. The buffer keeps its capacity across calls, so a caller
    that pins one buffer per trie position allocates nothing per
    intersection. *)

val inter_vals_into : Lh_util.Vec.Int.t -> int array -> int -> Set.t -> unit
(** [inter_vals_into buf vals n s] intersects the sorted values
    [vals.(0..n-1)] — typically the live prefix of another buffer, as
    exposed by [Vec.Int.unsafe_inner]/[length] — with [s], into [buf]. *)

val count_vals : int array -> int -> Set.t -> int
(** Cardinality of the intersection of sorted [vals.(0..n-1)] with a set,
    without materializing. *)

val inter_many_into : Lh_util.Vec.Int.t -> Lh_util.Vec.Int.t -> Set.t list -> unit
(** [inter_many_into dst tmp sets] computes the n-ary intersection into
    [dst], ping-ponging between [dst] and [tmp] ([tmp]'s final contents are
    unspecified). Operand order is {!inter_many}'s. Raises
    [Invalid_argument] on the empty list. *)
