(** Fixed-range bitsets over OCaml ints.

    A bitset covers the value range [\[offset, offset + nbits)]. Words hold
    {!word_bits} bits each so shifts never touch the sign bit. This is the
    dense ("bs") set layout of the storage engine (§V-A1). *)

type t = private {
  offset : int;  (** First representable value. *)
  nbits : int;  (** Size of the representable range. *)
  words : int array;
  mutable card : int;  (** Number of set bits; maintained by {!add}. *)
  mutable rank_cache : int array;
      (** Per-word prefix popcounts, built lazily by {!rank}; empty until
          then. Invalidated by nothing: {!add} after a {!rank} is a
          programming error (tries are frozen before queries run). *)
}

val word_bits : int

val create : offset:int -> nbits:int -> t
(** All-zero bitset covering [\[offset, offset + nbits)]. *)

val of_sorted_array : int array -> t
(** Bitset over the span of a sorted array of distinct values. The array
    must be non-empty. *)

val add : t -> int -> unit
(** Sets a bit; no-op when already set. The value must lie in range. *)

val mem : t -> int -> bool
(** Membership; values outside the range are simply absent. *)

val cardinality : t -> int

val iter : (int -> unit) -> t -> unit
(** Visits members in increasing order, one step per member: each word is
    walked by extracting its lowest set bit, never bit by bit. *)

val to_sorted_array : t -> int array

val min_elt : t -> int
(** Raises [Not_found] when empty. *)

val max_elt : t -> int
(** Raises [Not_found] when empty. *)

val inter : t -> t -> t
(** Word-wise intersection (the bs∩bs kernel). *)

val inter_uint : t -> int array -> int array
(** Intersection with a sorted uint set via membership probes (the bs∩uint
    kernel); returns a sorted uint result. *)

val inter_count : t -> t -> int
(** Cardinality of the word-wise AND, popcounted word by word without
    allocating the result (the bs∩bs count kernel). *)

val inter_uint_count : t -> int array -> int
(** Number of elements of a sorted uint set present in the bitset, by
    membership probes without materializing (the bs∩uint count kernel). *)

val iter_inter : (int -> unit) -> t -> t -> unit
(** Streams the members of the word-wise AND to the closure in increasing
    order without materializing the result set. *)

val iter_inter_ranked : (int -> int -> int -> unit) -> t -> t -> unit
(** [iter_inter_ranked f a b] is {!iter_inter} with ranks: [f v rank_a
    rank_b], where [rank_x] is {!rank}[ x v], read off the per-word prefix
    index plus one popcount of the operand's word below [v]. *)

val union : t -> t -> t

val popcount : int -> int
(** Number of set bits in an int, all 63 counted (so [popcount (-1) = 63]):
    a branch-free SWAR sum, constant time whatever the bit count. *)

val rank : t -> int -> int
(** [rank t v] is the number of members strictly below [v], i.e. the sorted
    position of [v] when present. Constant time after a lazily-built
    per-word prefix index. Raises [Not_found] when [v] is absent. *)

val select : t -> int -> int
(** [select t i] is the [i]-th member in sorted order (0-based) — the
    inverse of {!rank}. Binary search over the same lazily-built per-word
    prefix index as {!rank}, then inside the containing word the lower
    members are cleared one step each and the lowest set bit left is the
    answer: O(log words), never a full iteration. Raises
    [Invalid_argument] unless [0 <= i < cardinality t]. *)
