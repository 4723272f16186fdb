(** Trie sets: the values stored at one trie level under one parent tuple.

    LevelHeaded stores dense sets using a bitset and sparse sets using
    unsigned integers (§III-B); the layout is chosen per set at build time.
    All values are nonnegative dictionary-encoded codes. *)

type layout = Sparse  (** "uint": sorted array *) | Dense  (** "bs": bitset *)

type t = Uint of int array | Bs of Bitset.t

val empty : t

val of_sorted_array : ?layout:layout -> int array -> t
(** The array must be sorted with distinct nonnegative values. Without
    [?layout] the density rule {!choose_layout} decides. *)

val of_array : ?layout:layout -> int array -> t
(** Sorts and deduplicates a copy of the input first. *)

val of_bitset : Bitset.t -> t

val choose_layout : card:int -> range:int -> layout
(** Dense when the value span is at most {!dense_factor} times the
    cardinality (and the set is not tiny). *)

val dense_factor : int

val layout : t -> layout
val cardinality : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

val iter : (int -> unit) -> t -> unit
(** Visits values in increasing order. *)

val iteri : (int -> int -> unit) -> t -> unit
(** [iteri f s] calls [f rank value] with [rank] the 0-based position of
    [value] in sorted order — the index used to address trie children. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_array : t -> int array

val rank : t -> int -> int
(** [rank s v] is the sorted position of [v] in [s]; raises [Not_found]
    when absent. A binary search for [Uint]; constant time for [Bs] after
    the bitset's lazily built per-word prefix index ({!Bitset.rank}). *)

val nth : t -> int -> int
(** [nth s i] is the value at sorted position [i]. *)

val min_elt : t -> int
(** Raises [Not_found] when empty. *)

val max_elt : t -> int
(** Raises [Not_found] when empty. *)

val singleton : int -> t
val filter : (int -> bool) -> t -> t

val filter_range : lo:int -> hi:int -> t -> t
(** Keeps values in [\[lo, hi\]]. *)

val union : t -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
