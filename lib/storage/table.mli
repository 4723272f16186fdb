(** Columnar tables.

    Each attribute is one buffer, loadable in isolation — the physical side
    of attribute elimination (§IV-A). Int and date and string attributes are
    stored as int codes ([Icol]); float attributes as raw floats ([Fcol]).
    Integer keys use their own value as code (order-preserving); strings go
    through the engine's shared {!Dict}. *)

type column = Icol of int array | Fcol of float array

type memo
(** The table's indexes (unfiltered tries, dense shape), built on first
    use and kept for the table's lifetime, as the paper builds tries at
    load; a replaced table is a new value with an empty memo. Tables are
    never copied or repointed: every epoch, session and view that holds
    the table holds this one value, and so shares its memo. Safe from
    any domain. An index depends only on the columns and on codes already
    in the append-only dictionary, so strings interned later leave it
    right (see {!Dict}). *)

type t = private {
  name : string;
  schema : Schema.t;
  nrows : int;
  cols : column array;
  dict : Dict.t;
  memo : memo;
}

val create : name:string -> schema:Schema.t -> dict:Dict.t -> column array -> t
(** Raises [Failure] when column count/length or representation does not
    match the schema, or when a key column contains a negative code. *)

val of_rows : name:string -> schema:Schema.t -> dict:Dict.t -> Dtype.value list list -> t
(** Convenience constructor for tests and small inputs. *)

val trie : t -> shape:string -> key:string -> (unit -> Trie.t) -> Trie.t
(** [trie t ~shape ~key build]: the trie memoized under [key], else
    [build ()] installed under it; [key] fixes the trie's contents and
    [shape] is [key] with its bound constants masked. One trie is held per
    shape, so the memo grows with query shapes, not constants. Built with
    no lock held; the first of racing installs wins; a raise installs
    nothing. Counters [trie_cache.hit] (found), [trie_cache.miss] (built). *)

type dense = { dkey_cols : int list; dims : int array; row_major : bool }
(** Key columns and the extent of each: the table enumerates the complete
    grid [{0..dims.(0)-1} × ...], in grid order when [row_major]. *)

val dense_rect : t -> dense option
(** [Some] when the one or two key columns cover a full zero-based
    rectangle exactly once; one scan on first use, then memoized.
    Counters [dense_cache.hit] and [dense_cache.miss]. *)

val load_csv :
  name:string -> schema:Schema.t -> dict:Dict.t -> ?domains:int -> ?sep:char -> string -> t
(** Ingest a delimited file; one field per schema column, in order.

    With [domains > 1] the file's lines are parsed in parallel chunks, each
    against a private {!Dict}; the per-chunk dictionaries fold into [dict]
    in chunk order (see {!Dict.merge_into}), so the loaded table — codes
    included — is identical for every [domains] value. *)

val icol : t -> int -> int array
(** The int-code buffer of a column; raises [Failure] on a float column. *)

val fcol : t -> int -> float array

val number : t -> int -> int -> float
(** [number t col row]: the numeric value of an int/float/date cell (string
    cells raise). *)

val code : t -> int -> int -> int
(** [code t col row]: the int code of an int/date/string cell. *)

val value : t -> row:int -> col:int -> Dtype.value
(** Fully decoded cell value. *)

val encode_const : t -> int -> Dtype.value -> int option
(** [encode_const t col v] is the code a constant would have in column
    [col]: unknown strings yield [None] (they match nothing). Raises
    [Failure] on type mismatch or float columns. *)

val to_rows : t -> Dtype.value list list
val row_encoder : t -> Buffer.t -> int -> unit
(** [row_encoder t] picks one cell writer per column, once; applied to a
    buffer and a row index it appends that row's cells, ['|']-separated and
    without a newline: ints by [string_of_int], floats by
    {!Dtype.float_to_string}, strings and dates by
    {!Dtype.value_to_string}. Build it once per result, then call it per
    row. *)

val pp_row : Format.formatter -> t -> int -> unit
(** One row in {!row_encoder}'s format. *)
