(** The fuzzing dataset: a small, fully deterministic catalog that covers
    every storage feature the query generator wants to exercise —

    - sparse integer-keyed matrices with duplicate key tuples ([m_a],
      [m_b], [m_c]: pre-aggregation and join multiplicities),
    - completely dense matrices and a dense vector ([dm], [dm2], [dv]:
      the BLAS-targeting path),
    - a sparse vector ([sv]),
    - a BI-style star (fact [fact] with dimensions [cust] and [item]:
      string/date/int/float annotations, filters, GROUP BY),
    - string-keyed relations ([s1], [s2]: dictionary-coded key joins).

    The dataset is built from a pinned internal seed, so a replayed query
    seed alone reproduces a failure exactly. *)

type col_info = {
  ci_name : string;
  ci_dtype : Lh_storage.Dtype.t;
  ci_key : bool;
  ci_strings : string array;  (** distinct values, string columns only *)
  ci_lo : float;  (** numeric/date minimum (day codes for dates) *)
  ci_hi : float;
}

type table_info = { ti_name : string; ti_cols : col_info array; ti_rows : int }

type profile = table_info array

val build : ?layout_stress:bool -> unit -> Levelheaded.Engine.t
(** A fresh engine with the full dataset registered. [~layout_stress:true]
    (default false) additionally registers three distinct-key matrix
    relations whose trie sets straddle the sparse/dense layout crossover —
    [ls_d] (dense bitset levels at ~85% fill of an 18x18 domain), [ls_s]
    (uint sets spread over a 0..999 domain) and [ls_m] (a dense first level
    over sparse column sets) — so generated joins exercise every
    layout-pair kernel (bs-bs, bs-uint, uint-uint) and, having no duplicate
    key tuples, the executor's count-only leaves. The base tables are
    bit-identical in both modes. *)

val oracle :
  ?base:Levelheaded.Engine.t ->
  (string * Lh_storage.Schema.t * Lh_storage.Dtype.value list list) list ->
  Levelheaded.Engine.t
(** The acknowledged-state oracle of the recovery and concurrency
    harnesses: [base] (default a fresh empty engine, mutated in place)
    after registering each [(table, schema, rows)] batch in order, a
    batch replacing any earlier table of its name — the sequential state
    every acknowledged ingest promises. *)

val profile : Levelheaded.Engine.t -> profile
(** Scans every registered table once: the schema plus per-column value
    ranges / string vocabularies the generator draws filter constants
    from. Works on any engine, not just {!build}'s. *)
