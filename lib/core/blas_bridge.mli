(** Dense-kernel targeting (§III-D, §IV-A).

    Attribute elimination stores each dense annotation in its own
    BLAS-compatible buffer, which lets LevelHeaded hand dense
    matrix–vector and matrix–matrix queries to the BLAS substrate
    ({!Lh_blas}) and only produce the output keys itself. A query is
    eligible when it is a two-relation aggregate-equi-join over
    {e completely dense} relations (keys forming a full rectangle) in the
    matvec or matmul shape with a single SUM-of-products aggregate and no
    filters. Everything else stays on the WCOJ path. *)

type kernel
(** A matched dense kernel, ready to execute. *)

val match_kernel : Logical.t -> kernel option
(** Eligibility check only — no computation. Both tables must be dense
    ({!Lh_storage.Table.dense_rect}); a one-vertex side is taken as the
    vector only when its table has exactly one key column. *)

val describe : kernel -> string
(** One-line plan summary, e.g. ["gemm(m, m)"] — kernel name and the
    operand tables. Used by per-query profile records. *)

val execute : ?domains:int -> ?budget:Lh_util.Budget.t -> kernel -> Executor.row list
(** [domains] (default 1) is forwarded to the BLAS kernels and recorded in
    the [exec.domains_used] gauge; [budget] (default unlimited) is
    checkpointed inside the kernels so a runaway product raises the budget
    exception instead of running to completion. Fault site:
    ["blas.dispatch"] fires at dispatch, before any buffer extraction. *)
