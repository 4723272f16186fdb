(** Attribute types and runtime values of the LevelHeaded data model
    (§III-A): int, long, float, double and string collapse here to [Int]
    (63-bit), [Float] (double) and [String]; [Date] is an int encoding (see
    {!Date}). *)

type t = Int | Float | String | Date

type value = VInt of int | VFloat of float | VString of string | VDate of int

val to_string : t -> string
val of_string : string -> t
(** Case-insensitive; accepts [int], [long], [float], [double], [string],
    [date]. Raises [Failure] on anything else. *)

val value_type : value -> t

val value_to_string : value -> string
(** Ints in decimal, floats as {!float_to_string}, strings verbatim, dates
    as [YYYY-MM-DD]. *)

val float_to_string : float -> string
(** The [%.6g] rendering, byte for byte what [Printf.sprintf "%.6g"]
    prints (same C primitive, without the format interpreter). *)

val value_equal : value -> value -> bool

val numeric : value -> float
(** [VInt]/[VFloat]/[VDate] as a float; raises [Failure] on strings. *)
