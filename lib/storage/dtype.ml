type t = Int | Float | String | Date
type value = VInt of int | VFloat of float | VString of string | VDate of int

let to_string = function Int -> "int" | Float -> "float" | String -> "string" | Date -> "date"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "int" | "long" | "integer" -> Int
  | "float" | "double" | "decimal" -> Float
  | "string" | "varchar" | "char" | "text" -> String
  | "date" -> Date
  | other -> failwith (Printf.sprintf "Dtype.of_string: unknown type %S" other)

let value_type = function VInt _ -> Int | VFloat _ -> Float | VString _ -> String | VDate _ -> Date

(* The C primitive behind Printf's float conversions: [Printf.sprintf
   "%.6g"] hands its value straight to it, so the bytes are the same
   without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let float_to_string f = format_float "%.6g" f

let value_to_string = function
  | VInt i -> string_of_int i
  | VFloat f -> float_to_string f
  | VString s -> s
  | VDate d -> Date.to_string d

let value_equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> x = y
  | VString x, VString y -> String.equal x y
  | VDate x, VDate y -> x = y
  | (VInt _ | VFloat _ | VString _ | VDate _), _ -> false

let numeric = function
  | VInt i -> float_of_int i
  | VFloat f -> f
  | VDate d -> float_of_int d
  | VString s -> failwith (Printf.sprintf "Dtype.numeric: string value %S" s)
