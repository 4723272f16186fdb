(* Argument parsers shared by lhcli and lhserve. *)

module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype

(* A positional parameter value (lhcli --param, lhserve exec): the
   narrowest parse wins (int, float, date), falling back to string.
   Quote it ('42') to force a string. *)
let parse_param s =
  let n = String.length s in
  if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then Dtype.VString (String.sub s 1 (n - 2))
  else
    match int_of_string_opt s with
    | Some i -> Dtype.VInt i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Dtype.VFloat f
        | None -> (
            match Lh_storage.Date.of_string s with
            | d -> Dtype.VDate d
            | exception _ -> Dtype.VString s))

(* A --table schema: comma-separated "name dtype [key]" columns. *)
let parse_schema spec =
  let col s =
    match String.split_on_char ' ' (String.trim s) |> List.filter (fun x -> x <> "") with
    | [ name; dtype ] -> (name, Dtype.of_string dtype, Schema.Annotation)
    | [ name; dtype; "key" ] -> (name, Dtype.of_string dtype, Schema.Key)
    | _ -> failwith (Printf.sprintf "bad column spec %S (want: name dtype [key])" s)
  in
  Schema.create (List.map col (String.split_on_char ',' spec))

(* --table name:path:schema; everything after the second ':' is the
   schema. *)
let parse_table_arg arg =
  match String.split_on_char ':' arg with
  | name :: path :: rest when rest <> [] -> (name, path, parse_schema (String.concat ":" rest))
  | _ -> failwith (Printf.sprintf "bad --table %S (want name:path:schema)" arg)
