module Smap = Map.Make (String)

type t = { dict : Lh_storage.Dict.t; tables : Lh_storage.Table.t Smap.t }

let create () = { dict = Lh_storage.Dict.create (); tables = Smap.empty }
let dict t = t.dict

let register t table =
  if table.Lh_storage.Table.dict != t.dict then
    failwith
      (Printf.sprintf "Catalog.register: table %s uses a foreign dictionary"
         table.Lh_storage.Table.name);
  { t with tables = Smap.add table.Lh_storage.Table.name table t.tables }

let find t name = Smap.find_opt name t.tables

let find_exn t name =
  match find t name with
  | Some table -> table
  | None -> failwith (Printf.sprintf "Catalog: unknown table %S" name)

let names t = List.map fst (Smap.bindings t.tables)
let tables t = List.map snd (Smap.bindings t.tables)
