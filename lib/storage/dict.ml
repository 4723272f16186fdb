(* One writer, many readers (see dict.mli). [strings] is republished after
   every append, so a reader's [len] only covers filled slots; a grown
   buffer is a fresh copy. *)
type strings = { arr : string array; len : int }
type t = { table : (string, int) Hashtbl.t; lock : Mutex.t; strings : strings Atomic.t }

let create () =
  {
    table = Hashtbl.create 256;
    lock = Mutex.create ();
    strings = Atomic.make { arr = Array.make 16 ""; len = 0 };
  }

let encode t s =
  match Hashtbl.find_opt t.table s with
  | Some code -> code
  | None ->
      Mutex.protect t.lock (fun () ->
          let { arr; len } = Atomic.get t.strings in
          let arr = if len < Array.length arr then arr else Array.append arr (Array.make len "") in
          arr.(len) <- s;
          Atomic.set t.strings { arr; len = len + 1 };
          Hashtbl.replace t.table s len;
          len)

let find t s = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table s)

let merge_into ~into local =
  let { arr; len } = Atomic.get local.strings in
  Array.init len (fun c -> encode into arr.(c))

let decode t code =
  let { arr; len } = Atomic.get t.strings in
  if code < 0 || code >= len then invalid_arg (Printf.sprintf "Dict.decode: unknown code %d" code);
  arr.(code)

let size t = (Atomic.get t.strings).len
