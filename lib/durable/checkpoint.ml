(* Checkpoint file writer/loader. See checkpoint.mli. *)

module Obs = Lh_obs.Obs
module Fault = Lh_fault.Fault

let c_written = Obs.counter "wal.checkpoints"
let fault_write = Fault.site "checkpoint.write"
let fault_load = Fault.site "checkpoint.load"

type table = string * Lh_storage.Schema.t * Lh_storage.Dtype.value list list

let magic = "LHCKPT01"

let filename ~seq = Printf.sprintf "ckpt-%012d.lhc" seq

(* Variable-width digit parse: %012d pads, it does not cap, so once the
   sequence outgrows 12 digits the names widen and a fixed-length match
   would stop recognizing installed checkpoints. *)
let seq_of_filename name =
  let prefix = "ckpt-" and suffix = ".lhc" in
  let plen = String.length prefix and slen = String.length suffix in
  let n = String.length name in
  if n > plen + slen && String.sub name 0 plen = prefix && Filename.check_suffix name suffix
  then begin
    let digits = String.sub name plen (n - plen - slen) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then int_of_string_opt digits
    else None
  end
  else None

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

(* The header frame carries (seq, ntables) as a payload of two i64s. *)
let encode_header ~seq ~ntables =
  let buf = Buffer.create 16 in
  Buffer.add_int64_le buf (Int64.of_int seq);
  Buffer.add_int64_le buf (Int64.of_int ntables);
  Buffer.contents buf

let write ~dir ~seq tables =
  Fault.hit fault_write;
  let name = filename ~seq in
  let tmp = Filename.concat dir (name ^ ".tmp") in
  let final = Filename.concat dir name in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_string buf (Wal.frame (encode_header ~seq ~ntables:(List.length tables)));
  List.iter
    (fun (tname, schema, rows) ->
      Buffer.add_string buf
        (Wal.frame
           (Wal.encode_payload
              { Wal.b_seq = seq; b_name = tname; b_schema = schema; b_rows = rows })))
    tables;
  let data = Buffer.contents buf in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (match
     (match Kill.probe "checkpoint.write" with
     | Some torn ->
         (* Torn checkpoint simulation: partial temp file, then death —
            recovery must ignore the .tmp leftover. *)
         Wal.write_all fd (String.sub data 0 (min torn (String.length data)));
         Kill.now ()
     | None -> ());
     Wal.write_all fd data;
     Unix.fsync fd
   with
  | () -> Unix.close fd
  | exception exn ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Sys.remove tmp with Sys_error _ -> ());
      raise exn);
  Unix.rename tmp final;
  fsync_dir dir;
  Obs.incr c_written

exception Bad of string

let load path =
  Fault.hit fault_load;
  (match Kill.probe "checkpoint.load" with Some _ -> Kill.now () | None -> ());
  match Wal.read_file path with
  | None -> Error "unreadable checkpoint"
  | Some data when not (String.starts_with ~prefix:magic data) -> Error "bad checkpoint magic"
  | Some data -> (
      let off = ref (String.length magic) in
      let take_frame () =
        match Wal.read_frame data !off with
        | Some (payload, next) ->
            off := next;
            payload
        | None -> raise (Bad "bad checkpoint frame")
      in
      match
        let header = take_frame () in
        if String.length header <> 16 then raise (Bad "bad checkpoint header");
        let seq = Int64.to_int (String.get_int64_le header 0) in
        let ntables = Int64.to_int (String.get_int64_le header 8) in
        if seq < 0 || ntables < 0 then raise (Bad "bad checkpoint header");
        let tables =
          List.init ntables (fun _ ->
              match Wal.decode_payload (take_frame ()) with
              | Ok b -> (b.Wal.b_name, b.Wal.b_schema, b.Wal.b_rows)
              | Error m -> raise (Bad m))
        in
        if !off <> String.length data then raise (Bad "trailing garbage in checkpoint");
        (seq, tables)
      with
      | r -> Ok r
      | exception Bad m -> Error m)

let scan ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun n ->
             match seq_of_filename n with Some s -> Some (s, n) | None -> None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)

let truncate_file ~path ~len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)
