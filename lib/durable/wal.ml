(* WAL record codec, writer and replay. See wal.mli. *)

module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Obs = Lh_obs.Obs
module Fault = Lh_fault.Fault

let c_appended = Obs.counter "wal.appended"
let c_bytes = Obs.counter "wal.bytes"
let c_fsyncs = Obs.counter "wal.fsyncs"
let c_replayed = Obs.counter "wal.replayed"
let c_truncated = Obs.counter "wal.truncated"
let fault_append = Fault.site "wal.append"
let fault_fsync = Fault.site "wal.fsync"
let fault_replay = Fault.site "wal.replay"
let fault_reset = Fault.site "wal.reset"

type sync = Always | Group of int | Never

let sync_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "group" -> Ok (Group 8)
  | "none" | "never" -> Ok Never
  | s when String.length s > 6 && String.sub s 0 6 = "group:" -> (
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some n when n >= 1 -> Ok (Group n)
      | _ -> Error (Printf.sprintf "bad group size in LH_WAL_SYNC %S" s))
  | s -> Error (Printf.sprintf "bad LH_WAL_SYNC %S (want always|group[:N]|none)" s)

let default_sync () =
  match Sys.getenv_opt "LH_WAL_SYNC" with
  | None -> Group 8
  | Some s -> ( match sync_of_string s with Ok m -> m | Error _ -> Group 8)

type batch = {
  b_seq : int;
  b_name : string;
  b_schema : Schema.t;
  b_rows : Dtype.value list list;
}

let magic = "LHWAL001"
let header_len = String.length magic
let frame_header_len = 8

(* ------------------------------------------------------------------ *)
(* Codec. Little-endian throughout; strings are u32 length + bytes;
   values carry a 1-byte tag so frames decode without the schema. *)

let add_u32 buf n = Buffer.add_int32_le buf (Int32.of_int n)
let add_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let dtype_code = function Dtype.Int -> 0 | Dtype.Float -> 1 | Dtype.String -> 2 | Dtype.Date -> 3
let dtype_of_code = function
  | 0 -> Some Dtype.Int
  | 1 -> Some Dtype.Float
  | 2 -> Some Dtype.String
  | 3 -> Some Dtype.Date
  | _ -> None

let add_value buf = function
  | Dtype.VInt n ->
      Buffer.add_char buf '\000';
      add_i64 buf n
  | Dtype.VFloat f ->
      Buffer.add_char buf '\001';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Dtype.VString s ->
      Buffer.add_char buf '\002';
      add_str buf s
  | Dtype.VDate d ->
      Buffer.add_char buf '\003';
      add_i64 buf d

let encode_payload b =
  let buf = Buffer.create 256 in
  add_i64 buf b.b_seq;
  add_str buf b.b_name;
  add_u32 buf (Schema.ncols b.b_schema);
  for i = 0 to Schema.ncols b.b_schema - 1 do
    let c = Schema.col b.b_schema i in
    add_str buf c.Schema.name;
    Buffer.add_char buf (Char.chr (dtype_code c.Schema.dtype));
    Buffer.add_char buf (match c.Schema.kind with Schema.Key -> '\000' | Schema.Annotation -> '\001')
  done;
  add_u32 buf (List.length b.b_rows);
  List.iter (fun row -> List.iter (add_value buf) row) b.b_rows;
  Buffer.contents buf

exception Decode of string

type cursor = { src : string; mutable pos : int }

let need cur n =
  if cur.pos + n > String.length cur.src then raise (Decode "short payload")

let get_u32 cur =
  need cur 4;
  let n = Int32.to_int (String.get_int32_le cur.src cur.pos) in
  cur.pos <- cur.pos + 4;
  (* lengths/counts are written from non-negative ints; a negative read
     means corruption *)
  if n < 0 then raise (Decode "negative length") else n

let get_i64 cur =
  need cur 8;
  let n = Int64.to_int (String.get_int64_le cur.src cur.pos) in
  cur.pos <- cur.pos + 8;
  n

let get_byte cur =
  need cur 1;
  let c = Char.code cur.src.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let get_str cur =
  let n = get_u32 cur in
  need cur n;
  let s = String.sub cur.src cur.pos n in
  cur.pos <- cur.pos + n;
  s

let get_value cur =
  match get_byte cur with
  | 0 -> Dtype.VInt (get_i64 cur)
  | 1 ->
      need cur 8;
      let f = Int64.float_of_bits (String.get_int64_le cur.src cur.pos) in
      cur.pos <- cur.pos + 8;
      Dtype.VFloat f
  | 2 -> Dtype.VString (get_str cur)
  | 3 -> Dtype.VDate (get_i64 cur)
  | t -> raise (Decode (Printf.sprintf "bad value tag %d" t))

let decode_payload s =
  let cur = { src = s; pos = 0 } in
  match
    let seq = get_i64 cur in
    if seq < 0 then raise (Decode "negative sequence number");
    let name = get_str cur in
    let ncols = get_u32 cur in
    let cols =
      List.init ncols (fun _ ->
          let cname = get_str cur in
          let dt =
            match dtype_of_code (get_byte cur) with
            | Some d -> d
            | None -> raise (Decode "bad dtype code")
          in
          let kind =
            match get_byte cur with
            | 0 -> Schema.Key
            | 1 -> Schema.Annotation
            | _ -> raise (Decode "bad kind code")
          in
          (cname, dt, kind))
    in
    let schema = try Schema.create cols with Failure m -> raise (Decode m) in
    let nrows = get_u32 cur in
    let rows = List.init nrows (fun _ -> List.init ncols (fun _ -> get_value cur)) in
    if cur.pos <> String.length s then raise (Decode "trailing garbage in payload");
    { b_seq = seq; b_name = name; b_schema = schema; b_rows = rows }
  with
  | b -> Ok b
  | exception Decode m -> Error m

let frame payload =
  let buf = Buffer.create (String.length payload + frame_header_len) in
  add_u32 buf (String.length payload);
  Buffer.add_int32_le buf (Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let read_frame data off =
  let start = off + frame_header_len in
  if start > String.length data then None
  else
    let plen = Int32.to_int (String.get_int32_le data off) in
    (* a zero length is a preallocated-zeros tail; a negative one is a
       u32 past 2^31, i.e. overlong *)
    if plen <= 0 || start + plen > String.length data
       || Crc32.sub data ~pos:start ~len:plen <> String.get_int32_le data (off + 4)
    then None
    else Some (String.sub data start plen, start + plen)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | data -> Some data
          | exception (Sys_error _ | End_of_file) -> None))

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* ------------------------------------------------------------------ *)
(* Writer *)

type writer = {
  w_fd : Unix.file_descr;
  w_sync : sync;
  mutable w_off : int;  (* end of last complete frame *)
  mutable w_pending : int;  (* appends since last fsync *)
  mutable w_closed : bool;
}

let fsync w =
  Fault.hit fault_fsync;
  (match Kill.probe "wal.fsync" with Some _ -> Kill.now () | None -> ());
  Unix.fsync w.w_fd;
  w.w_pending <- 0;
  Obs.incr c_fsyncs

let open_at ~path ~sync ~valid_len =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let header_ok =
    size >= header_len
    && begin
         ignore (Unix.lseek fd 0 Unix.SEEK_SET);
         let b = Bytes.create header_len in
         let rec fill off =
           off >= header_len
           ||
           match Unix.read fd b off (header_len - off) with
           | 0 -> false
           | n -> fill (off + n)
         in
         fill 0 && Bytes.to_string b = magic
       end
  in
  let off =
    if header_ok then begin
      if size > valid_len then begin
        Unix.ftruncate fd valid_len;
        Obs.incr c_truncated
      end;
      max header_len valid_len
    end
    else begin
      (* Short or unrecognizable header: replay recovered nothing from
         this file, so rewrite it from scratch — appending frames after
         garbage bytes would make every later batch unreachable on the
         next replay. *)
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      Unix.ftruncate fd 0;
      write_all fd magic;
      if size > 0 then Obs.incr c_truncated;
      (match sync with
      | Never -> ()
      | _ -> ( try Unix.fsync fd with Unix.Unix_error _ -> ()));
      header_len
    end
  in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  { w_fd = fd; w_sync = sync; w_off = off; w_pending = 0; w_closed = false }

(* A failed or interrupted frame write must not leave torn bytes in the
   middle of the log: truncate back to the last good offset before the
   failure escapes. Replay's torn-tail truncation is the backstop for
   the crash case where even this cleanup never ran. *)
let truncate_to_good w =
  try
    Unix.ftruncate w.w_fd w.w_off;
    ignore (Unix.lseek w.w_fd w.w_off Unix.SEEK_SET)
  with Unix.Unix_error _ -> ()

let append_frame w fr =
  Fault.hit fault_append;
  (match Kill.probe "wal.append" with
  | Some torn ->
      (* Torn-write simulation: first [torn] bytes reach the file, then
         the process dies. *)
      write_all w.w_fd (String.sub fr 0 (min torn (String.length fr)));
      Kill.now ()
  | None -> ());
  (match write_all w.w_fd fr with
  | () -> ()
  | exception exn ->
      truncate_to_good w;
      raise exn);
  w.w_off <- w.w_off + String.length fr;
  Obs.incr c_appended;
  Obs.add c_bytes (String.length fr)

let append w b =
  if w.w_closed then failwith "Wal.append: closed writer";
  let off0 = w.w_off in
  append_frame w (frame (encode_payload b));
  match
    match w.w_sync with
    | Always -> fsync w
    | Group n ->
        w.w_pending <- w.w_pending + 1;
        if w.w_pending >= n then fsync w
    | Never -> ()
  with
  | () -> ()
  | exception exn ->
      (* The frame is complete and CRC-valid in the file, but the caller
         treats a failed append as never-acknowledged and reuses its
         sequence number for the retry. Remove the frame so replay after
         a later crash cannot register this unacknowledged content in
         place of the acknowledged retry. *)
      w.w_off <- off0;
      (match w.w_sync with
      | Group _ -> w.w_pending <- max 0 (w.w_pending - 1)
      | Always | Never -> ());
      truncate_to_good w;
      raise exn

(* The offset moves first: whatever fails below — the truncate or the
   sync point — the writer's next frame lands right after the header, and
   any stale frames left on disk carry sequence numbers at or below the
   checkpoint that superseded them, which replay skips. *)
let reset w =
  if w.w_closed then failwith "Wal.reset: closed writer";
  Fault.hit fault_reset;
  (match Kill.probe "wal.reset" with Some _ -> Kill.now () | None -> ());
  w.w_off <- header_len;
  w.w_pending <- 0;
  ignore (Unix.lseek w.w_fd header_len Unix.SEEK_SET);
  Unix.ftruncate w.w_fd header_len;
  match w.w_sync with Never -> () | Always | Group _ -> fsync w

let close w =
  if not w.w_closed then begin
    (try fsync w with Unix.Unix_error _ -> ());
    w.w_closed <- true;
    Unix.close w.w_fd
  end

let tell w = w.w_off

(* ------------------------------------------------------------------ *)
(* Replay *)

type replayed = { r_batches : batch list; r_valid_len : int; r_torn : bool }

let replay path =
  match read_file path with
  | None -> { r_batches = []; r_valid_len = header_len; r_torn = false }
  | Some data when not (String.starts_with ~prefix:magic data) ->
      (* Unrecognizable header: recover nothing, but flag it so the
         caller rewrites the log rather than appending to garbage. *)
      { r_batches = []; r_valid_len = header_len; r_torn = true }
  | Some data ->
      (* Walk frames to end-of-file or the first bad one; whatever
         follows the last good frame is a torn tail. *)
      let rec go acc off =
        let stop torn = { r_batches = List.rev acc; r_valid_len = off; r_torn = torn } in
        if off >= String.length data then stop false
        else begin
          Fault.hit fault_replay;
          (match Kill.probe "wal.replay" with Some _ -> Kill.now () | None -> ());
          match read_frame data off with
          | None -> stop true
          | Some (payload, next) -> (
              match decode_payload payload with
              | Error _ -> stop true
              | Ok b ->
                  Obs.incr c_replayed;
                  go (b :: acc) next)
        end
      in
      go [] header_len

(* ------------------------------------------------------------------ *)
(* Test helpers *)

let append_torn w b ~keep =
  let fr = frame (encode_payload b) in
  write_all w.w_fd (String.sub fr 0 (min keep (String.length fr)))

let corrupt_byte ~path ~off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      if Unix.read fd b 0 1 <> 1 then failwith "Wal.corrupt_byte: short read";
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let c = Char.chr (Char.code (Bytes.get b 0) lxor 0xFF) in
      ignore (Unix.write_substring fd (String.make 1 c) 0 1))
