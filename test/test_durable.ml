(* Durable-ingest tests: the WAL record codec (property round-trip plus
   an adversarial corruption corpus), checkpoint files, and the store's
   recovery and checkpoint paths. The process-level counterpart — SIGKILL at
   fault-selected points against a real lhserve — lives in
   Lh_qgen.Crashtest.run_kill (lhfuzz --kill-restart). *)

module Wal = Lh_durable.Wal
module Checkpoint = Lh_durable.Checkpoint
module Store = Lh_durable.Store
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Fault = Lh_fault.Fault

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let dir = Filename.temp_file "lh_durable_test" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let schema =
  Schema.create
    [
      ("k", Dtype.Int, Schema.Key);
      ("s", Dtype.String, Schema.Key);
      ("v", Dtype.Float, Schema.Annotation);
      ("d", Dtype.Date, Schema.Annotation);
    ]

let rows g =
  List.init (3 + (g mod 3)) (fun i ->
      [
        Dtype.VInt (i * (g + 1));
        Dtype.VString (Printf.sprintf "s%d_%d" g i);
        Dtype.VFloat (float_of_int ((i + 1) * (g + 2)) *. 0.5);
        Dtype.VDate ((g * 31) + i);
      ])

let batch ?(name = "t") g = { Wal.b_seq = g + 1; b_name = name; b_schema = schema; b_rows = rows g }

(* ---- codec: property round-trip ---- *)

let gen_batch =
  let open QCheck2.Gen in
  let value =
    oneof
      [
        map (fun i -> Dtype.VInt i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Dtype.VFloat f) (float_bound_inclusive 1e9);
        map (fun s -> Dtype.VString s) (string_size ~gen:printable (int_range 0 12));
        map (fun d -> Dtype.VDate d) (int_range 0 40_000);
      ]
  in
  let* ncols = int_range 1 4 in
  let* dtypes = list_repeat ncols (oneofl [ Dtype.Int; Dtype.Float; Dtype.String; Dtype.Date ]) in
  let coerce dt v =
    (* keep values type-consistent with the column so decode round-trips *)
    match (dt, v) with
    | Dtype.Int, _ -> Dtype.VInt (Hashtbl.hash v mod 100_000)
    | Dtype.Float, Dtype.VFloat f -> Dtype.VFloat f
    | Dtype.Float, _ -> Dtype.VFloat (float_of_int (Hashtbl.hash v mod 1000) *. 0.25)
    | Dtype.String, Dtype.VString s -> Dtype.VString s
    | Dtype.String, _ -> Dtype.VString (string_of_int (Hashtbl.hash v mod 1000))
    | Dtype.Date, _ -> Dtype.VDate (Hashtbl.hash v mod 40_000)
  in
  let* nrows = int_range 0 12 in
  let* raw = list_repeat nrows (list_repeat ncols value) in
  let* seq = int_range 0 1_000_000 in
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 10) in
  let sch =
    Schema.create
      (List.mapi
         (fun i dt ->
           (Printf.sprintf "c%d" i, dt, if i = 0 && dt <> Dtype.Float then Schema.Key else Schema.Annotation))
         dtypes)
  in
  let rows = List.map (List.mapi (fun i v -> coerce (List.nth dtypes i) v)) raw in
  return { Wal.b_seq = seq; b_name = name; b_schema = sch; b_rows = rows }

let schema_eq a b =
  Schema.ncols a = Schema.ncols b
  && List.for_all (fun i -> Schema.col a i = Schema.col b i)
       (List.init (Schema.ncols a) Fun.id)

let qcheck_codec_roundtrip =
  Helpers.qtest ~count:300 "wal payload round-trip" gen_batch (fun b ->
      match Wal.decode_payload (Wal.encode_payload b) with
      | Ok b' ->
          b'.Wal.b_seq = b.Wal.b_seq
          && b'.Wal.b_name = b.Wal.b_name
          && schema_eq b'.Wal.b_schema b.Wal.b_schema
          && b'.Wal.b_rows = b.Wal.b_rows
      | Error _ -> false)

(* ---- writer/replay basics ---- *)

let test_append_replay () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_at ~path ~sync:Wal.Never ~valid_len:Wal.header_len in
      List.iter (fun g -> Wal.append w (batch g)) [ 0; 1; 2 ];
      Wal.close w;
      let r = Wal.replay path in
      Alcotest.(check int) "batches" 3 (List.length r.Wal.r_batches);
      Alcotest.(check bool) "torn" false r.Wal.r_torn;
      Alcotest.(check bool) "content" true (List.map (fun g -> batch g) [ 0; 1; 2 ] = r.Wal.r_batches);
      (* resume appending at the replayed offset *)
      let w = Wal.open_at ~path ~sync:Wal.Never ~valid_len:r.Wal.r_valid_len in
      Wal.append w (batch 3);
      Wal.close w;
      let r = Wal.replay path in
      Alcotest.(check int) "after resume" 4 (List.length r.Wal.r_batches))

let test_missing_file_replays_empty () =
  with_temp_dir (fun dir ->
      let r = Wal.replay (Filename.concat dir "nope.log") in
      Alcotest.(check int) "no batches" 0 (List.length r.Wal.r_batches);
      Alcotest.(check bool) "not torn" false r.Wal.r_torn;
      Alcotest.(check int) "header only" Wal.header_len r.Wal.r_valid_len)

(* ---- adversarial corpus ---- *)

(* Truncated final record: replay keeps the good prefix, reports the torn
   tail, and open_at truncates it so the log is clean again. *)
let test_truncated_record () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_at ~path ~sync:Wal.Never ~valid_len:Wal.header_len in
      Wal.append w (batch 0);
      Wal.append w (batch 1);
      Wal.append_torn w (batch 2) ~keep:7;
      Wal.close w;
      let r = Wal.replay path in
      Alcotest.(check int) "good prefix" 2 (List.length r.Wal.r_batches);
      Alcotest.(check bool) "torn tail" true r.Wal.r_torn;
      let w = Wal.open_at ~path ~sync:Wal.Never ~valid_len:r.Wal.r_valid_len in
      Wal.append w (batch 2);
      Wal.close w;
      let r = Wal.replay path in
      Alcotest.(check int) "healed" 3 (List.length r.Wal.r_batches);
      Alcotest.(check bool) "no longer torn" false r.Wal.r_torn)

(* A flipped byte inside a record's payload fails the CRC: replay stops
   there, keeping everything before it. *)
let test_flipped_checksum_byte () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_at ~path ~sync:Wal.Never ~valid_len:Wal.header_len in
      Wal.append w (batch 0);
      let off_before_b1 = Wal.tell w in
      Wal.append w (batch 1);
      Wal.close w;
      Wal.corrupt_byte ~path ~off:(off_before_b1 + Wal.frame_header_len + 3);
      let r = Wal.replay path in
      Alcotest.(check int) "stops at corruption" 1 (List.length r.Wal.r_batches);
      Alcotest.(check bool) "torn" true r.Wal.r_torn;
      Alcotest.(check int) "valid_len is last good frame" off_before_b1 r.Wal.r_valid_len)

(* A zero-filled tail (preallocated blocks after a crash) parses as a
   zero-length frame: replay must stop, not loop or allocate. *)
let test_zero_length_tail () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_at ~path ~sync:Wal.Never ~valid_len:Wal.header_len in
      Wal.append w (batch 0);
      Wal.close w;
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      let zeros = Bytes.make 64 '\000' in
      ignore (Unix.write fd zeros 0 (Bytes.length zeros));
      Unix.close fd;
      let r = Wal.replay path in
      Alcotest.(check int) "good prefix" 1 (List.length r.Wal.r_batches);
      Alcotest.(check bool) "torn" true r.Wal.r_torn)

(* A corrupt magic header invalidates the whole file. *)
let test_bad_magic () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_at ~path ~sync:Wal.Never ~valid_len:Wal.header_len in
      Wal.append w (batch 0);
      Wal.close w;
      Wal.corrupt_byte ~path ~off:0;
      let r = Wal.replay path in
      Alcotest.(check int) "nothing replayed" 0 (List.length r.Wal.r_batches);
      Alcotest.(check bool) "torn" true r.Wal.r_torn)

(* Duplicate sequence numbers (a retried batch whose failed first
   attempt nevertheless reached the disk) are deduplicated by the store
   on replay; the LAST occurrence — the acknowledged retry — wins. *)
let test_duplicate_seq_last_wins () =
  with_temp_dir (fun dir ->
      let store, _ = Store.open_dir ~sync:Wal.Never dir in
      ignore (Store.log_batch store ~name:"t" ~schema (rows 0));
      ignore (Store.log_batch store ~name:"t" ~schema (rows 1));
      Store.close store;
      (* forge a duplicate of seq 2 at the tail — the "retry" *)
      let r = Wal.replay (Store.wal_path store) in
      let w =
        Wal.open_at ~path:(Store.wal_path store) ~sync:Wal.Never ~valid_len:r.Wal.r_valid_len
      in
      Wal.append w { Wal.b_seq = 2; b_name = "t"; b_schema = schema; b_rows = rows 2 };
      Wal.close w;
      let store, recovered = Store.open_dir ~sync:Wal.Never dir in
      Store.close store;
      Alcotest.(check int) "duplicate deduplicated" 2
        (List.length recovered.Store.rc_batches);
      Alcotest.(check bool) "kept the last seq-2 payload" true
        ((List.nth recovered.Store.rc_batches 1).Wal.b_rows = rows 2);
      Alcotest.(check int) "seq" 2 recovered.Store.rc_seq)

(* A failed sync point must remove the already-written frame: the caller
   rolls its sequence counter back and the retry reuses the number, so a
   surviving first frame would shadow the acknowledged retry on replay. *)
let test_fsync_failure_removes_frame () =
  with_temp_dir (fun dir ->
      let store, _ = Store.open_dir ~sync:Wal.Always dir in
      ignore (Store.log_batch store ~name:"t" ~schema (rows 0));
      Fault.arm ~trigger:(Fault.Nth 1) "wal.fsync";
      (match Store.log_batch store ~name:"t" ~schema (rows 1) with
      | exception Fault.Injected _ -> ()
      | _ -> Alcotest.fail "expected the armed wal.fsync site to fire");
      Fault.disarm_all ();
      (* the failed frame is gone from the log, so the retried sequence
         number carries only the acknowledged content *)
      Alcotest.(check int) "retry reuses the sequence" 2
        (Store.log_batch store ~name:"t" ~schema (rows 2));
      Store.close store;
      let store, recovered = Store.open_dir ~sync:Wal.Never dir in
      Store.close store;
      Alcotest.(check int) "two batches recovered" 2 (List.length recovered.Store.rc_batches);
      Alcotest.(check bool) "seq 2 is the acknowledged retry" true
        ((List.nth recovered.Store.rc_batches 1).Wal.b_rows = rows 2);
      Alcotest.(check int) "seq" 2 recovered.Store.rc_seq)

(* A full-length garbage header must be rewritten on open, not appended
   after — otherwise every batch acknowledged afterwards is invisible to
   the next boot's replay. *)
let test_garbage_header_rewritten () =
  with_temp_dir (fun dir ->
      let store, _ = Store.open_dir ~sync:Wal.Never dir in
      ignore (Store.log_batch store ~name:"t" ~schema (rows 0));
      Store.close store;
      Wal.corrupt_byte ~path:(Store.wal_path store) ~off:0;
      (* boot 1: header unrecognizable → recover nothing, rewrite log *)
      let store, recovered = Store.open_dir ~sync:Wal.Never dir in
      Alcotest.(check int) "nothing recovered" 0 (List.length recovered.Store.rc_batches);
      Alcotest.(check bool) "reported torn" true recovered.Store.rc_torn;
      ignore (Store.log_batch store ~name:"t" ~schema (rows 1));
      Store.close store;
      (* boot 2: the batch appended after the rewrite must be recoverable *)
      let store, recovered = Store.open_dir ~sync:Wal.Never dir in
      Store.close store;
      Alcotest.(check int) "batch after rewrite recovered" 1
        (List.length recovered.Store.rc_batches);
      Alcotest.(check bool) "content" true
        ((List.hd recovered.Store.rc_batches).Wal.b_rows = rows 1))

(* ---- store recovery ---- *)

let test_store_reopen () =
  with_temp_dir (fun dir ->
      let store, recovered = Store.open_dir ~sync:Wal.Never dir in
      Alcotest.(check int) "fresh" 0 recovered.Store.rc_seq;
      ignore (Store.log_batch store ~name:"a" ~schema (rows 0));
      ignore (Store.log_batch store ~name:"b" ~schema (rows 1));
      ignore (Store.log_batch store ~name:"a" ~schema (rows 2));
      Store.close store;
      let store, recovered = Store.open_dir ~sync:Wal.Never dir in
      Alcotest.(check int) "seq" 3 recovered.Store.rc_seq;
      Alcotest.(check int) "batches" 3 (List.length recovered.Store.rc_batches);
      (* whole-table replacement semantics: replay lands on the last
         batch per table *)
      let tbl = Hashtbl.create 4 in
      Store.replay_into recovered (fun ~name ~schema:_ rows -> Hashtbl.replace tbl name rows);
      Alcotest.(check bool) "a = rows 2" true (Hashtbl.find tbl "a" = rows 2);
      Alcotest.(check bool) "b = rows 1" true (Hashtbl.find tbl "b" = rows 1);
      (* sequence numbers continue past recovery *)
      Alcotest.(check int) "next seq" 4 (Store.log_batch store ~name:"c" ~schema (rows 0));
      Store.close store)

let test_checkpoint_and_suffix () =
  with_temp_dir (fun dir ->
      let store, _ = Store.open_dir ~sync:Wal.Never dir in
      ignore (Store.log_batch store ~name:"a" ~schema (rows 0));
      ignore (Store.log_batch store ~name:"b" ~schema (rows 1));
      Store.checkpoint store [ ("a", schema, rows 0); ("b", schema, rows 1) ];
      ignore (Store.log_batch store ~name:"a" ~schema (rows 2));
      Store.close store;
      let store, recovered = Store.open_dir ~sync:Wal.Never dir in
      Store.close store;
      Alcotest.(check int) "checkpoint tables" 2 (List.length recovered.Store.rc_tables);
      Alcotest.(check int) "wal suffix" 1 (List.length recovered.Store.rc_batches);
      Alcotest.(check int) "checkpoint seq" 2 recovered.Store.rc_checkpoint_seq;
      Alcotest.(check int) "seq" 3 recovered.Store.rc_seq;
      let tbl = Hashtbl.create 4 in
      Store.replay_into recovered (fun ~name ~schema:_ rows -> Hashtbl.replace tbl name rows);
      Alcotest.(check bool) "a overridden by suffix" true (Hashtbl.find tbl "a" = rows 2);
      Alcotest.(check bool) "b from checkpoint" true (Hashtbl.find tbl "b" = rows 1))

(* A truncated (torn) checkpoint file is skipped; recovery falls back to
   the WAL. *)
let test_corrupt_checkpoint_skipped () =
  with_temp_dir (fun dir ->
      let store, _ = Store.open_dir ~sync:Wal.Never dir in
      ignore (Store.log_batch store ~name:"a" ~schema (rows 0));
      Store.checkpoint store [ ("a", schema, rows 0) ];
      ignore (Store.log_batch store ~name:"a" ~schema (rows 1));
      Store.close store;
      let ckpt = Filename.concat dir (Checkpoint.filename ~seq:1) in
      Checkpoint.truncate_file ~path:ckpt ~len:20;
      let store, recovered = Store.open_dir ~sync:Wal.Never dir in
      Store.close store;
      Alcotest.(check int) "no checkpoint tables" 0 (List.length recovered.Store.rc_tables);
      (* the post-checkpoint WAL only holds the suffix: seq 2 *)
      Alcotest.(check int) "wal suffix" 1 (List.length recovered.Store.rc_batches);
      Alcotest.(check int) "seq" 2 recovered.Store.rc_seq)

(* A kill between installing a checkpoint and resetting the WAL leaves a
   checkpoint that nothing names and WAL records it covers: recovery
   finds it by scan and skips every covered record. *)
let test_unnamed_checkpoint_recovered () =
  with_temp_dir (fun dir ->
      let store, _ = Store.open_dir ~sync:Wal.Never dir in
      List.iter (fun g -> ignore (Store.log_batch store ~name:"a" ~schema (rows g))) [ 0; 1; 2 ];
      Store.close store;
      Checkpoint.write ~dir ~seq:3 [ ("a", schema, rows 2); ("b", schema, rows 0) ];
      let store, recovered = Store.open_dir ~sync:Wal.Never dir in
      Store.close store;
      Alcotest.(check int) "checkpoint seq" 3 recovered.Store.rc_checkpoint_seq;
      Alcotest.(check bool) "tables from the checkpoint" true
        (recovered.Store.rc_tables = [ ("a", schema, rows 2); ("b", schema, rows 0) ]);
      Alcotest.(check int) "no replayed batches" 0 (List.length recovered.Store.rc_batches);
      Alcotest.(check int) "seq" 3 recovered.Store.rc_seq)

(* Every wal.fsync hit inside one checkpoint may fail; each failure must
   leave a store that still logs, and a reopen must recover every logged
   batch. *)
let test_failed_checkpoint_keeps_store_usable () =
  let setup dir =
    let store, _ = Store.open_dir ~sync:Wal.Always dir in
    ignore (Store.log_batch store ~name:"a" ~schema (rows 0));
    store
  in
  let ckpt store = Store.checkpoint store [ ("a", schema, rows 0) ] in
  (* the hits one clean checkpoint makes, counted with a trigger that
     never fires *)
  let hits =
    with_temp_dir (fun dir ->
        let store = setup dir in
        Fault.arm ~trigger:(Fault.Nth max_int) "wal.fsync";
        ckpt store;
        let n = Fault.hits "wal.fsync" in
        Fault.disarm_all ();
        Store.close store;
        n)
  in
  Alcotest.(check bool) "checkpoint reaches wal.fsync" true (hits >= 1);
  for k = 1 to hits do
    with_temp_dir (fun dir ->
        let store = setup dir in
        Fault.arm ~trigger:(Fault.Nth k) "wal.fsync";
        (match ckpt store with
        | exception Fault.Injected _ -> ()
        | () -> Alcotest.failf "hit %d: expected the checkpoint to fail" k);
        Fault.disarm_all ();
        Alcotest.(check int) (Printf.sprintf "hit %d: next log" k) 2
          (Store.log_batch store ~name:"b" ~schema (rows 1));
        Store.close store;
        let store, recovered = Store.open_dir ~sync:Wal.Never dir in
        Store.close store;
        let tbl = Hashtbl.create 4 in
        Store.replay_into recovered (fun ~name ~schema:_ rows -> Hashtbl.replace tbl name rows);
        Alcotest.(check int) (Printf.sprintf "hit %d: seq" k) 2 recovered.Store.rc_seq;
        Alcotest.(check bool) (Printf.sprintf "hit %d: a recovered" k) true
          (Hashtbl.find_opt tbl "a" = Some (rows 0));
        Alcotest.(check bool) (Printf.sprintf "hit %d: b recovered" k) true
          (Hashtbl.find_opt tbl "b" = Some (rows 1)))
  done

(* %012d pads but does not cap: scan must keep recognizing checkpoints
   once the sequence outgrows 12 digits. *)
let test_checkpoint_filename_width () =
  let check_opt what exp got = Alcotest.(check (option int)) what exp got in
  check_opt "normal" (Some 7) (Checkpoint.seq_of_filename "ckpt-000000000007.lhc");
  check_opt "13 digits" (Some 1_000_000_000_000)
    (Checkpoint.seq_of_filename "ckpt-1000000000000.lhc");
  check_opt "filename round-trips past 12 digits" (Some 1_000_000_000_000)
    (Checkpoint.seq_of_filename (Checkpoint.filename ~seq:1_000_000_000_000));
  check_opt "tmp rejected" None (Checkpoint.seq_of_filename "ckpt-000000000001.lhc.tmp");
  check_opt "non-digits rejected" None (Checkpoint.seq_of_filename "ckpt-00000000000x.lhc");
  check_opt "empty digits rejected" None (Checkpoint.seq_of_filename "ckpt-.lhc")

let test_sync_of_string () =
  Alcotest.(check bool) "always" true (Wal.sync_of_string "always" = Ok Wal.Always);
  Alcotest.(check bool) "group" true (Wal.sync_of_string "group" = Ok (Wal.Group 8));
  Alcotest.(check bool) "group:3" true (Wal.sync_of_string "group:3" = Ok (Wal.Group 3));
  Alcotest.(check bool) "none" true (Wal.sync_of_string "none" = Ok Wal.Never);
  Alcotest.(check bool) "junk rejected" true (Result.is_error (Wal.sync_of_string "sometimes"));
  Alcotest.(check bool) "group:0 rejected" true (Result.is_error (Wal.sync_of_string "group:0"))

let () =
  Alcotest.run "lh_durable"
    [
      ("codec", [ qcheck_codec_roundtrip ]);
      ( "wal",
        [
          Alcotest.test_case "append/replay" `Quick test_append_replay;
          Alcotest.test_case "missing file" `Quick test_missing_file_replays_empty;
          Alcotest.test_case "sync modes" `Quick test_sync_of_string;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "truncated record" `Quick test_truncated_record;
          Alcotest.test_case "flipped checksum byte" `Quick test_flipped_checksum_byte;
          Alcotest.test_case "zero-length tail" `Quick test_zero_length_tail;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "duplicate seq: last wins" `Quick test_duplicate_seq_last_wins;
          Alcotest.test_case "fsync failure removes frame" `Quick
            test_fsync_failure_removes_frame;
          Alcotest.test_case "garbage header rewritten" `Quick test_garbage_header_rewritten;
        ] );
      ( "store",
        [
          Alcotest.test_case "reopen" `Quick test_store_reopen;
          Alcotest.test_case "checkpoint + wal suffix" `Quick test_checkpoint_and_suffix;
          Alcotest.test_case "corrupt checkpoint skipped" `Quick test_corrupt_checkpoint_skipped;
          Alcotest.test_case "unnamed checkpoint recovered" `Quick
            test_unnamed_checkpoint_recovered;
          Alcotest.test_case "failed checkpoint keeps the store usable" `Quick
            test_failed_checkpoint_keeps_store_usable;
          Alcotest.test_case "checkpoint filename width" `Quick test_checkpoint_filename_width;
        ] );
    ]
