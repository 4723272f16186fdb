(* Durable store: WAL + checkpoints, and recovery. See store.mli. *)

module Obs = Lh_obs.Obs
module Hist = Lh_obs.Hist
module Timing = Lh_util.Timing

let c_recover_replayed = Obs.counter "recover.replayed"
let c_recover_skipped = Obs.counter "recover.skipped"
let c_recover_tables = Obs.counter "recover.checkpoint_tables"
let c_recover_torn = Obs.counter "recover.torn_tails"
let c_recover_opens = Obs.counter "recover.opens"
let h_replay = Hist.histogram "recover.replay"

let wal_name = "wal.log"

type t = {
  st_dir : string;
  st_lock : Mutex.t;
  st_wal : Wal.writer;
  mutable st_seq : int;  (* last durable sequence handed out *)
  mutable st_closed : bool;
}

type recovered = {
  rc_tables : Checkpoint.table list;
  rc_batches : Wal.batch list;
  rc_seq : int;
  rc_checkpoint_seq : int;
  rc_torn : bool;
}

let locked t f =
  Mutex.lock t.st_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.st_lock) f

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Recovery *)

(* The newest installed checkpoint that loads; a corrupt one is skipped,
   not fatal. No checkpoint at all is sequence 0 with no tables. *)
let rec load_newest dir = function
  | [] -> (0, [])
  | (_, f) :: older -> (
      match Checkpoint.load (Filename.concat dir f) with
      | Ok r -> r
      | Error _ -> load_newest dir older)

let open_dir ?sync dir =
  let sync = match sync with Some s -> s | None -> Wal.default_sync () in
  mkdir_p dir;
  Obs.incr c_recover_opens;
  let wal_path = Filename.concat dir wal_name in
  let t0 = Timing.monotonic_now () in
  let ckpt_seq, tables = load_newest dir (Checkpoint.scan ~dir) in
  Obs.add c_recover_tables (List.length tables);
  let r = Wal.replay wal_path in
  if r.Wal.r_torn then Obs.incr c_recover_torn;
  (* Duplicate sequence numbers arise only from a failed append whose
     frame nevertheless survived on disk; the retry — the later record —
     is the acknowledged content, so dedup keeps the LAST occurrence.
     (Wal.append also truncates such frames eagerly; this is the
     replay-side backstop for the crash window.) *)
  let last = Hashtbl.create 64 in
  List.iteri (fun i (b : Wal.batch) -> Hashtbl.replace last b.Wal.b_seq i) r.Wal.r_batches;
  let batches =
    List.filteri
      (fun i (b : Wal.batch) ->
        if b.Wal.b_seq <= ckpt_seq || Hashtbl.find last b.Wal.b_seq <> i then begin
          Obs.incr c_recover_skipped;
          false
        end
        else begin
          Obs.incr c_recover_replayed;
          true
        end)
      r.Wal.r_batches
  in
  let top = List.fold_left (fun acc (b : Wal.batch) -> max acc b.Wal.b_seq) ckpt_seq batches in
  Hist.observe h_replay (Timing.monotonic_now () -. t0);
  let wal = Wal.open_at ~path:wal_path ~sync ~valid_len:r.Wal.r_valid_len in
  ( { st_dir = dir; st_lock = Mutex.create (); st_wal = wal; st_seq = top; st_closed = false },
    {
      rc_tables = tables;
      rc_batches = batches;
      rc_seq = top;
      rc_checkpoint_seq = ckpt_seq;
      rc_torn = r.Wal.r_torn;
    } )

let replay_into r register =
  List.iter (fun (name, schema, rows) -> register ~name ~schema rows) r.rc_tables;
  List.iter
    (fun (b : Wal.batch) -> register ~name:b.Wal.b_name ~schema:b.Wal.b_schema b.Wal.b_rows)
    r.rc_batches

(* ------------------------------------------------------------------ *)
(* Writing *)

let log_batch t ~name ~schema rows =
  locked t (fun () ->
      if t.st_closed then failwith "Store.log_batch: closed store";
      let seq = t.st_seq + 1 in
      Wal.append t.st_wal { Wal.b_seq = seq; b_name = name; b_schema = schema; b_rows = rows };
      t.st_seq <- seq;
      seq)

(* Install, reset, prune. A crash or failure after the install leaves
   WAL records at or below [seq], which recovery skips, and older
   checkpoints, which the next checkpoint prunes. *)
let checkpoint t tables =
  locked t (fun () ->
      if t.st_closed then failwith "Store.checkpoint: closed store";
      let seq = t.st_seq in
      Checkpoint.write ~dir:t.st_dir ~seq tables;
      Wal.reset t.st_wal;
      List.iter
        (fun (s, f) ->
          if s < seq then try Sys.remove (Filename.concat t.st_dir f) with Sys_error _ -> ())
        (Checkpoint.scan ~dir:t.st_dir))

let close t =
  locked t (fun () ->
      if not t.st_closed then begin
        t.st_closed <- true;
        Wal.close t.st_wal
      end)

let dir t = t.st_dir
let wal_path t = Filename.concat t.st_dir wal_name
