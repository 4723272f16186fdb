(* lhserve — line-protocol server over the epoch-pinned query service.

   Reads one command per line from stdin and answers on stdout; the first
   token of every response is "ok" or "error", so a driving script can
   pipe commands in and assert on the transcript (ci.sh does exactly
   that). Sessions query immutable epoch snapshots; "ingest" publishes a
   new epoch without disturbing queries in flight or explicit pins.

   Commands:

     open                         -> ok session <id>
     close <id>                   -> ok
     pin <id>                     -> ok epoch <e>
     unpin <id>                   -> ok
     query <id> <sql>             -> ok epoch <e> rows <n>   (then n rows)
     prepare <id> <sql>           -> ok stmt <sid>
     exec <sid> [v1 v2 ...]       -> ok epoch <e> rows <n>   (then n rows)
     ingest <table> <schema>      -> ok epoch <e>   (rows follow as CSV
                                     lines, terminated by a "." line)
     load <table> <schema> <path> -> ok epoch <e>
     epoch                        -> ok epoch <e>
     epochs                       -> ok epochs <k>  (then k "id pins retired" lines)
     stats                        -> ok sessions=S inflight=I epochs=E current=C
     quit                         -> ok bye
     shutdown                     -> ok bye   (graceful: drain, fsync WAL)

   Schemas are comma-separated "name:dtype[:key]" specs (no spaces), e.g.
   row:int:key,col:int:key,v:float. Typed service failures come back as
   one "error <kind>: ..." line; the server never exits on a bad command.

   With --data-dir the server is durable: every acknowledged ingest is
   in the directory's write-ahead log (fsync policy from --wal-sync /
   LH_WAL_SYNC) before the "ok epoch" line is printed, checkpoints are
   taken every --checkpoint-every ingests, and a restart on the same
   directory recovers to the last acknowledged epoch (torn WAL tails
   from a crash are truncated, never fatal). SIGINT/SIGTERM trigger a
   graceful shutdown: new work is refused, in-flight queries get a
   bounded drain window, the WAL is fsynced, and the process exits 0.

   Example:

     printf 'open\nquery 1 select 1 as x from t\nquit\n' \
       | lhserve --table t:/tmp/t.csv:'k int key,v float'
*)

module L = Levelheaded
module Serve = Lh_serve.Serve
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Table = Lh_storage.Table
open Cmdliner

exception Bad of string

(* ---- parsing ---- *)

let parse_colspec s =
  match String.split_on_char ':' (String.trim s) with
  | [ name; dt ] -> (name, Dtype.of_string dt, Schema.Annotation)
  | [ name; dt; "key" ] -> (name, Dtype.of_string dt, Schema.Key)
  | _ -> raise (Bad (Printf.sprintf "bad column %S (want name:dtype[:key])" s))

let parse_schema spec =
  match String.split_on_char ',' spec with
  | [] | [ "" ] -> raise (Bad "empty schema")
  | cols -> Schema.create (List.map parse_colspec cols)

let parse_cell dtype s =
  let s = String.trim s in
  match dtype with
  | Dtype.String -> Dtype.VString s
  | _ -> (
      try
        match dtype with
        | Dtype.Int -> Dtype.VInt (int_of_string s)
        | Dtype.Float -> Dtype.VFloat (float_of_string s)
        | Dtype.Date -> Dtype.VDate (Lh_storage.Date.of_string s)
        | Dtype.String -> assert false
      with _ ->
        raise (Bad (Printf.sprintf "cannot parse %S as %s" s (Dtype.to_string dtype))))

let parse_row schema line =
  let cells = String.split_on_char ',' line in
  let ncols = Schema.ncols schema in
  if List.length cells <> ncols then
    raise (Bad (Printf.sprintf "row has %d cells, schema has %d columns" (List.length cells) ncols));
  List.mapi (fun c cell -> parse_cell (Schema.col schema c).Schema.dtype cell) cells

(* exec parameters: narrowest parse wins (int, float, date), else string;
   quote ('x') to force string — same convention as lhcli --param. *)
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

(* first token and the untrimmed rest of the line *)
let split_word line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      (String.sub line 0 i, String.trim (String.sub line (i + 1) (String.length line - i - 1)))

let int_arg what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> raise (Bad (Printf.sprintf "%s: want an integer, got %S" what s))

(* ---- server state ---- *)

type state = {
  svc : Serve.t;
  sessions : (int, Serve.session) Hashtbl.t;
  stmts : (int, Serve.prepared) Hashtbl.t;
  mutable next_stmt : int;
}

let respond fmt = Printf.ksprintf (fun s -> print_string s; print_char '\n'; flush stdout) fmt

let err_kind = function
  | Serve.Overloaded _ -> "overloaded"
  | Serve.Closed _ -> "closed"
  | Serve.Engine_error _ -> "engine"

let session_of st id =
  match Hashtbl.find_opt st.sessions id with
  | Some s -> s
  | None -> raise (Bad (Printf.sprintf "no session %d" id))

let print_result (t : Table.t) epoch =
  respond "ok epoch %d rows %d" epoch t.Table.nrows;
  for r = 0 to t.Table.nrows - 1 do
    print_string (Format.asprintf "%a" (fun fmt () -> Table.pp_row fmt t r) ());
    print_char '\n'
  done;
  flush stdout

let handle st line =
  let cmd, rest = split_word line in
  match cmd with
  | "" -> ()
  | "open" ->
      let s = Serve.open_session st.svc in
      Hashtbl.replace st.sessions (Serve.session_id s) s;
      respond "ok session %d" (Serve.session_id s)
  | "close" ->
      let id = int_arg "close" rest in
      Serve.close_session (session_of st id);
      Hashtbl.remove st.sessions id;
      respond "ok"
  | "pin" -> respond "ok epoch %d" (Serve.pin (session_of st (int_arg "pin" rest)))
  | "unpin" ->
      Serve.unpin (session_of st (int_arg "unpin" rest));
      respond "ok"
  | "query" -> (
      let id, sql = split_word rest in
      if sql = "" then raise (Bad "query: want <session> <sql>");
      match Serve.query_epoch (session_of st (int_arg "query" id)) sql with
      | Ok (t, e) -> print_result t e
      | Error e -> respond "error %s: %s" (err_kind e) (Serve.error_to_string e))
  | "prepare" -> (
      let id, sql = split_word rest in
      if sql = "" then raise (Bad "prepare: want <session> <sql>");
      match Serve.prepare (session_of st (int_arg "prepare" id)) sql with
      | Ok p ->
          st.next_stmt <- st.next_stmt + 1;
          Hashtbl.replace st.stmts st.next_stmt p;
          respond "ok stmt %d" st.next_stmt
      | Error e -> respond "error %s: %s" (err_kind e) (Serve.error_to_string e))
  | "exec" -> (
      let id, args = split_word rest in
      let sid = int_arg "exec" id in
      let p =
        match Hashtbl.find_opt st.stmts sid with
        | Some p -> p
        | None -> raise (Bad (Printf.sprintf "no statement %d" sid))
      in
      let values =
        if args = "" then []
        else List.map parse_param (List.filter (( <> ) "") (String.split_on_char ' ' args))
      in
      match Serve.exec_prepared p values with
      | Ok (t, e) -> print_result t e
      | Error e -> respond "error %s: %s" (err_kind e) (Serve.error_to_string e))
  | "ingest" -> (
      let name, spec = split_word rest in
      if name = "" || spec = "" then raise (Bad "ingest: want <table> <schema>");
      let schema = parse_schema spec in
      let rows = ref [] in
      let rec slurp () =
        match input_line stdin with
        | "." -> ()
        | line ->
            rows := parse_row schema line :: !rows;
            slurp ()
        | exception End_of_file -> ()
      in
      slurp ();
      match Serve.ingest_rows st.svc ~name ~schema (List.rev !rows) with
      | Ok e -> respond "ok epoch %d" e
      | Error e -> respond "error %s: %s" (err_kind e) (Serve.error_to_string e))
  | "load" -> (
      let name, rest = split_word rest in
      let spec, path = split_word rest in
      if name = "" || spec = "" || path = "" then raise (Bad "load: want <table> <schema> <path>");
      match Serve.load_csv st.svc ~name ~schema:(parse_schema spec) path with
      | Ok e -> respond "ok epoch %d" e
      | Error e -> respond "error %s: %s" (err_kind e) (Serve.error_to_string e))
  | "epoch" -> respond "ok epoch %d" (Serve.current_epoch st.svc)
  | "epochs" ->
      let es = Serve.epochs st.svc in
      respond "ok epochs %d" (List.length es);
      List.iter
        (fun (id, pins, retired) ->
          respond "%d %d %s" id pins (if retired then "retired" else "live"))
        es
  | "stats" ->
      let s = Serve.stats st.svc in
      respond "ok sessions=%d inflight=%d epochs=%d current=%d" s.Serve.st_sessions
        s.Serve.st_inflight s.Serve.st_epochs s.Serve.st_current
  | "quit" ->
      respond "ok bye";
      Serve.close st.svc;
      exit 0
  | "shutdown" ->
      (* Graceful variant of quit: drain in-flight queries (bounded),
         then close — which fsyncs the WAL's group-commit remainder. *)
      if not (Serve.shutdown st.svc) then
        Printf.eprintf "lhserve: shutdown drain deadline expired\n%!";
      respond "ok bye";
      exit 0
  | other -> raise (Bad (Printf.sprintf "unknown command %S" other))

(* ---- startup ---- *)

let parse_table_arg arg =
  (* lhcli syntax: name:path:"col dtype [key], ..." *)
  let colspec s =
    match String.split_on_char ' ' (String.trim s) |> List.filter (fun x -> x <> "") with
    | [ name; dtype ] -> (name, Dtype.of_string dtype, Schema.Annotation)
    | [ name; dtype; "key" ] -> (name, Dtype.of_string dtype, Schema.Key)
    | _ -> failwith (Printf.sprintf "bad column spec %S (want: name dtype [key])" s)
  in
  match String.split_on_char ':' arg with
  | name :: path :: rest when rest <> [] ->
      ( name,
        path,
        Schema.create (List.map colspec (String.split_on_char ',' (String.concat ":" rest))) )
  | _ -> failwith (Printf.sprintf "bad --table %S (want name:path:schema)" arg)

let serve tables sep domains max_sessions queue_depth data_dir wal_sync checkpoint_every =
  let wal_sync =
    match wal_sync with
    | None -> None
    | Some s -> (
        match Lh_durable.Wal.sync_of_string s with
        | Ok m -> Some m
        | Error m -> failwith m)
  in
  let config =
    {
      L.Config.default with
      L.Config.domains = max 1 domains;
      wal_sync =
        (match wal_sync with Some m -> m | None -> L.Config.default.L.Config.wal_sync);
    }
  in
  let eng = L.Engine.create ~config () in
  (* Durable boot: recover the store before any preloads — recovered
     state is the base, --table files then layer on top. Preloads go
     straight into the engine before the service exists, so they never
     reach the WAL: only a later checkpoint captures them, and a restart
     must pass the same --table flags. All chatter goes to stderr; stdout
     carries only protocol responses. *)
  let store =
    match data_dir with
    | None -> None
    | Some dir ->
        let store, recovered =
          Lh_durable.Store.open_dir ~sync:config.L.Config.wal_sync dir
        in
        Lh_durable.Store.replay_into recovered (fun ~name ~schema rows ->
            ignore (L.Engine.register_rows eng ~name ~schema rows));
        Printf.eprintf
          "lhserve: recovered %s: %d checkpoint table(s), %d wal batch(es), seq %d%s\n%!" dir
          (List.length recovered.Lh_durable.Store.rc_tables)
          (List.length recovered.Lh_durable.Store.rc_batches)
          recovered.Lh_durable.Store.rc_seq
          (if recovered.Lh_durable.Store.rc_torn then " (torn tail truncated)" else "");
        Some store
  in
  List.iter
    (fun arg ->
      let name, path, schema = parse_table_arg arg in
      ignore (L.Engine.load_csv eng ~name ~schema ~sep path);
      Printf.eprintf "loaded %s as %s\n%!" path name)
    tables;
  let st =
    {
      svc = Serve.create ?max_sessions ?queue_depth ?store ?checkpoint_every eng;
      sessions = Hashtbl.create 8;
      stmts = Hashtbl.create 8;
      next_stmt = 0;
    }
  in
  (* SIGINT/SIGTERM: graceful shutdown. The handler itself must NOT call
     Serve.shutdown — OCaml runs handlers at safe points on the main
     thread, possibly inside a Serve call that already holds the service
     lock, and re-locking there deadlocks (or raises from the
     error-checking mutex at an arbitrary point). So the handler only
     sets a flag and closes the stdin fd: a blocked input_line wakes
     with Sys_error, and the main loop — outside every lock — performs
     the bounded drain. Serve.shutdown bounds that drain, so a query
     wedged past the deadline cannot hold the exit hostage. *)
  let stop = Atomic.make false in
  let graceful _ =
    if not (Atomic.exchange stop true) then
      try Unix.close Unix.stdin with Unix.Unix_error _ -> ()
  in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful) with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle graceful) with Invalid_argument _ -> ());
  Printf.eprintf "lhserve: epoch %d, reading commands from stdin\n%!"
    (Serve.current_epoch st.svc);
  let graceful_exit () =
    if not (Serve.shutdown st.svc) then
      Printf.eprintf "lhserve: shutdown drain deadline expired\n%!";
    Printf.eprintf "lhserve: shutting down\n%!";
    0
  in
  let rec loop () =
    if Atomic.get stop then graceful_exit ()
    else
      match input_line stdin with
      | exception (End_of_file | Sys_error _) ->
          if Atomic.get stop then graceful_exit ()
          else begin
            Serve.close st.svc;
            0
          end
      | line ->
          (try handle st line with
          | Bad msg -> respond "error protocol: %s" msg
          | Serve.Error e -> respond "error %s: %s" (err_kind e) (Serve.error_to_string e)
          | Failure msg -> respond "error protocol: %s" msg
          (* stdin was closed by the signal handler mid-command (e.g.
             while slurping ingest rows): fall through to the shutdown
             check at the top of the loop *)
          | Sys_error _ when Atomic.get stop -> ());
          loop ()
  in
  loop ()

let cmd =
  let tables =
    Arg.(value & opt_all string [] & info [ "table"; "t" ] ~docv:"NAME:PATH:SCHEMA"
           ~doc:"Preload a delimited file; SCHEMA is 'col dtype [key], ...'")
  in
  let sep = Arg.(value & opt char ',' & info [ "sep" ] ~doc:"Field separator for --table files") in
  let domains =
    Arg.(value
         & opt int (Lh_util.Parfor.default_domains ())
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains for ingest and query execution (default: \\$LH_DOMAINS if \
                   set, else 1)")
  in
  let max_sessions =
    Arg.(value & opt (some int) None & info [ "max-sessions" ] ~docv:"N"
           ~doc:"Concurrent session cap (default: \\$LH_MAX_SESSIONS if set, else 8)")
  in
  let queue_depth =
    Arg.(value & opt (some int) None & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Service-wide admitted-query cap (default: \\$LH_QUEUE_DEPTH if set, else 32)")
  in
  let data_dir =
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Durable store directory: recover it on boot, write-ahead-log every ingest \
                 (acknowledged batches survive SIGKILL), checkpoint periodically")
  in
  let wal_sync =
    Arg.(value & opt (some string) None & info [ "wal-sync" ] ~docv:"MODE"
           ~doc:"WAL fsync discipline: always | group[:N] | none (default: \\$LH_WAL_SYNC if \
                 set, else group:8)")
  in
  let checkpoint_every =
    Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Checkpoint the catalog and reset the WAL every N durable ingests (default: \
                 \\$LH_CHECKPOINT_EVERY if set, else never)")
  in
  Cmd.v
    (Cmd.info "lhserve"
       ~doc:"Line-protocol query server with snapshot-isolated epoch reads")
    Term.(const serve $ tables $ sep $ domains $ max_sessions $ queue_depth $ data_dir
          $ wal_sync $ checkpoint_every)

let () = exit (Cmd.eval' cmd)
