(* In-process service backends the workloads' operations run against:

   - [serve]: the real Lh_serve.Serve (the concurrent workload, and the
     traced replay's service pass);
   - [shadow]: the same service behaviour assembled from the layers'
     public calls, in the order Serve makes them, each call wrapped in a
     span that charges its time to one layer (the traced replay's layer
     pass).

   [Layer] keeps the per-layer totals. Outside an Lh_obs session the
   wraps cost one atomic load and record nothing. *)

module L = Levelheaded
module Engine = L.Engine
module Serve = Lh_serve.Serve
module Store = Lh_durable.Store
module Obs = Lh_obs.Obs
module Table = Lh_storage.Table
module Dtype = Lh_storage.Dtype

module Layer = struct
  let lock = Mutex.create ()
  let totals : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16

  (* Self-check hook: an extra fixed delay inside one layer's span. *)
  let delay : (string * float) option ref = ref None

  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 4

  let reset () =
    Mutex.lock lock;
    Hashtbl.reset totals;
    Hashtbl.reset counts;
    Mutex.unlock lock

  (* Work a layer did that no Lh_obs counter records (bytes, rows). *)
  let bump name n =
    Mutex.lock lock;
    (match Hashtbl.find_opt counts name with
    | Some c -> c := !c + n
    | None -> Hashtbl.replace counts name (ref n));
    Mutex.unlock lock

  let count name =
    Mutex.lock lock;
    let n = match Hashtbl.find_opt counts name with Some c -> !c | None -> 0 in
    Mutex.unlock lock;
    n

  let add name d =
    Mutex.lock lock;
    (match Hashtbl.find_opt totals name with
    | Some (s, n) ->
        s := !s +. d;
        incr n
    | None -> Hashtbl.replace totals name (ref d, ref 1));
    Mutex.unlock lock

  (* Seconds charged to [name] so far, and the number of calls. *)
  let total name =
    Mutex.lock lock;
    let r = match Hashtbl.find_opt totals name with Some (s, n) -> (!s, !n) | None -> (0.0, 0) in
    Mutex.unlock lock;
    r

  let wrap name f =
    Obs.span ~record:(add name) name (fun () ->
        (match !delay with Some (l, s) when l = name -> Unix.sleepf s | _ -> ());
        f ())
end

type t = {
  ingest : int -> (int, string) result;  (** ingest number g -> published epoch *)
  query : int -> string -> (Table.t * int, string) result;  (** session -> sql *)
  exec : int -> string -> string list -> (Table.t * int, string) result;
      (** session -> statement sql -> exec arguments *)
  pin : int -> unit;
  unpin : int -> unit;
  live_epochs : unit -> int;
  close : unit -> unit;  (** graceful: the store is flushed and closed *)
}

(* lhserve's reading of an exec argument: narrowest of int, float,
   date, else string. *)
let param_value s =
  match int_of_string_opt s with
  | Some i -> Dtype.VInt i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Dtype.VFloat f
      | None -> (
          match Lh_storage.Date.of_string s with
          | d -> Dtype.VDate d
          | exception _ -> Dtype.VString s))

let config = { L.Config.default with L.Config.domains = 1 }

let side_ingest ~seed g f =
  f ~name:(Inputs.side_name (g mod Inputs.nsides)) ~schema:Inputs.side_schema
    (Inputs.side_batch ~seed g)

(* ---- the real service ---- *)

let serve ~seed ?store ~checkpoint_every eng =
  let svc = Serve.create ~config ~max_sessions:8 ~queue_depth:32 ?store ~checkpoint_every eng in
  let lock = Mutex.create () in
  let sessions = Hashtbl.create 4 and stmts = Hashtbl.create 4 in
  let session id =
    Mutex.lock lock;
    let s =
      match Hashtbl.find_opt sessions id with
      | Some s -> s
      | None ->
          let s = Serve.open_session svc in
          Hashtbl.replace sessions id s;
          s
    in
    Mutex.unlock lock;
    s
  in
  let err r = Result.map_error Serve.error_to_string r in
  {
    ingest =
      (fun g ->
        err
          (Layer.wrap "serve.ingest_rows" (fun () ->
               side_ingest ~seed g (Serve.ingest_rows svc))));
    query =
      (fun id sql ->
        let s = session id in
        err (Layer.wrap "serve.query_epoch" (fun () -> Serve.query_epoch s sql)));
    exec =
      (fun id sql params ->
        let s = session id in
        let p =
          match Hashtbl.find_opt stmts (id, sql) with
          | Some p -> Ok p
          | None ->
              Result.map
                (fun p ->
                  Hashtbl.replace stmts (id, sql) p;
                  p)
                (err (Serve.prepare s sql))
        in
        Result.bind p (fun p ->
            err
              (Layer.wrap "serve.query_epoch" (fun () ->
                   Serve.exec_prepared p (List.map param_value params)))));
    pin = (fun id -> ignore (Serve.pin (session id)));
    unpin = (fun id -> Serve.unpin (session id));
    live_epochs = (fun () -> List.length (Serve.epochs svc));
    close = (fun () -> ignore (Serve.shutdown svc));
  }

(* ---- the service, assembled from public calls ---- *)

(* Size of the installed checkpoint files of a store directory. *)
let checkpoint_bytes dir =
  Array.fold_left
    (fun acc f ->
      if String.starts_with ~prefix:"ckpt-" f then
        acc + (try (Unix.stat (Filename.concat dir f)).Unix.st_size with Unix.Unix_error _ -> 0)
      else acc)
    0 (Sys.readdir dir)

type view_session = {
  mutable pinned : Engine.snapshot option;
  mutable views : (int * Engine.t) list;  (* epoch -> view engine *)
  stmts : (string, int * Engine.stmt) Hashtbl.t;  (* sql -> (epoch, statement) *)
}

let shadow ~seed ?store ~checkpoint_every writer =
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let current = ref (Engine.snapshot writer) in
  let since_checkpoint = ref 0 in
  let sessions = Hashtbl.create 4 in
  let session id =
    locked (fun () ->
        match Hashtbl.find_opt sessions id with
        | Some s -> s
        | None ->
            let s = { pinned = None; views = []; stmts = Hashtbl.create 2 } in
            Hashtbl.replace sessions id s;
            s)
  in
  (* Serve.ingest_with with a store: rollback snapshot, table build, WAL
     append, periodic whole-catalog checkpoint, publish snapshot. *)
  let ingest ~name ~schema rows =
    if store <> None then ignore (Layer.wrap "ingest.snapshot" (fun () -> Engine.snapshot writer));
    let tbl = Layer.wrap "ingest.table" (fun () -> Engine.register_rows writer ~name ~schema rows) in
    (match store with
    | None -> ()
    | Some st ->
        Layer.wrap "wal.append" (fun () ->
            ignore
              (Store.log_batch st ~name:tbl.Table.name ~schema:tbl.Table.schema (Table.to_rows tbl)));
        incr since_checkpoint;
        if checkpoint_every > 0 && !since_checkpoint >= checkpoint_every then begin
          Layer.wrap "checkpoint" (fun () -> Store.checkpoint st (Engine.dump writer));
          Layer.bump "checkpoint.bytes" (checkpoint_bytes (Store.dir st));
          since_checkpoint := 0
        end);
    Layer.bump "ingest.rows" (List.length rows);
    let snap = Layer.wrap "ingest.snapshot" (fun () -> Engine.snapshot writer) in
    locked (fun () -> current := snap);
    Engine.snapshot_epoch snap
  in
  (* Serve.view_for: one view engine per (session, epoch); the three
     newest are kept. *)
  let view s =
    let snap = match s.pinned with Some p -> p | None -> locked (fun () -> !current) in
    let e = Engine.snapshot_epoch snap in
    match List.assoc_opt e s.views with
    | Some v -> (v, e)
    | None ->
        let v = Layer.wrap "serve.view" (fun () -> Engine.of_snapshot ~config snap) in
        s.views <- (e, v) :: List.filteri (fun i _ -> i < 2) s.views;
        (v, e)
  in
  let err r = Result.map_error Engine.Error.to_string r in
  {
    ingest =
      (fun g ->
        match side_ingest ~seed g ingest with
        | e -> Ok e
        | exception exn -> Error (Printexc.to_string exn));
    query =
      (fun id sql ->
        let v, e = view (session id) in
        Result.map
          (fun t -> (t, e))
          (err (Layer.wrap "engine.query" (fun () -> Engine.query_result v sql))));
    exec =
      (fun id sql params ->
        let s = session id in
        let v, e = view s in
        let stmt =
          match Hashtbl.find_opt s.stmts sql with
          | Some (e', st) when e' = e -> Ok st
          | _ ->
              Result.map
                (fun st ->
                  Hashtbl.replace s.stmts sql (e, st);
                  st)
                (err (Engine.prepare_result v sql))
        in
        Result.bind stmt (fun st ->
            Result.map
              (fun t -> (t, e))
              (err
                 (Layer.wrap "engine.query" (fun () ->
                      Engine.Stmt.exec_result st (List.map param_value params))))));
    pin = (fun id -> (session id).pinned <- Some (locked (fun () -> !current)));
    unpin = (fun id -> (session id).pinned <- None);
    (* epoch.live_max is reported from the service pass only *)
    live_epochs = (fun () -> 0);
    close = (fun () -> Option.iter Store.close store);
  }

(* Restart recovery through public calls: open the store directory and
   replay it into a fresh engine. *)
let recover dir =
  Layer.wrap "recover" (fun () ->
      let store, rc = Store.open_dir ~sync:(Lh_durable.Wal.Group 8) dir in
      let eng = Engine.create ~config () in
      Store.replay_into rc (fun ~name ~schema rows ->
          ignore (Engine.register_rows eng ~name ~schema rows));
      Store.close store;
      List.length rc.Store.rc_batches)
