(* Concurrent query service over epoch-pinned snapshots. See serve.mli.

   Locking: [lock] guards the epoch table, the session table and the
   admission counters; [w_lock] serializes writers; each session's
   [s_lock] serializes its query execution (a session is a single logical
   caller — concurrency comes from many sessions). Lock order is
   s_lock -> lock and w_lock -> lock; [lock] is a leaf on both chains and
   never held across engine work. *)

module Engine = Levelheaded.Engine
module Config = Levelheaded.Config
module Profile = Levelheaded.Profile
module Obs = Lh_obs.Obs
module Hist = Lh_obs.Hist
module Fault = Lh_fault.Fault
module Pool = Lh_util.Pool
module Timing = Lh_util.Timing
module Store = Lh_durable.Store
module Table = Lh_storage.Table

let c_sessions = Obs.counter "serve.sessions"
let c_queries = Obs.counter "serve.queries"
let c_admitted = Obs.counter "serve.admitted"
let c_rejected = Obs.counter "serve.rejected"
let c_ingests = Obs.counter "serve.ingests"
let c_published = Obs.counter "epoch.published"
let c_retired = Obs.counter "epoch.retired"
let h_wait = Hist.histogram "serve.queue_wait"

(* Crash-only surface (see the mli's fault-site notes): admit fires
   before admission mutates anything, publish after the ingest's last
   durable step but before the writer's catalog changes, retire before an
   epoch is reclaimed. *)
let fault_admit = Fault.site "serve.admit"
let fault_publish = Fault.site "epoch.publish"
let fault_retire = Fault.site "epoch.retire"

type error =
  | Overloaded of string
  | Closed of string
  | Engine_error of Engine.Error.t

exception Error of error

let error_to_string = function
  | Overloaded m -> Printf.sprintf "overloaded: %s" m
  | Closed m -> Printf.sprintf "closed: %s" m
  | Engine_error e -> Engine.Error.to_string e

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Serve.Error: %s" (error_to_string e))
    | _ -> None)

(* Every failure a service path can see, folded to the typed surface.
   Query and prepared-statement failures already arrive typed through the
   engine's result API; the catch-all hands anything else (a fault at a
   service site, an ingest error) to the engine's classifier, so no
   exception ever crosses a session boundary. *)
let error_of_exn = function Error e -> e | exn -> Engine_error (Engine.error_of_exn exn)

type epoch = {
  e_id : int;
  e_snap : Engine.snapshot;
  mutable e_pins : int;
  mutable e_retired : bool;  (* superseded: reclaim when pins reach 0 *)
  mutable e_reclaimed : bool;
}

type t = {
  writer : Engine.t;  (* ingest only: the catalog changes after every fallible step *)
  w_lock : Mutex.t;
  lock : Mutex.t;
  mutable current : epoch;
  mutable live : epoch list;  (* unreclaimed, newest first *)
  mutable sessions : session list;
  mutable next_session : int;
  mutable inflight : int;  (* admitted, unfinished queries service-wide *)
  mutable closed : bool;
  max_sessions : int;
  queue_depth : int;
  session_depth : int;
  view_cfg : Config.t;
  slow_log : (Profile.t -> unit) option;
  store : Store.t option;  (* durable WAL + checkpoints; None = in-memory *)
  checkpoint_every : int;  (* durable ingests between checkpoints; 0 = never *)
  mutable since_checkpoint : int;
}

and session = {
  s_id : int;
  s_svc : t;
  s_lock : Mutex.t;
  s_view : Engine.t;  (* pointed at the epoch of the session's running read *)
  mutable s_pin : epoch option;
  mutable s_outstanding : int;
  mutable s_closed : bool;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> default)
  | None -> default

let epoch_of_snapshot snap =
  {
    e_id = Engine.snapshot_epoch snap;
    e_snap = snap;
    e_pins = 0;
    e_retired = false;
    e_reclaimed = false;
  }

let create ?config ?max_sessions ?queue_depth ?(session_depth = 8) ?slow_log ?store
    ?checkpoint_every writer =
  let view_cfg = Option.value config ~default:(Engine.config writer) in
  let e = epoch_of_snapshot (Engine.snapshot writer) in
  {
    writer;
    w_lock = Mutex.create ();
    lock = Mutex.create ();
    current = e;
    live = [ e ];
    sessions = [];
    next_session = 0;
    inflight = 0;
    closed = false;
    max_sessions =
      (match max_sessions with Some n -> n | None -> env_int "LH_MAX_SESSIONS" 8);
    queue_depth = (match queue_depth with Some n -> n | None -> env_int "LH_QUEUE_DEPTH" 32);
    session_depth;
    view_cfg;
    slow_log;
    store;
    checkpoint_every =
      (match checkpoint_every with
      | Some n -> max 0 n
      | None -> env_int "LH_CHECKPOINT_EVERY" 0);
    since_checkpoint = 0;
  }

(* ------------------------------------------------------------------ *)
(* Epoch lifecycle. All called with [t.lock] held.                     *)

let reclaim_locked t e =
  if e.e_retired && e.e_pins = 0 && not e.e_reclaimed then begin
    Fault.hit fault_retire;
    e.e_reclaimed <- true;
    t.live <- List.filter (fun x -> x != e) t.live;
    Obs.incr c_retired
  end

let sweep_locked t =
  List.iter (fun e -> reclaim_locked t e) (List.filter (fun e -> e.e_retired) t.live)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let admit s =
  let t = s.s_svc in
  locked t.lock (fun () ->
      Obs.incr c_queries;
      Fault.hit fault_admit;
      if t.closed then raise (Error (Closed "service"));
      if s.s_closed then raise (Error (Closed "session"));
      if t.inflight >= t.queue_depth then begin
        Obs.incr c_rejected;
        raise (Error (Overloaded (Printf.sprintf "queue depth %d reached" t.queue_depth)))
      end;
      if s.s_outstanding >= t.session_depth then begin
        Obs.incr c_rejected;
        raise
          (Error (Overloaded (Printf.sprintf "session depth %d reached" t.session_depth)))
      end;
      t.inflight <- t.inflight + 1;
      s.s_outstanding <- s.s_outstanding + 1;
      Obs.incr c_admitted)

let release s =
  let t = s.s_svc in
  locked t.lock (fun () ->
      t.inflight <- t.inflight - 1;
      s.s_outstanding <- s.s_outstanding - 1)

(* ------------------------------------------------------------------ *)
(* Query execution                                                     *)

(* The epoch this query runs under, with its own transient pin — taken
   even when the session holds an explicit pin, so an [unpin] racing a
   submitted query can never let the epoch be reclaimed mid-query. *)
let pin_for_query s =
  let t = s.s_svc in
  locked t.lock (fun () ->
      let e = match s.s_pin with Some e -> e | None -> t.current in
      e.e_pins <- e.e_pins + 1;
      e)

(* Unpin after a query. A retire fault surfaces to this caller — its
   query may have succeeded, but the crash-only contract only promises a
   typed error to the one affected session; the epoch merely stays live
   until the next sweep. *)
let unpin_after t e result =
  match locked t.lock (fun () ->
            e.e_pins <- e.e_pins - 1;
            reclaim_locked t e)
  with
  | () -> result
  | exception exn -> Result.Error (error_of_exn exn)

(* The one step of every read: pin the epoch, point the session's view at
   it, run [f], classify, unpin. The view's plans and prepared statements
   survive the move; each re-plans only if a table it read was replaced.
   Called with [s_lock] held; never raises. *)
let on_epoch s f =
  let e = pin_for_query s in
  if Engine.epoch s.s_view <> e.e_id then Engine.set_snapshot s.s_view e.e_snap;
  let result =
    match f s.s_view with
    | Ok x -> Ok (x, e.e_id)
    | Result.Error err -> Result.Error (Engine_error err)
    | exception exn -> Result.Error (error_of_exn exn)
  in
  unpin_after s.s_svc e result

(* The one admission wrapper: the decision is taken now; the returned
   job runs [f] under the session lock and frees the admission slot. The
   job never raises, so it can run on the caller or on a pool worker. *)
let admitted s f =
  match admit s with
  | exception exn -> Result.Error (error_of_exn exn)
  | () ->
      Ok
        (fun () ->
          Fun.protect
            ~finally:(fun () -> release s)
            (fun () -> try locked s.s_lock f with exn -> Result.Error (error_of_exn exn)))

let admitted_now s f = Result.bind (admitted s f) (fun job -> job ())
let read s sql () = on_epoch s (fun v -> Engine.query_result v sql)
let query_epoch s sql = admitted_now s (read s sql)
let query s sql = Result.map fst (query_epoch s sql)

(* ------------------------------------------------------------------ *)
(* Asynchronous submission                                             *)

type 'a ticket = { tk_lock : Mutex.t; tk_cond : Condition.t; mutable tk_val : 'a option }

let ticket () = { tk_lock = Mutex.create (); tk_cond = Condition.create (); tk_val = None }

let fill tk v =
  locked tk.tk_lock (fun () ->
      tk.tk_val <- Some v;
      Condition.broadcast tk.tk_cond)

let await tk =
  locked tk.tk_lock (fun () ->
      while tk.tk_val = None do
        Condition.wait tk.tk_cond tk.tk_lock
      done;
      Option.get tk.tk_val)

let poll tk = locked tk.tk_lock (fun () -> tk.tk_val)

let submit s sql =
  let tk = ticket () in
  (match admitted s (read s sql) with
  | Result.Error _ as rejected -> fill tk rejected
  | Ok job ->
      let t0 = Timing.monotonic_now () in
      Pool.submit (Pool.global ()) ~group:s.s_id (fun () ->
          Hist.observe h_wait (Timing.monotonic_now () -. t0);
          fill tk (job ())));
  tk

(* ------------------------------------------------------------------ *)
(* Prepared statements                                                 *)

(* A statement on the session's view: it revalidates itself against the
   epoch the view points at when it runs. *)
type prepared = { pr_s : session; pr_stmt : Engine.stmt }

let prepare s sql =
  locked s.s_lock (fun () ->
      let t = s.s_svc in
      if locked t.lock (fun () -> t.closed || s.s_closed) then Result.Error (Closed "session")
      else
        Result.map
          (fun (st, _) -> { pr_s = s; pr_stmt = st })
          (on_epoch s (fun v -> Engine.prepare_result v sql)))

let exec_prepared p params =
  let s = p.pr_s in
  admitted_now s (fun () -> on_epoch s (fun _ -> Engine.Stmt.exec_result p.pr_stmt params))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

let open_session t =
  locked t.lock (fun () ->
      if t.closed then raise (Error (Closed "service"));
      if List.length t.sessions >= t.max_sessions then begin
        Obs.incr c_rejected;
        raise (Error (Overloaded (Printf.sprintf "max sessions %d reached" t.max_sessions)))
      end;
      (* One view per session: the budget is cloned and the slow-log sink
         installed once. *)
      let view = Engine.of_snapshot ~config:t.view_cfg t.current.e_snap in
      Engine.set_profile_sink view t.slow_log;
      let s =
        {
          s_id = t.next_session;
          s_svc = t;
          s_lock = Mutex.create ();
          s_view = view;
          s_pin = None;
          s_outstanding = 0;
          s_closed = false;
        }
      in
      t.next_session <- t.next_session + 1;
      t.sessions <- s :: t.sessions;
      Obs.incr c_sessions;
      s)

let session_id s = s.s_id

(* Epoch steps outside the read path run [reclaim_locked] too, so an
   armed [epoch.retire] (or its timeout/OOM kind) can fire there. [pin]
   and [unpin] hand it to their caller typed; the close paths ignore it
   and leave the epoch to the next sweep. *)
let on_fault ~recover f =
  try f () with
  | (Fault.Injected _ | Lh_util.Budget.Timed_out | Lh_util.Budget.Out_of_memory_budget) as exn ->
      recover exn

let typed exn = raise (Error (error_of_exn exn))
let ignored (_ : exn) = ()

let pin s =
  let t = s.s_svc in
  on_fault ~recover:typed (fun () ->
      locked t.lock (fun () ->
          if t.closed || s.s_closed then raise (Error (Closed "session"));
          let old = s.s_pin in
          let e = t.current in
          e.e_pins <- e.e_pins + 1;
          s.s_pin <- Some e;
          (match old with
          | Some oe ->
              oe.e_pins <- oe.e_pins - 1;
              reclaim_locked t oe
          | None -> ());
          e.e_id))

let unpin s =
  let t = s.s_svc in
  on_fault ~recover:typed (fun () ->
      locked t.lock (fun () ->
          match s.s_pin with
          | None -> ()
          | Some e ->
              s.s_pin <- None;
              e.e_pins <- e.e_pins - 1;
              reclaim_locked t e))

let pinned_epoch s =
  locked s.s_svc.lock (fun () -> Option.map (fun e -> e.e_id) s.s_pin)

let close_session s =
  let t = s.s_svc in
  locked s.s_lock (fun () ->
      locked t.lock (fun () ->
          if not s.s_closed then begin
            s.s_closed <- true;
            t.sessions <- List.filter (fun x -> x != s) t.sessions;
            match s.s_pin with
            | Some e ->
                s.s_pin <- None;
                e.e_pins <- e.e_pins - 1;
                on_fault ~recover:ignored (fun () -> reclaim_locked t e)
            | None -> ()
          end))

let close t =
  let sessions = locked t.lock (fun () ->
        t.closed <- true;
        t.sessions)
  in
  List.iter close_session sessions;
  locked t.lock (fun () -> on_fault ~recover:ignored (fun () -> sweep_locked t));
  (* Release the WAL last: every acknowledged batch is already at its
     sync point, this only forces the group-commit remainder down. *)
  match t.store with Some st -> (try Store.close st with Unix.Unix_error _ -> ()) | None -> ()

(* Graceful shutdown: refuse new work immediately, give in-flight
   queries a bounded drain window, then flush and fsync the WAL. Safe to
   call from a signal handler's main-loop continuation (not from the
   handler itself) and idempotent — a second call finds the service
   closed and inflight already drained. Returns [true] when the drain
   completed inside the deadline. *)
let shutdown ?(deadline = 5.0) t =
  locked t.lock (fun () -> t.closed <- true);
  let t0 = Timing.monotonic_now () in
  let rec drain () =
    if locked t.lock (fun () -> t.inflight) = 0 then true
    else if Timing.monotonic_now () -. t0 >= deadline then false
    else begin
      Unix.sleepf 0.005;
      drain ()
    end
  in
  let drained = drain () in
  close t;
  drained

(* ------------------------------------------------------------------ *)
(* Ingest                                                              *)

(* Durable half of an ingest: append the built table to the WAL (the
   record has reached the OS — the sync point — when [log_batch]
   returns) and take a periodic checkpoint of the whole catalog with the
   new table in place of the old one. Runs before the writer's catalog
   changes, so the acknowledgement the caller sees is ordered
   log → publish → ack. *)
let log_durable t (tbl : Table.t) =
  match t.store with
  | None -> ()
  | Some st ->
      let name = tbl.Table.name in
      let rows = Table.to_rows tbl in
      ignore (Store.log_batch st ~name ~schema:tbl.Table.schema rows);
      t.since_checkpoint <- t.since_checkpoint + 1;
      if t.checkpoint_every > 0 && t.since_checkpoint >= t.checkpoint_every then begin
        let others = List.filter (fun (n, _, _) -> n <> name) (Engine.dump t.writer) in
        Store.checkpoint st
          (List.sort
             (fun (a, _, _) (b, _, _) -> String.compare a b)
             ((name, tbl.Table.schema, rows) :: others));
        t.since_checkpoint <- 0
      end

(* Every fallible step of an ingest runs before the writer's catalog
   changes: build the table against the writer's dictionary without
   registering it, log it, take a due checkpoint, probe the publish
   site. A failure at any of them is a typed error with nothing to undo —
   readers keep the old epoch, the writer never saw the table (its
   append-only dictionary may keep strings the build interned, which no
   table refers to), and retrying publishes. Only then is the table registered and one
   snapshot published. A retry reuses the failed attempt's WAL sequence
   number — safe because Wal.append truncates a frame whose sync point
   failed before the error escapes, and replay dedup is
   last-occurrence-wins as a backstop. *)
let ingest_with t build =
  locked t.w_lock (fun () ->
      if locked t.lock (fun () -> t.closed) then Result.Error (Closed "service")
      else begin
        Obs.incr c_ingests;
        match
          let tbl = build (Engine.dict t.writer) in
          log_durable t tbl;
          Fault.hit fault_publish;
          tbl
        with
        | exception exn -> Result.Error (error_of_exn exn)
        | tbl -> (
            Engine.register t.writer tbl;
            let e = epoch_of_snapshot (Engine.snapshot t.writer) in
            locked t.lock (fun () ->
                t.current.e_retired <- true;
                t.current <- e;
                t.live <- e :: t.live;
                Obs.incr c_published);
            (* Sweep after the swap so a retire fault cannot
               unpublish the new epoch. *)
            match locked t.lock (fun () -> sweep_locked t) with
            | () -> Ok e.e_id
            | exception exn -> Result.Error (error_of_exn exn))
      end)

let ingest_rows t ~name ~schema rows =
  ingest_with t (fun dict -> Table.of_rows ~name ~schema ~dict rows)

let load_csv t ~name ~schema ?sep path =
  let domains = max 1 (Engine.config t.writer).Config.domains in
  ingest_with t (fun dict -> Table.load_csv ~name ~schema ~dict ~domains ?sep path)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let current_epoch t = locked t.lock (fun () -> t.current.e_id)

let epochs t =
  locked t.lock (fun () -> List.map (fun e -> (e.e_id, e.e_pins, e.e_retired)) t.live)

type stats = { st_sessions : int; st_inflight : int; st_epochs : int; st_current : int }

let stats t =
  locked t.lock (fun () ->
      {
        st_sessions = List.length t.sessions;
        st_inflight = t.inflight;
        st_epochs = List.length t.live;
        st_current = t.current.e_id;
      })
