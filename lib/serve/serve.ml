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

let c_sessions = Obs.counter "serve.sessions"
let c_queries = Obs.counter "serve.queries"
let c_admitted = Obs.counter "serve.admitted"
let c_rejected = Obs.counter "serve.rejected"
let c_ingests = Obs.counter "serve.ingests"
let c_published = Obs.counter "epoch.published"
let c_retired = Obs.counter "epoch.retired"
let h_wait = Hist.histogram "serve.queue_wait"

(* Crash-only surface (see the mli's fault-site notes): admit fires
   before admission mutates anything, publish after the writer committed
   but before the swap, retire before an epoch is reclaimed. *)
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
  mutable writer : Engine.t;  (* mutated only on durable-ingest rollback *)
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
  mutable s_views : (int * Engine.t) list;  (* epoch id -> view engine *)
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

let try_admit s = match admit s with () -> Ok () | exception exn -> Result.Error (error_of_exn exn)

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

(* One view engine per (session, epoch): private plan/trie/dense caches
   with session lifetime, so repeated shapes hit warm plans without any
   cross-session sharing. Called with [s_lock] held. Views of reclaimed
   epochs are pruned as newer ones are created. *)
let view_for s e =
  match List.assoc_opt e.e_id s.s_views with
  | Some v -> v
  | None ->
      let v = Engine.of_snapshot ~config:s.s_svc.view_cfg e.e_snap in
      (match s.s_svc.slow_log with
      | Some sink -> Engine.set_profile_sink v (Some sink)
      | None -> ());
      let live_ids =
        locked s.s_svc.lock (fun () -> List.map (fun e -> e.e_id) s.s_svc.live)
      in
      s.s_views <-
        (e.e_id, v) :: List.filter (fun (id, _) -> List.mem id live_ids) s.s_views;
      v

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

(* Core of every read: pin, run on the epoch's view, unpin. Called with
   [s_lock] held; never raises. *)
let query_epoch_locked s sql =
  let t = s.s_svc in
  let e = pin_for_query s in
  let result =
    match
      let v = view_for s e in
      Engine.query_result v sql
    with
    | Ok table -> Ok (table, e.e_id)
    | Result.Error err -> Result.Error (Engine_error err)
    | exception exn -> Result.Error (error_of_exn exn)
  in
  unpin_after t e result

let query_epoch s sql =
  match try_admit s with
  | Result.Error _ as e -> e
  | Ok () ->
      Fun.protect
        ~finally:(fun () -> release s)
        (fun () -> locked s.s_lock (fun () -> query_epoch_locked s sql))

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
  (match try_admit s with
  | Result.Error _ as e -> fill tk e
  | Ok () ->
      let t0 = Timing.monotonic_now () in
      Pool.submit (Pool.global ()) ~group:s.s_id (fun () ->
          Hist.observe h_wait (Timing.monotonic_now () -. t0);
          let r =
            try locked s.s_lock (fun () -> query_epoch_locked s sql)
            with exn -> Result.Error (error_of_exn exn)
          in
          (try release s with _ -> ());
          fill tk r));
  tk

(* ------------------------------------------------------------------ *)
(* Prepared statements                                                 *)

type prepared = {
  pr_s : session;
  pr_sql : string;
  mutable pr_cache : (int * Engine.stmt) option;  (* epoch id it was planned under *)
}

(* Plan (or re-plan) [p] against epoch [e]'s view. A statement planned
   under an older epoch is silently re-prepared — the service-level
   analogue of Engine's epoch-based statement revalidation. Called with
   [s_lock] held. *)
let stmt_for p e =
  match p.pr_cache with
  | Some (id, st) when id = e.e_id -> Ok st
  | _ ->
      Result.map
        (fun st ->
          p.pr_cache <- Some (e.e_id, st);
          st)
        (Engine.prepare_result (view_for p.pr_s e) p.pr_sql)

let prepare s sql =
  locked s.s_lock (fun () ->
      let t = s.s_svc in
      if locked t.lock (fun () -> t.closed || s.s_closed) then
        Result.Error (Closed "session")
      else begin
        let e = pin_for_query s in
        let p = { pr_s = s; pr_sql = sql; pr_cache = None } in
        let result =
          match stmt_for p e with
          | Ok _ -> Ok p
          | Result.Error err -> Result.Error (Engine_error err)
          | exception exn -> Result.Error (error_of_exn exn)
        in
        unpin_after t e result
      end)

let exec_prepared p params =
  let s = p.pr_s in
  match try_admit s with
  | Result.Error _ as e -> e
  | Ok () ->
      Fun.protect
        ~finally:(fun () -> release s)
        (fun () ->
          locked s.s_lock (fun () ->
              let t = s.s_svc in
              let e = pin_for_query s in
              let result =
                match Result.bind (stmt_for p e) (fun st -> Engine.Stmt.exec_result st params) with
                | Ok table -> Ok (table, e.e_id)
                | Result.Error err -> Result.Error (Engine_error err)
                | exception exn -> Result.Error (error_of_exn exn)
              in
              unpin_after t e result))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

let open_session t =
  locked t.lock (fun () ->
      if t.closed then raise (Error (Closed "service"));
      if List.length t.sessions >= t.max_sessions then begin
        Obs.incr c_rejected;
        raise (Error (Overloaded (Printf.sprintf "max sessions %d reached" t.max_sessions)))
      end;
      let s =
        {
          s_id = t.next_session;
          s_svc = t;
          s_lock = Mutex.create ();
          s_views = [];
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

let pin s =
  let t = s.s_svc in
  match
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
        e.e_id)
  with
  | id -> id
  | exception
      ((Fault.Injected _ | Lh_util.Budget.Timed_out | Lh_util.Budget.Out_of_memory_budget) as
       exn) ->
      raise (Error (error_of_exn exn))

let unpin s =
  let t = s.s_svc in
  match
    locked t.lock (fun () ->
        match s.s_pin with
        | None -> ()
        | Some e ->
            s.s_pin <- None;
            e.e_pins <- e.e_pins - 1;
            reclaim_locked t e)
  with
  | () -> ()
  | exception
      ((Fault.Injected _ | Lh_util.Budget.Timed_out | Lh_util.Budget.Out_of_memory_budget) as
       exn) ->
      raise (Error (error_of_exn exn))

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
                (* Cleanup path: a retire fault here leaves the epoch to
                   the next sweep rather than failing the close. *)
                (try reclaim_locked t e with
                | Fault.Injected _ | Lh_util.Budget.Timed_out
                | Lh_util.Budget.Out_of_memory_budget ->
                  ())
            | None -> ()
          end);
      s.s_views <- [])

let close t =
  let sessions = locked t.lock (fun () ->
        t.closed <- true;
        t.sessions)
  in
  List.iter close_session sessions;
  locked t.lock (fun () ->
      try sweep_locked t with
      | Fault.Injected _ | Lh_util.Budget.Timed_out | Lh_util.Budget.Out_of_memory_budget -> ());
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

(* Durable half of an ingest: append the committed table to the WAL
   (the record has reached the OS — the sync point — when [log_batch]
   returns) and take a periodic checkpoint of the whole catalog. Runs
   between writer commit and publish, so the acknowledgement the caller
   sees is ordered log → publish → ack. *)
let log_durable t (tbl : Lh_storage.Table.t) =
  match t.store with
  | None -> ()
  | Some st ->
      ignore
        (Store.log_batch st ~name:tbl.Lh_storage.Table.name
           ~schema:tbl.Lh_storage.Table.schema (Lh_storage.Table.to_rows tbl));
      t.since_checkpoint <- t.since_checkpoint + 1;
      if t.checkpoint_every > 0 && t.since_checkpoint >= t.checkpoint_every then begin
        Store.checkpoint st (Engine.dump t.writer);
        t.since_checkpoint <- 0
      end

let ingest_with t ingest =
  locked t.w_lock (fun () ->
      if locked t.lock (fun () -> t.closed) then Result.Error (Closed "service")
      else begin
        Obs.incr c_ingests;
        (* With a durable store attached, a failure after the writer
           committed but before the ack must leave no trace in memory:
           the recovered state may legitimately contain the unacked
           batch (it is complete on disk once logged), but the live
           writer rolls back to the published snapshot so a later
           checkpoint cannot leak never-logged state. *)
        let pre = match t.store with None -> None | Some _ -> Some (Engine.snapshot t.writer) in
        let rollback () =
          match pre with
          | Some snap -> t.writer <- Engine.of_snapshot ~config:(Engine.config t.writer) snap
          | None -> ()
        in
        match ingest () with
        | exception exn -> Result.Error (error_of_exn exn)
        | (tbl : Lh_storage.Table.t) -> (
            (* The writer has committed. A fault in the durable log, the
               checkpoint or the publish probe means the new state was
               never acknowledged: the caller gets a typed error, readers
               keep the old epoch, and retrying the ingest (idempotent
               re-register) publishes it. The retry reuses the failed
               attempt's WAL sequence number — safe because Wal.append
               truncates a frame whose sync point failed before the
               error escapes, and replay dedup is last-occurrence-wins
               as a backstop. *)
            match
              log_durable t tbl;
              Fault.hit fault_publish
            with
            | exception exn ->
                rollback ();
                Result.Error (error_of_exn exn)
            | () -> (
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
                | exception exn -> Result.Error (error_of_exn exn)))
      end)

let ingest_rows t ~name ~schema rows =
  ingest_with t (fun () -> Engine.register_rows t.writer ~name ~schema rows)

let load_csv t ~name ~schema ?sep path =
  ingest_with t (fun () -> Engine.load_csv t.writer ~name ~schema ?sep path)

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
