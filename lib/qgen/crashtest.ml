module L = Levelheaded
module Fault = Lh_fault.Fault
module Obs = Lh_obs.Obs
module Table = Lh_storage.Table
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Serve = Lh_serve.Serve
module Store = Lh_durable.Store
module Wal = Lh_durable.Wal

let c_requery_ok = Obs.counter "recover.requery_ok"

type outcome = Passed | Excused of string | Failed of string
type site_report = { sr_site : string; sr_outcome : outcome }
type summary = { s_seed : int; s_sites : site_report list }

(* How to reach each site. [Query shapes] searches fuzzer-generated
   queries of those shapes on the pinned dataset; [Pinned sql] runs one
   fixed query on the layout-stress dataset (for sites only specific
   trie/kernel dispositions reach); [Kernel] calls the CSR kernels
   directly (no generated query is guaranteed to route through them);
   [Ingest] loads a temporary CSV into a fresh engine; [Serving] drives a
   two-session Lh_serve service through the admission / epoch lifecycle;
   [Durable] drives a store-attached service through a faulted durable
   ingest and then re-opens the directory to prove recovery; [Recovery]
   arms a site that only fires inside {!Lh_durable.Store.open_dir}
   itself. *)
type scenario =
  | Query of Gen.shape list
  | Pinned of string
  | Kernel
  | Ingest
  | Serving
  | Durable
  | Recovery

(* Triangle count over the distinct-key dense stress matrix: position 0 has
   two participants (r0.row ∩ r2.col → a buffered inter_into) and the
   leaf-unit tries make the innermost level a count-only leaf — the only
   query shape that deterministically reaches both specialized-kernel
   sites. *)
let triangle_count_sql =
  "select count(*) as a0 from ls_d r0, ls_d r1, ls_d r2 \
   where r0.col = r1.row and r1.col = r2.row and r2.col = r0.row"

(* A (min,+) path-relaxation join: the owned annotation factors keep the
   leaf in stream mode, so every group's value passes through the
   per-leaf semiring ⊕-fold — the [exec.semiring.fold] site. *)
let semiring_fold_sql =
  "select r0.row as a0, min_plus(r0.v + r1.v) as a1 from ls_d r0, ls_d r1 \
   where r0.col = r1.row group by r0.row"

let scenarios =
  [
    ("engine.query", Query [ Gen.Scan; Gen.Chain ]);
    ("engine.prepare", Query [ Gen.Scan; Gen.Chain ]);
    ("engine.bind", Query [ Gen.Scan; Gen.Chain ]);
    ("plan_cache.fill", Query [ Gen.Scan; Gen.Chain ]);
    ("exec.scan.row", Query [ Gen.Scan ]);
    ("exec.wcoj.leaf", Query [ Gen.Chain; Gen.Star; Gen.Cycle ]);
    ("exec.wcoj.count", Pinned triangle_count_sql);
    ("exec.semiring.fold", Pinned semiring_fold_sql);
    ("set.inter_into", Pinned triangle_count_sql);
    ("trie.build.node", Query [ Gen.Chain; Gen.Star ]);
    ("blas.dispatch", Query [ Gen.La ]);
    ("dense.gemv", Query [ Gen.La ]);
    ("dense.gemm", Query [ Gen.La ]);
    ("pool.chunk", Query [ Gen.Chain; Gen.La ]);
    ("csr.spmv", Kernel);
    ("csr.spgemm", Kernel);
    ("csv.line", Ingest);
    ("ingest.row", Ingest);
    ("serve.admit", Serving);
    ("epoch.publish", Serving);
    ("epoch.retire", Serving);
    ("wal.append", Durable);
    ("wal.fsync", Durable);
    ("checkpoint.write", Durable);
    ("wal.reset", Durable);
    ("wal.replay", Recovery);
    ("checkpoint.load", Recovery);
  ]

let kinds = [ Fault.Generic; Fault.Timeout; Fault.Oom ]
let kind_str = Fault.kind_to_string
let sql_of_ast ast = Format.asprintf "%a" Lh_sql.Ast.pp_query ast
let ( >>= ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Bit-identical row-set equality: the recovery contract is exact, not
   tolerance-based — the re-run takes the very same code path as the clean
   run, so even float summation order must agree. *)
let rows_identical a b = Rows.canonical a = Rows.canonical b

let answer eng sql =
  match L.Engine.query_result eng sql with
  | Ok t -> Table.to_rows t
  | Error e -> failwith ("clean query failed: " ^ L.Engine.Error.to_string e)

(* Re-run [sql] on the engine that absorbed the fault. *)
let requery eng sql clean_rows =
  match L.Engine.query_result eng sql with
  | Ok t when rows_identical (Table.to_rows t) clean_rows -> Ok ()
  | Ok _ -> Error "re-query differs from a clean engine's answer"
  | Error e -> Error ("re-query on the faulted engine failed: " ^ L.Engine.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* The crash-only protocol                                              *)

(* Raw exceptions of steps whose contract is to raise. Budget exceptions
   are mapped here, not by [Engine.error_of_exn]: the steps that raise them
   raw (CSR kernels, CSV ingest, store recovery) are not engine query
   paths, so a regression in the engine's own classifier shows at the
   engine's sites only. *)
let error_of_exn = function
  | Serve.Error e -> e
  | Lh_util.Budget.Timed_out | Lh_util.Budget.Out_of_memory_budget ->
      Serve.Engine_error L.Engine.Error.Budget_exceeded
  | e -> Serve.Engine_error (L.Engine.error_of_exn e)

let raising f = match f () with v -> Ok v | exception e -> Error (error_of_exn e)

(* The one classifier: the typed error each fault kind promises. *)
let classify ~site kind (e : Serve.error) =
  match (kind, e) with
  | Fault.Generic, Serve.Engine_error (L.Engine.Error.Fault_injected s) when s = site -> Ok ()
  | (Fault.Timeout | Fault.Oom), Serve.Engine_error L.Engine.Error.Budget_exceeded -> Ok ()
  | _ -> Error ("expected the typed fault error, got: " ^ Serve.error_to_string e)

let trial ?(trigger = Fault.Nth 1) ?(release = ignore) ~site ~fixture ~step ~check () =
  let rec go = function
    | [] -> Some Passed
    | kind :: rest -> (
        Fault.disarm_all ();
        let fx = fixture () in
        let verdict =
          Fun.protect
            ~finally:(fun () -> release fx)
            (fun () ->
              Fault.arm ~kind ~trigger site;
              let res = try Ok (step fx) with e -> Error e in
              let fired = Fault.fired site > 0 in
              Fault.disarm_all ();
              match res with
              | Error e -> `Failed ("unhandled exception escaped the step: " ^ Printexc.to_string e)
              | Ok _ when not fired ->
                  (* the first kind doubles as the reachability probe; the
                     fixture and step are deterministic, so the later kinds
                     must reach the site too *)
                  if kind = Fault.Generic then `Unreached else `Failed "site unreached on replay"
              | Ok (Ok _) -> `Failed "the fault fired but the step succeeded (silently swallowed)"
              | Ok (Error e) -> (
                  match classify ~site kind e >>= fun () -> check kind fx with
                  | Ok () ->
                      Obs.incr c_requery_ok;
                      `Recovered
                  | Error m -> `Failed m))
        in
        match verdict with
        | `Recovered -> go rest
        | `Unreached -> None
        | `Failed m -> Some (Failed (Printf.sprintf "%s: %s" (kind_str kind) m)))
  in
  go kinds

(* Every scenario but the query search must reach its site. *)
let reached = function Some o -> o | None -> Failed "generic: the step never reached the site"

(* ------------------------------------------------------------------ *)
(* Query scenarios                                                      *)

(* The faulted run executes with telemetry on and a threshold-0 slow-query
   sink installed: even a query that dies to an injected fault or budget
   overrun must emit a profile record whose JSONL line parses back through
   lib/obs/json.ml with the matching outcome tag. *)
let check_slow_log ~kind lines =
  match lines with
  | [] -> Error "no slow-log line produced for the faulted query"
  | lines -> (
      let expect =
        match kind with Fault.Generic -> "fault" | Fault.Timeout | Fault.Oom -> "budget"
      in
      let bad =
        List.filter_map
          (fun line ->
            match Lh_obs.Json.parse line with
            | exception Lh_obs.Json.Parse_error m ->
                Some (Printf.sprintf "unparseable slow-log line (%s): %s" m line)
            | j -> (
                match Lh_obs.Json.member "outcome" j with
                | Some (Lh_obs.Json.String o) when o = expect -> None
                | Some (Lh_obs.Json.String o) ->
                    Some (Printf.sprintf "slow-log outcome %S (want %S)" o expect)
                | _ -> Some "slow-log line missing \"outcome\""))
          lines
      in
      match bad with [] -> Ok () | m :: _ -> Error m)

(* Fresh engine, the faulted query, then the slow-log record and a re-run
   of the same query on the same engine, which must match the clean answer. *)
let query_trial ?(layout_stress = false) ~site sql clean_rows =
  trial ~site
    ~fixture:(fun () ->
      let eng = Dataset.build ~layout_stress () in
      L.Engine.set_config eng { (L.Engine.config eng) with L.Config.slow_log_ms = 0.0 };
      let lines = ref [] in
      L.Engine.set_profile_sink eng (Some (fun p -> lines := L.Profile.to_string p :: !lines));
      (eng, lines))
    ~step:(fun (eng, _) ->
      let res = Obs.with_enabled true (fun () -> L.Engine.query_result eng sql) in
      Obs.clear_spans ();
      L.Engine.set_profile_sink eng None;
      Result.map_error (fun e -> Serve.Engine_error e) res)
    ~check:(fun kind (eng, lines) ->
      check_slow_log ~kind !lines >>= fun () -> requery eng sql clean_rows)
    ()

(* One candidate query at (seed, index): [None] when it fails on a clean
   engine or never reaches the site, and the search moves on. *)
let try_one ~seed ~index ~spec ~site ~profile =
  let sql = sql_of_ast (fst (Gen.generate profile ~seed ~index spec)) in
  match L.Engine.query_result (Dataset.build ()) sql with
  | Error _ -> None
  | Ok t -> query_trial ~site sql (Table.to_rows t)

let query_site ~attempts ~seed site shapes =
  let dflt = L.Config.default in
  if site = "pool.chunk" && dflt.L.Config.domains <= 1 then
    Excused "requires domains > 1 (covered by the LH_DOMAINS=4 leg)"
  else if site = "plan_cache.fill" && dflt.L.Config.plan_cache_capacity = 0 then
    Excused "requires the plan cache on (LH_PLAN_CACHE=0 never installs a plan)"
  else begin
    let spec = { Gen.shapes; Gen.max_relations = 3; Gen.semiring = true } in
    let profile = Dataset.profile (Dataset.build ()) in
    let rec search index =
      if index >= attempts then
        Failed (Printf.sprintf "no generated query reached the site in %d attempts" attempts)
      else
        match try_one ~seed ~index ~spec ~site ~profile with
        | Some o -> o
        | None -> search (index + 1)
    in
    search 0
  end

(* A pinned query on the layout-stress dataset must reach its site
   deterministically — "unreached" is a failure here, not a retry. *)
let pinned_site ~site sql =
  match L.Engine.query_result (Dataset.build ~layout_stress:true ()) sql with
  | Error e -> Failed ("pinned query failed on a clean engine: " ^ L.Engine.Error.to_string e)
  | Ok t -> reached (query_trial ~layout_stress:true ~site sql (Table.to_rows t))

(* ------------------------------------------------------------------ *)
(* Kernel scenarios: the CSR kernels are not reachable through the SQL
   surface (the engine's BLAS targeting is dense-only), so they are
   exercised by direct calls on a small fixed matrix.                   *)

let kernel_site site =
  let domains = max 1 L.Config.default.L.Config.domains in
  let coo =
    Lh_blas.Coo.create ~nrows:6 ~ncols:6
      ~row:[| 0; 0; 1; 2; 2; 3; 4; 5; 5 |]
      ~col:[| 1; 3; 2; 0; 5; 4; 1; 0; 2 |]
      ~value:[| 1.5; -2.0; 3.25; 0.5; 4.0; -1.25; 2.75; 6.0; -0.5 |]
  in
  let a = Lh_blas.Csr.of_coo coo in
  let x = Array.init 6 (fun i -> float_of_int (i + 1) *. 0.5) in
  let run () =
    match site with
    | "csr.spmv" -> `V (Lh_blas.Csr.spmv ~domains a x)
    | _ -> `M (Lh_blas.Csr.spgemm ~domains a a)
  in
  let clean = run () in
  reached
    (trial ~site ~fixture:ignore
       ~step:(fun () -> raising run)
       ~check:(fun _ () ->
         if run () = clean then Ok () else Error "re-run differs from clean result")
       ())

(* ------------------------------------------------------------------ *)
(* Ingest scenarios: a fault mid-load must leave the catalog without the
   table; reloading on the same engine must then produce the clean
   catalog and answers.                                                 *)

let ingest_site site =
  let path = Filename.temp_file "lh_crashtest" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      for i = 0 to 7 do
        Printf.fprintf oc "%d,%d,%g\n" i (i * 3 mod 8) (float_of_int (i + 1) *. 1.5)
      done;
      close_out oc;
      let schema =
        Schema.create
          [
            ("i", Dtype.Int, Schema.Key);
            ("j", Dtype.Int, Schema.Key);
            ("v", Dtype.Float, Schema.Annotation);
          ]
      in
      let sql = "select sum(v) as s from t" in
      let load eng = ignore (L.Engine.load_csv eng ~name:"t" ~schema path) in
      let clean = L.Engine.create () in
      load clean;
      let clean_rows = answer clean sql in
      reached
        (trial ~site
           (* Nth 3: abort mid-file, after some rows are already staged. *)
           ~trigger:(Fault.Nth 3) ~fixture:L.Engine.create
           ~step:(fun eng -> raising (fun () -> load eng))
           ~check:(fun _ eng ->
             if L.Catalog.find (L.Engine.catalog eng) "t" <> None then
               Error "partial table registered after aborted ingest"
             else begin
               load eng;
               requery eng sql clean_rows
             end)
           ()))

(* ------------------------------------------------------------------ *)
(* Service scenarios: each site must uphold the crash-only contract at
   the service level — a typed error to the one affected caller, every
   other session unaffected, and full recovery (bit-identical answers)
   once the fault clears. They share one t(k, v) fixture: generation [g]
   replaces t with [t_rows g], and [t_clean g], a plain sequential engine
   after the acknowledged generations 0..g, is the answer the service
   must give before, around and after the fault.                        *)

let t_schema =
  Schema.create [ ("k", Dtype.Int, Schema.Key); ("v", Dtype.Float, Schema.Annotation) ]

let t_rows g =
  List.init (4 + g) (fun i -> [ Dtype.VInt i; Dtype.VFloat (float_of_int ((i + 1) * (g + 1))) ])

let t_sql = "select sum(v) as s from t"
let t_batches g = List.init (g + 1) (fun k -> ("t", t_schema, t_rows k))
let t_clean g = answer (Dataset.oracle (t_batches g)) t_sql

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let temp_dir () =
  let dir = Filename.temp_file "lh_crashtest" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

type service = {
  svc : Serve.t;
  victim : Serve.session;
  survivor : Serve.session;
  e0 : int;  (** the epoch served before the faulted step *)
  dir : string option;  (** the store directory of a durable service *)
  mutable armed : (unit, string) result;  (** a check the step made while armed *)
}

(* With [dir], a store is attached: [Always] puts wal.fsync on every
   append's hot path; checkpoint_every 1 puts checkpoint.write and
   wal.reset on every durable ingest's. The store opens in the fixture,
   before the site is armed, so only the step's own hits count. *)
let service ?dir () =
  let store = Option.map (fun d -> fst (Store.open_dir ~sync:Wal.Always d)) dir in
  let eng = L.Engine.create ~config:{ L.Config.default with L.Config.domains = 1 } () in
  ignore (L.Engine.register_rows eng ~name:"t" ~schema:t_schema (t_rows 0));
  let svc = Serve.create ?store ~checkpoint_every:1 eng in
  let victim = Serve.open_session svc in
  let survivor = Serve.open_session svc in
  { svc; victim; survivor; e0 = Serve.current_epoch svc; dir; armed = Ok () }

let release f =
  Serve.close f.svc;
  Option.iter rm_rf f.dir

let ingest f g = Serve.ingest_rows f.svc ~name:"t" ~schema:t_schema (t_rows g)

let ingest_ok what f g =
  match ingest f g with
  | Ok _ -> Ok ()
  | Error e -> Error (what ^ " failed: " ^ Serve.error_to_string e)

let check_q name sess g =
  match Serve.query sess t_sql with
  | Ok t when rows_identical (Table.to_rows t) (t_clean g) -> Ok ()
  | Ok _ -> Error (name ^ ": rows differ from the clean answer")
  | Error e -> Error (Printf.sprintf "%s: %s" name (Serve.error_to_string e))

(* A failed ingest publishes nothing: the survivor still reads the old
   epoch, the next publish of another table does not carry the failed
   batch along, and retrying the ingest publishes cleanly. *)
let check_rollback f =
  if Serve.current_epoch f.svc <> f.e0 then Error "epoch advanced despite the failed ingest"
  else
    check_q "survivor on the old epoch" f.survivor 0 >>= fun () ->
    (match Serve.ingest_rows f.svc ~name:"u" ~schema:t_schema (t_rows 1) with
    | Ok _ -> Ok ()
    | Error e -> Error ("unrelated ingest failed: " ^ Serve.error_to_string e))
    >>= fun () ->
    check_q "survivor after an unrelated publish" f.survivor 0 >>= fun () ->
    ingest_ok "re-ingest" f 1 >>= fun () -> check_q "post-recovery" f.survivor 1

(* Re-open the store directory and demand a freshly recovered engine
   answers exactly like the oracle after generation [g]. *)
let check_recovery dir g =
  let store, recovered = Store.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      let eng = L.Engine.create () in
      Store.replay_into recovered (fun ~name ~schema rows ->
          ignore (L.Engine.register_rows eng ~name ~schema rows));
      match L.Engine.query_result eng t_sql with
      | Ok t when rows_identical (Table.to_rows t) (t_clean g) -> Ok ()
      | Ok _ -> Error "recovered engine differs from the clean answer"
      | Error e -> Error ("recovered query failed: " ^ L.Engine.Error.to_string e))

let serve_site site =
  let trial ~fixture ~step ~check = reached (trial ~site ~release ~fixture ~step ~check ()) in
  match site with
  | "serve.admit" ->
      trial ~fixture:service
        ~step:(fun f ->
          let res = Serve.query f.victim t_sql in
          (* Nth 1 is consumed: the very next admission — the surviving
             session's — must sail through while the site is still armed. *)
          f.armed <- check_q "survivor" f.survivor 0;
          res)
        ~check:(fun _ f -> f.armed >>= fun () -> check_q "victim re-query" f.victim 0)
  | "epoch.publish" ->
      trial ~fixture:service ~step:(fun f -> ingest f 1) ~check:(fun _ -> check_rollback)
  | _ (* epoch.retire *) ->
      (* the victim's pin is the only thing keeping epoch 0 alive; the
         armed retire fault fires when unpin reclaims it *)
      trial
        ~fixture:(fun () ->
          let f = service () in
          ignore (Serve.pin f.victim);
          match ingest f 1 with
          | Ok _ -> f
          | Error e -> failwith ("setup ingest failed: " ^ Serve.error_to_string e))
        ~step:(fun f -> raising (fun () -> Serve.unpin f.victim))
        ~check:(fun _ f ->
          (* the epoch merely leaked; both sessions keep answering on the
             current epoch … *)
          check_q "victim after retire fault" f.victim 1 >>= fun () ->
          check_q "survivor after retire fault" f.survivor 1 >>= fun () ->
          (* … and the next publish sweeps the leak *)
          ingest_ok "sweep ingest" f 2 >>= fun () ->
          if List.length (Serve.epochs f.svc) <> 1 then
            Error "leaked epoch not reclaimed by the next sweep"
          else check_q "post-sweep" f.victim 2)

(* A durable step may hit its site several times (wal.fsync: the append's
   sync point and the checkpoint's WAL reset), and each hit must uphold
   the contract. Count the hits one clean step makes on a fresh fixture,
   with a trigger that never fires, then run the trial at every one. *)
let sweep ~site ~release ~fixture ~step ~check =
  let hits =
    let fx = fixture () in
    Fun.protect
      ~finally:(fun () ->
        Fault.disarm_all ();
        release fx)
      (fun () ->
        Fault.arm ~trigger:(Fault.Nth max_int) site;
        ignore (step fx);
        Fault.hits site)
  in
  let rec go k =
    if k > hits then Passed
    else
      match reached (trial ~trigger:(Fault.Nth k) ~site ~release ~fixture ~step ~check ()) with
      | Failed m -> Failed (Printf.sprintf "nth=%d: %s" k m)
      | Passed | Excused _ -> go (k + 1)
  in
  if hits = 0 then reached None else go 1

(* Durable scenarios: the WAL / checkpoint fault sites must uphold the
   durability contract — a faulted durable ingest surfaces as the typed
   error, the served epoch and the live writer are untouched, retrying
   publishes cleanly, and a restart on the same directory recovers the
   last acknowledged state bit-identically. *)
let durable_site site =
  sweep ~site ~release
    ~fixture:(fun () -> service ~dir:(temp_dir ()) ())
    ~step:(fun f -> ingest f 1)
    ~check:(fun _ f ->
      check_rollback f >>= fun () ->
      (* Restart: close the service (and its store), then recover the
         directory from scratch. *)
      Serve.close f.svc;
      check_recovery (Option.get f.dir) 1)

(* Recovery-path sites (wal.replay, checkpoint.load) only fire inside
   [Store.open_dir]: seed a directory with durable state, arm, and demand
   the faulted open fails with the typed error without corrupting
   anything — the next open must recover everything. *)
let recovery_site site =
  sweep ~site ~release:rm_rf
    ~fixture:(fun () ->
      let dir = temp_dir () in
      let store, _ = Store.open_dir ~sync:(Wal.Group 2) dir in
      List.iteri
        (fun g (name, schema, rows) ->
          ignore (Store.log_batch store ~name ~schema rows);
          if g = 0 && site = "checkpoint.load" then Store.checkpoint store [ (name, schema, rows) ])
        (t_batches 2);
      Store.close store;
      dir)
    ~step:(fun dir -> raising (fun () -> Store.close (fst (Store.open_dir dir))))
    ~check:(fun _ dir -> check_recovery dir 2)

(* ------------------------------------------------------------------ *)

let run ?(progress = fun _ -> ()) ?(attempts = 40) ?site ~seed () =
  Fault.disarm_all ();
  let wanted s = match site with None -> true | Some pat -> Fault.glob_match ~pattern:pat s in
  let registered = Fault.registered () in
  let scenario_names = List.map fst scenarios in
  let reports =
    List.filter_map
      (fun (site, scen) ->
        if not (wanted site) then None
        else begin
          progress (Printf.sprintf "crashtest %s" site);
          let outcome =
            if not (List.mem site registered) then
              Failed "site not registered in this binary (renamed or dead code?)"
            else
              try
                match scen with
                | Query shapes -> query_site ~attempts ~seed site shapes
                | Pinned sql -> pinned_site ~site sql
                | Kernel -> kernel_site site
                | Ingest -> ingest_site site
                | Serving -> serve_site site
                | Durable -> durable_site site
                | Recovery -> recovery_site site
              with e -> Failed ("harness exception: " ^ Printexc.to_string e)
          in
          Some { sr_site = site; sr_outcome = outcome }
        end)
      scenarios
  in
  (* Coverage is part of the contract: a site someone registers without
     teaching the harness how to reach it fails loudly, here. The [test.*]
     prefix is reserved for the fault registry's own unit tests
     (test/test_fault.ml registers synthetic sites in-process). *)
  let uncovered =
    List.filter
      (fun s ->
        wanted s
        && (not (List.mem s scenario_names))
        && not (Fault.glob_match ~pattern:"test.*" s))
      registered
    |> List.map (fun s ->
           { sr_site = s; sr_outcome = Failed "registered fault site has no crashtest scenario" })
  in
  Fault.disarm_all ();
  { s_seed = seed; s_sites = reports @ uncovered }

let ok s =
  List.for_all (fun r -> match r.sr_outcome with Failed _ -> false | _ -> true) s.s_sites

let to_text s =
  let b = Buffer.create 512 in
  let failed = ref 0 and excused = ref 0 in
  List.iter
    (fun r ->
      let status, detail =
        match r.sr_outcome with
        | Passed -> ("PASS", "")
        | Excused m ->
            incr excused;
            ("SKIP", m)
        | Failed m ->
            incr failed;
            ("FAIL", m)
      in
      Buffer.add_string b
        (Printf.sprintf "  [%s] %-18s%s\n" status r.sr_site
           (if detail = "" then "" else " " ^ detail)))
    s.s_sites;
  Buffer.add_string b
    (Printf.sprintf "crashtest seed %d: %d sites, %d failed, %d excused\n" s.s_seed
       (List.length s.s_sites) !failed !excused);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Kill-and-restart harness: drives a real lhserve child process over
   pipes, SIGKILLs it mid-ingest at an LH_KILL-selected point (see
   Lh_durable.Kill), restarts it on the same --data-dir and asserts that
   every *acknowledged* batch is query-visible and bit-identical to a
   sequential oracle rebuilt from the ack transcript. The one batch in
   flight at the kill may be absent or — when its WAL frame completed —
   present; it is never partial, and never reordered.                   *)

type kill_scenario = {
  ks_name : string;
  ks_kill : string option;  (** LH_KILL for the ingest phase *)
  ks_recover_kill : string option;  (** LH_KILL for a crash-during-recovery restart *)
  ks_sync : string;
  ks_ckpt : int;  (** --checkpoint-every, 0 = never *)
}

(* One scenario per kill point: each registered durable site is hit both
   as a clean pre-write kill and (where a torn artifact is possible) as a
   deterministic partial write; the two recovery sites are killed during
   a restart's own replay. [count] ingest batches; the mid-stream kills
   trigger around batch count/2 so acked batches exist on both sides. *)
let kill_scenarios ~count =
  let mid = (count / 2) + 1 in
  let k fmt = Printf.ksprintf (fun s -> Some s) fmt in
  [
    { ks_name = "wal.append/pre"; ks_kill = k "wal.append:nth=%d" mid; ks_recover_kill = None;
      ks_sync = "group:2"; ks_ckpt = 0 };
    { ks_name = "wal.append/torn-header"; ks_kill = k "wal.append:nth=%d:torn=5" mid;
      ks_recover_kill = None; ks_sync = "group:2"; ks_ckpt = 0 };
    { ks_name = "wal.append/torn-payload"; ks_kill = k "wal.append:nth=2:torn=25";
      ks_recover_kill = None; ks_sync = "always"; ks_ckpt = 0 };
    { ks_name = "wal.append/torn-none-sync"; ks_kill = k "wal.append:nth=%d:torn=17" mid;
      ks_recover_kill = None; ks_sync = "none"; ks_ckpt = 0 };
    { ks_name = "wal.fsync/always"; ks_kill = k "wal.fsync:nth=%d" (mid + 1);
      ks_recover_kill = None; ks_sync = "always"; ks_ckpt = 0 };
    { ks_name = "wal.fsync/group"; ks_kill = k "wal.fsync:nth=2"; ks_recover_kill = None;
      ks_sync = "group:2"; ks_ckpt = 0 };
    { ks_name = "checkpoint.write/torn"; ks_kill = k "checkpoint.write:nth=1:torn=40";
      ks_recover_kill = None; ks_sync = "group:2"; ks_ckpt = 2 };
    { ks_name = "checkpoint.write/pre"; ks_kill = k "checkpoint.write:nth=2";
      ks_recover_kill = None; ks_sync = "group:2"; ks_ckpt = 2 };
    { ks_name = "wal.reset/mid"; ks_kill = k "wal.reset:nth=2"; ks_recover_kill = None;
      ks_sync = "group:2"; ks_ckpt = 2 };
    { ks_name = "wal.replay/recovery"; ks_kill = None; ks_recover_kill = k "wal.replay:nth=2";
      ks_sync = "group:2"; ks_ckpt = 0 };
    { ks_name = "checkpoint.load/recovery"; ks_kill = None;
      ks_recover_kill = k "checkpoint.load:nth=1"; ks_sync = "group:2"; ks_ckpt = 2 };
  ]

let serve_binary () =
  let candidates =
    (match Sys.getenv_opt "LH_SERVE_BIN" with Some p -> [ p ] | None -> [])
    @ [
        Filename.concat (Filename.dirname Sys.executable_name) "lhserve.exe";
        Filename.concat (Filename.dirname Sys.executable_name) "lhserve";
      ]
  in
  List.find_opt Sys.file_exists candidates

(* Raw-fd child plumbing: a select-guarded line reader (a wedged child
   must fail the scenario, not hang the harness) and EPIPE-tolerant
   writes (the child dying mid-batch is the expected outcome).          *)

type child = {
  ch_pid : int;
  ch_stdin : Unix.file_descr;
  ch_stdout : Unix.file_descr;
  ch_buf : Buffer.t;
}

let spawn_serve ~bin ~dir ~sync ~ckpt ~kill =
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let args =
    [ bin; "--data-dir"; dir; "--wal-sync"; sync ]
    @ (if ckpt > 0 then [ "--checkpoint-every"; string_of_int ckpt ] else [])
  in
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun s -> not (String.length s >= 8 && String.sub s 0 8 = "LH_KILL="))
    |> (fun base -> match kill with None -> base | Some k -> ("LH_KILL=" ^ k) :: base)
    |> Array.of_list
  in
  let pid = Unix.create_process_env bin (Array.of_list args) env in_r out_w devnull in
  Unix.close in_r;
  Unix.close out_w;
  Unix.close devnull;
  { ch_pid = pid; ch_stdin = in_w; ch_stdout = out_r; ch_buf = Buffer.create 256 }

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off >= Bytes.length b then true
    else go (off + Unix.write c.ch_stdin b off (Bytes.length b - off))
  in
  try go 0 with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> false

(* [None] = EOF (the child died); raises [Failure] after 30s of silence. *)
let recv c =
  let take_line () =
    let s = Buffer.contents c.ch_buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
        Buffer.clear c.ch_buf;
        Buffer.add_string c.ch_buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
  in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match take_line () with
    | Some line -> Some line
    | None -> (
        match Unix.select [ c.ch_stdout ] [] [] 30.0 with
        | [], _, _ -> failwith "timeout waiting for the lhserve child"
        | _ -> (
            match Unix.read c.ch_stdout chunk 0 (Bytes.length chunk) with
            | 0 -> if Buffer.length c.ch_buf > 0 then take_line () else None
            | n ->
                Buffer.add_subbytes c.ch_buf chunk 0 n;
                go ()))
  in
  go ()

let reap c =
  (try Unix.close c.ch_stdin with Unix.Unix_error _ -> ());
  (try Unix.close c.ch_stdout with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] c.ch_pid) with Unix.Unix_error _ -> ()

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Deterministic ingest schedule: batch [i] (1-based) replaces table
   t0/t1 alternately; the string column exercises dictionary re-encoding
   across the recovery boundary. All floats are dyadic so the CSV wire
   format round-trips exactly. *)
let kill_schema_spec = "k:int:key,s:string:key,v:float"

let kill_schema =
  Schema.create
    [
      ("k", Dtype.Int, Schema.Key);
      ("s", Dtype.String, Schema.Key);
      ("v", Dtype.Float, Schema.Annotation);
    ]

let kill_table i = "t" ^ string_of_int (i mod 2)

let kill_batch ~seed i =
  let n = 3 + ((seed + i) mod 3) in
  List.init n (fun r ->
      [
        Dtype.VInt r;
        Dtype.VString (Printf.sprintf "s%d_%d" i r);
        Dtype.VFloat (float_of_int (((seed mod 97) + 1) * (i + 1) * (r + 2)) *. 0.25);
      ])

let kill_batch_csv ~seed i =
  List.map
    (fun row ->
      match row with
      | [ Dtype.VInt k; Dtype.VString s; Dtype.VFloat v ] -> Printf.sprintf "%d,%s,%.17g" k s v
      | _ -> assert false)
    (kill_batch ~seed i)

let kill_sql tbl =
  Printf.sprintf "select k as a0, s as a1, sum(v) as a2 from %s group by k, s" tbl

(* The oracle: a plain sequential engine after the acknowledged batches,
   its answer printed through the very same [Table.pp_row] the server
   uses — the comparison is on identical bytes, modulo row order. *)
let oracle_lines ~seed batches tbl =
  if not (List.exists (fun i -> kill_table i = tbl) batches) then None
  else begin
    let eng =
      Dataset.oracle (List.map (fun i -> (kill_table i, kill_schema, kill_batch ~seed i)) batches)
    in
    match L.Engine.query_result eng (kill_sql tbl) with
    | Ok t ->
        Some
          (List.sort compare
             (List.init t.Table.nrows (fun r ->
                  Format.asprintf "%a" (fun fmt () -> Table.pp_row fmt t r) ())))
    | Error e -> failwith ("kill oracle query failed: " ^ L.Engine.Error.to_string e)
  end

(* Phase A: stream [count] ingest batches, recording which were
   acknowledged and which one was in flight when (if) the child died. *)
let drive_ingest c ~seed ~count =
  let acked = ref [] and inflight = ref None and alive = ref true and err = ref None in
  let i = ref 1 in
  while !alive && !i <= count do
    let b = !i in
    inflight := Some b;
    let sent =
      send c (Printf.sprintf "ingest %s %s" (kill_table b) kill_schema_spec)
      && List.for_all (fun line -> send c line) (kill_batch_csv ~seed b)
      && send c "."
    in
    (if not sent then alive := false
     else
       match recv c with
       | Some l when starts_with ~prefix:"ok epoch" l ->
           acked := b :: !acked;
           inflight := None
       | Some l ->
           alive := false;
           err := Some (Printf.sprintf "batch %d rejected: %s" b l)
       | None -> alive := false);
    incr i
  done;
  (List.rev !acked, !inflight, !alive, !err)

let query_child_lines c sid tbl =
  if not (send c (Printf.sprintf "query %d %s" sid (kill_sql tbl))) then
    Error "restarted child died during the final query"
  else
    match recv c with
    | Some l when starts_with ~prefix:"ok epoch" l -> (
        match String.split_on_char ' ' l with
        | [ "ok"; "epoch"; _; "rows"; n ] -> (
            let n = int_of_string n in
            let rec rd k acc =
              if k = 0 then Ok (Some (List.sort compare (List.rev acc)))
              else
                match recv c with
                | Some row -> rd (k - 1) (row :: acc)
                | None -> Error "eof mid row stream"
            in
            rd n [])
        | _ -> Error ("unparseable query response: " ^ l))
    | Some l when starts_with ~prefix:"error engine" l -> Ok None (* table absent *)
    | Some l -> Error ("unexpected query response: " ^ l)
    | None -> Error "restarted child eof on query"

let run_one_kill ~bin ~seed ~count ks =
  with_temp_dir (fun dir ->
      let spawn kill = spawn_serve ~bin ~dir ~sync:ks.ks_sync ~ckpt:ks.ks_ckpt ~kill in
      (* phase A: ingest until the kill fires (or all batches land) *)
      let c = spawn ks.ks_kill in
      let acked, inflight, alive, err = drive_ingest c ~seed ~count in
      let phase_a =
        match (ks.ks_kill, alive, err) with
        | _, _, Some m -> Error m
        | Some _, true, None ->
            ignore (send c "quit");
            Error "child survived every batch; the kill point was never reached"
        | Some _, false, None -> Ok ()
        | None, false, None -> Error "child died without an armed kill point"
        | None, true, None ->
            (* clean shutdown so the group-commit remainder is fsynced
               deterministically before the recovery-kill phase *)
            ignore (send c "shutdown");
            ignore (recv c);
            Ok ()
      in
      reap c;
      phase_a >>= fun () ->
      (* phase B: optionally kill the restart inside recovery itself *)
      (match ks.ks_recover_kill with
      | None -> Ok ()
      | Some k ->
          let c = spawn (Some k) in
          let r =
            if not (send c "epoch") then Ok ()
            else
              match recv c with
              | None -> Ok ()
              | Some _ ->
                  ignore (send c "quit");
                  Error "recovery kill never fired (the restart booted)"
          in
          reap c;
          r)
      >>= fun () ->
      (* phase C: clean restart; every acked batch must be visible and
         bit-identical, the in-flight batch all-or-nothing *)
      let c = spawn None in
      let result =
        (if not (send c "open") then Error "restarted child died on open"
         else
           match recv c with
           | Some l when starts_with ~prefix:"ok session" l -> (
               match String.split_on_char ' ' l with
               | [ "ok"; "session"; sid ] -> Ok (int_of_string sid)
               | _ -> Error ("unparseable open response: " ^ l))
           | Some l -> Error ("unexpected open response: " ^ l)
           | None -> Error "restarted child eof on open")
        >>= fun sid ->
        let tables =
          List.sort_uniq compare
            (List.map kill_table (acked @ Option.to_list inflight))
        in
        let rec check = function
          | [] -> Ok ()
          | tbl :: rest ->
              query_child_lines c sid tbl >>= fun got ->
              let ok_without = got = oracle_lines ~seed acked tbl in
              let ok_with =
                match inflight with
                | None -> false
                | Some b -> got = oracle_lines ~seed (acked @ [ b ]) tbl
              in
              if ok_without || ok_with then check rest
              else
                Error
                  (Printf.sprintf
                     "table %s after restart matches neither the acked transcript nor \
                      acked+in-flight (acked %s, in-flight %s)"
                     tbl
                     (String.concat "," (List.map string_of_int acked))
                     (match inflight with None -> "-" | Some b -> string_of_int b))
        in
        check tables
      in
      ignore (send c "quit");
      reap c;
      result)

let run_kill ?(progress = fun _ -> ()) ?count ~seed () =
  (* At least 4 batches: wal.fsync/group kills at the second group fsync
     and checkpoint.write/pre at the second checkpoint, both reached only
     by batch 4; a shorter schedule would never fire them. *)
  let count =
    max 4
      (match count with
      | Some n -> n
      | None ->
          Option.value ~default:6 (Option.bind (Sys.getenv_opt "LH_KILL_COUNT") int_of_string_opt))
  in
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      match prev_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
      | None -> ())
    (fun () ->
      let reports =
        match serve_binary () with
        | None ->
            List.map
              (fun ks ->
                {
                  sr_site = ks.ks_name;
                  sr_outcome = Excused "lhserve binary not found (set LH_SERVE_BIN)";
                })
              (kill_scenarios ~count)
        | Some bin ->
            List.map
              (fun ks ->
                progress (Printf.sprintf "kill-restart %s" ks.ks_name);
                let outcome =
                  match run_one_kill ~bin ~seed ~count ks with
                  | Ok () -> Passed
                  | Error m -> Failed m
                  | exception e -> Failed ("harness exception: " ^ Printexc.to_string e)
                in
                { sr_site = ks.ks_name; sr_outcome = outcome })
              (kill_scenarios ~count)
      in
      { s_seed = seed; s_sites = reports })
