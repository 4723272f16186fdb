(* The serving layer: epoch-pinned snapshot reads racing ingest,
   admission control, epoch lifecycle, and the qcheck interleaving
   property (no query observes rows from two epochs; pinned epochs are
   never reclaimed; the generation counter is monotone). *)

module Engine = Levelheaded.Engine
module Config = Levelheaded.Config
module Serve = Lh_serve.Serve
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Table = Lh_storage.Table
module Pool = Lh_util.Pool
module Obs = Lh_obs.Obs
module Fault = Lh_fault.Fault

let schema = Schema.create [ ("k", Dtype.Int, Schema.Key); ("v", Dtype.Float, Schema.Annotation) ]

(* Deterministic table contents for generation [g]: both the row count
   and every annotation depend on [g], so any mix of two generations in
   one result is detectable from the sum alone. *)
let rows g =
  List.init (5 + g) (fun i -> [ Dtype.VInt i; Dtype.VFloat (float_of_int ((i + 1) * (g + 1))) ])

let expected_sum g =
  List.fold_left
    (fun acc row -> match row with [ _; Dtype.VFloat v ] -> acc +. v | _ -> acc)
    0.0 (rows g)

let fresh_service ?max_sessions ?queue_depth ?session_depth () =
  let eng = Engine.create ~config:{ Config.default with Config.domains = 1 } () in
  ignore (Engine.register_rows eng ~name:"t" ~schema (rows 0));
  let svc = Serve.create ?max_sessions ?queue_depth ?session_depth eng in
  (eng, svc)

let sum_of = function
  | Ok (table, _) -> (
      match Table.to_rows table with
      | [ [ Dtype.VFloat s ] ] -> s
      | r -> Alcotest.failf "unexpected result shape: %d rows" (List.length r))
  | Error e -> Alcotest.failf "query failed: %s" (Serve.error_to_string e)

let q_sum = "select sum(v) as s from t"

let check_sum name g result = Alcotest.(check (float 1e-9)) name (expected_sum g) (sum_of result)

(* ---- snapshot isolation ---- *)

let test_pinned_reads () =
  let _, svc = fresh_service () in
  let s = Serve.open_session svc in
  let e0 = Serve.pin s in
  check_sum "g0 before ingest" 0 (Serve.query_epoch s q_sum);
  (match Serve.ingest_rows svc ~name:"t" ~schema (rows 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ingest: %s" (Serve.error_to_string e));
  (* the pinned session still reads generation 0 … *)
  (match Serve.query_epoch s q_sum with
  | Ok (_, e) as r ->
      Alcotest.(check int) "pinned epoch id" e0 e;
      check_sum "g0 after ingest (pinned)" 0 r
  | Error e -> Alcotest.failf "pinned query: %s" (Serve.error_to_string e));
  (* … an unpinned session reads generation 1 *)
  let s2 = Serve.open_session svc in
  check_sum "g1 fresh session" 1 (Serve.query_epoch s2 q_sum);
  Alcotest.(check bool) "current moved on" true (Serve.current_epoch svc > e0);
  Serve.close_session s2;
  Serve.close_session s;
  Serve.close svc

let test_epoch_retire () =
  let _, svc = fresh_service () in
  let s = Serve.open_session svc in
  let e0 = Serve.pin s in
  ignore (Result.get_ok (Serve.ingest_rows svc ~name:"t" ~schema (rows 1)));
  (* superseded but pinned: still live *)
  let live = Serve.epochs svc in
  Alcotest.(check bool) "pinned epoch live" true (List.exists (fun (id, _, _) -> id = e0) live);
  Alcotest.(check int) "two live epochs" 2 (List.length live);
  Serve.unpin s;
  let live = Serve.epochs svc in
  Alcotest.(check bool) "reclaimed after unpin" false
    (List.exists (fun (id, _, _) -> id = e0) live);
  Alcotest.(check int) "one live epoch" 1 (List.length live);
  Serve.close svc

let test_ingest_error_keeps_epoch () =
  let _, svc = fresh_service () in
  let before = Serve.current_epoch svc in
  (* ragged row: the writer rejects it install-on-success *)
  (match Serve.ingest_rows svc ~name:"t" ~schema [ [ Dtype.VInt 1 ] ] with
  | Ok _ -> Alcotest.fail "ragged ingest should fail"
  | Error (Serve.Engine_error _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Serve.error_to_string e));
  Alcotest.(check int) "epoch unchanged" before (Serve.current_epoch svc);
  let s = Serve.open_session svc in
  check_sum "old generation still served" 0 (Serve.query_epoch s q_sum);
  Serve.close svc

(* With no store there is nothing to roll back either: every fallible
   ingest step runs before the writer's catalog changes, so a failed
   ingest of a new table never rides along with the next publish, and
   published epoch ids stay contiguous. *)
let test_failed_ingest_invisible () =
  let _, svc = fresh_service () in
  let e0 = Serve.current_epoch svc in
  Fun.protect ~finally:Lh_fault.Fault.disarm_all (fun () ->
      Lh_fault.Fault.arm "epoch.publish";
      match Serve.ingest_rows svc ~name:"u" ~schema (rows 2) with
      | Ok _ -> Alcotest.fail "ingest with epoch.publish armed should fail"
      | Error (Serve.Engine_error (Engine.Error.Fault_injected _)) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Serve.error_to_string e));
  (match Serve.ingest_rows svc ~name:"t" ~schema (rows 1) with
  | Ok e -> Alcotest.(check int) "contiguous epoch id" (e0 + 1) e
  | Error e -> Alcotest.failf "ingest t: %s" (Serve.error_to_string e));
  let s = Serve.open_session svc in
  (match Serve.query s "select sum(v) as s from u" with
  | Error (Serve.Engine_error (Engine.Error.Unknown_table "u")) -> ()
  | Ok _ -> Alcotest.fail "the failed ingest of u became visible"
  | Error e -> Alcotest.failf "unexpected error: %s" (Serve.error_to_string e));
  check_sum "t at generation 1" 1 (Serve.query_epoch s q_sum);
  Serve.close svc

(* ---- admission control ---- *)

let test_session_cap () =
  let _, svc = fresh_service ~max_sessions:2 () in
  let _s1 = Serve.open_session svc in
  let s2 = Serve.open_session svc in
  (match Serve.open_session svc with
  | (_ : Serve.session) -> Alcotest.fail "third session should be rejected"
  | exception Serve.Error (Serve.Overloaded _) -> ());
  Serve.close_session s2;
  let (_ : Serve.session) = Serve.open_session svc in
  Serve.close svc

let test_queue_depth () =
  let _, svc = fresh_service ~queue_depth:1 ~session_depth:8 () in
  (* no pool workers are guaranteed here, so occupy the only admission
     slot via a second session's in-flight state: simplest determinstic
     probe is the session_depth variant below; here just check that a
     closed service rejects. *)
  Serve.close svc;
  let eng = Engine.create () in
  ignore (Engine.register_rows eng ~name:"t" ~schema (rows 0));
  let svc2 = Serve.create ~queue_depth:4 eng in
  let s = Serve.open_session svc2 in
  check_sum "works before close" 0 (Serve.query_epoch s q_sum);
  Serve.close svc2;
  match Serve.query s q_sum with
  | Ok _ -> Alcotest.fail "query after close should fail"
  | Error (Serve.Closed _) -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Serve.error_to_string e)

let test_session_depth_rejects () =
  let _, svc = fresh_service ~session_depth:1 () in
  let s = Serve.open_session svc in
  (* admission is taken at submit time: with one slot, a second submit
     before the first is awaited must be rejected when no worker has
     drained the first yet — with zero workers, submit runs
     synchronously, so both succeed. Either way the typed surface holds:
     every outcome is Ok or Overloaded, never an exception. *)
  let t1 = Serve.submit s q_sum in
  let t2 = Serve.submit s q_sum in
  let ok_or_overloaded tk =
    match Serve.await tk with
    | Ok _ -> true
    | Error (Serve.Overloaded _) -> true
    | Error e -> Alcotest.failf "unexpected: %s" (Serve.error_to_string e)
  in
  Alcotest.(check bool) "t1" true (ok_or_overloaded t1);
  Alcotest.(check bool) "t2" true (ok_or_overloaded t2);
  Serve.close svc

(* ---- prepared statements across epochs ---- *)

let test_prepared_revalidates () =
  let _, svc = fresh_service () in
  let s = Serve.open_session svc in
  let p = Result.get_ok (Serve.prepare s "select sum(v) as s from t where k >= $1") in
  let exec g =
    match Serve.exec_prepared p [ Dtype.VInt 0 ] with
    | Ok (table, _) as r ->
        ignore table;
        check_sum (Printf.sprintf "prepared g%d" g) g r
    | Error e -> Alcotest.failf "exec: %s" (Serve.error_to_string e)
  in
  exec 0;
  ignore (Result.get_ok (Serve.ingest_rows svc ~name:"t" ~schema (rows 1)));
  (* the statement transparently re-plans against the new epoch *)
  exec 1;
  Serve.close svc

(* Snapshots copy no dictionary: every epoch and view reads the writer's. *)
let test_snapshots_share_dict () =
  let eng = Engine.create () in
  ignore (Engine.register_rows eng ~name:"t" ~schema (rows 0));
  let a = Engine.snapshot eng in
  ignore (Engine.register_rows eng ~name:"t" ~schema (rows 1));
  let b = Engine.snapshot eng in
  let d = Engine.dict eng in
  Alcotest.(check bool) "snapshot a" true (Engine.dict (Engine.of_snapshot a) == d);
  Alcotest.(check bool) "snapshot b" true (Engine.dict (Engine.of_snapshot b) == d)

(* A reader pinned before the writer interns 'zeta' keeps its answers:
   its table holds no row with the new code, so [=] matches nothing and
   [<>] everything, as when the string was unknown. *)
let test_pinned_reader_new_string () =
  let sschema = Schema.create [ ("k", Dtype.Int, Schema.Key); ("s", Dtype.String, Schema.Annotation) ] in
  let srows names = List.mapi (fun i n -> [ Dtype.VInt i; Dtype.VString n ]) names in
  let eng = Engine.create ~config:{ Config.default with Config.domains = 1 } () in
  ignore (Engine.register_rows eng ~name:"w" ~schema:sschema (srows [ "alpha"; "beta" ]));
  let svc = Serve.create eng in
  let reader = Serve.open_session svc in
  let e0 = Serve.pin reader in
  let q op = Printf.sprintf "select k, count(*) as c from w where s %s 'zeta' group by k" op in
  let eq = q "=" and ne = q "<>" in
  let rows_of sql s =
    match Serve.query_epoch s sql with
    | Ok (table, _) -> Table.to_rows table
    | Error e -> Alcotest.failf "%s: %s" sql (Serve.error_to_string e)
  in
  let before = (rows_of eq reader, rows_of ne reader) in
  (match Serve.ingest_rows svc ~name:"w" ~schema:sschema (srows [ "alpha"; "zeta" ]) with
  | Ok e -> Alcotest.(check bool) "new epoch" true (e > e0)
  | Error e -> Alcotest.failf "ingest: %s" (Serve.error_to_string e));
  Alcotest.(check int) "no row equals zeta" 0 (List.length (fst before));
  Alcotest.(check int) "every row differs from zeta" 2 (List.length (snd before));
  Helpers.check_rows_equal "pinned =" (fst before) (rows_of eq reader);
  Helpers.check_rows_equal "pinned <>" (snd before) (rows_of ne reader);
  let fresh = Serve.open_session svc in
  Helpers.check_rows_equal "fresh =" [ [ Dtype.VInt 1; Dtype.VInt 1 ] ] (rows_of eq fresh);
  Helpers.check_rows_equal "fresh <>" [ [ Dtype.VInt 0; Dtype.VInt 1 ] ] (rows_of ne fresh);
  Serve.close svc

(* ---- async submission over the pool job lane ---- *)

let test_submit_await () =
  Pool.ensure_workers (Pool.global ()) 2;
  let _, svc = fresh_service () in
  let s1 = Serve.open_session svc in
  let s2 = Serve.open_session svc in
  let tickets = List.init 8 (fun i -> Serve.submit (if i mod 2 = 0 then s1 else s2) q_sum) in
  List.iter (fun tk -> check_sum "async sum" 0 (Serve.await tk)) tickets;
  Serve.close svc

(* ---- shutdown ---- *)

(* A pin held across a shutdown drain: the in-flight query finishes on
   the pinned epoch, closing releases the pin so only the current epoch
   stays live, and every entry point then reports [Closed]. *)
let test_shutdown_drains_pinned () =
  Pool.ensure_workers (Pool.global ()) 2;
  let _, svc = fresh_service () in
  let s = Serve.open_session svc in
  let e1 = Serve.pin s in
  let p = Result.get_ok (Serve.prepare s q_sum) in
  ignore (Result.get_ok (Serve.ingest_rows svc ~name:"t" ~schema (rows 1)));
  Alcotest.(check int) "pinned and current epochs live" 2 (List.length (Serve.epochs svc));
  let ticket = Serve.submit s q_sum in
  Alcotest.(check bool) "drained before the deadline" true (Serve.shutdown svc);
  let r = Serve.await ticket in
  check_sum "in-flight query" 0 r;
  Alcotest.(check int) "ran on the pinned epoch" e1 (snd (Result.get_ok r));
  Alcotest.(check int) "pinned epoch reclaimed" 1 (List.length (Serve.epochs svc));
  let closed what = function
    | Error (Serve.Closed w) -> Alcotest.(check string) what "service" w
    | Error e -> Alcotest.failf "%s: %s" what (Serve.error_to_string e)
    | Ok _ -> Alcotest.failf "%s succeeded after shutdown" what
  in
  closed "query" (Serve.query s q_sum);
  closed "exec_prepared" (Serve.exec_prepared p []);
  closed "ingest_rows" (Serve.ingest_rows svc ~name:"t" ~schema (rows 2));
  let raises what expect f =
    match f () with
    | _ -> Alcotest.failf "%s succeeded after shutdown" what
    | exception Serve.Error (Serve.Closed w) -> Alcotest.(check string) what expect w
  in
  raises "pin" "session" (fun () -> ignore (Serve.pin s));
  raises "open_session" "service" (fun () -> ignore (Serve.open_session svc));
  Alcotest.(check bool) "second shutdown" true (Serve.shutdown svc)

(* A real race: one domain queries in a loop while this domain ingests
   new generations. Every result must match exactly one generation's
   expectation — never a blend. *)
let test_concurrent_reader_vs_ingest () =
  Pool.ensure_workers (Pool.global ()) 2;
  let _, svc = fresh_service () in
  let gens = 6 in
  let reader =
    Domain.spawn (fun () ->
        let s = Serve.open_session svc in
        let sums = ref [] in
        for _ = 1 to 40 do
          match Serve.query_epoch s q_sum with
          | Ok (table, _) -> (
              match Table.to_rows table with
              | [ [ Dtype.VFloat v ] ] -> sums := v :: !sums
              | _ -> ())
          | Error e -> Alcotest.failf "reader: %s" (Serve.error_to_string e)
        done;
        Serve.close_session s;
        !sums)
  in
  for g = 1 to gens - 1 do
    match Serve.ingest_rows svc ~name:"t" ~schema (rows g) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "ingest g%d: %s" g (Serve.error_to_string e)
  done;
  let sums = Domain.join reader in
  let valid = List.init gens expected_sum in
  List.iter
    (fun s ->
      if not (List.exists (fun v -> Float.abs (v -. s) < 1e-9) valid) then
        Alcotest.failf "sum %g matches no single generation" s)
    sums;
  (* all retired epochs were reclaimed once the reader closed *)
  Alcotest.(check int) "live epochs" 1 (List.length (Serve.epochs svc));
  Serve.close svc

(* ---- indexes are shared across sessions and epochs ---- *)

(* A 1600-row sparse matrix [m] and the generation-0 [t], one domain. *)
let matrix_service () =
  let eng = Engine.create ~config:{ Config.default with Config.domains = 1 } () in
  let m = Lh_datagen.Matrices.banded ~dict:(Engine.dict eng) ~name:"m" ~n:400 ~nnz_per_row:4 () in
  Engine.register eng m.Lh_datagen.Matrices.table;
  ignore (Engine.register_rows eng ~name:"t" ~schema (rows 0));
  (eng, Serve.create eng)

let smm =
  "select m1.row, m2.col, sum(m1.v * m2.v) as v from m m1, m m2 where m1.col = m2.row group by \
   m1.row, m2.col"

let m_join_t = "select m.row, sum(m.v * t.v) as s from m, t where m.col = t.k group by m.row"

(* [f ()] with telemetry on, and the trie and plan counters' deltas over
   it. *)
let trie_counts f =
  Obs.with_enabled true (fun () ->
      let names =
        [ "trie.built"; "trie_cache.hit"; "trie_cache.miss"; "plan_cache.hit"; "plan_cache.miss" ]
      in
      let value n = Obs.value (Obs.counter n) in
      let before = List.map value names in
      let r = f () in
      let delta = List.map2 (fun n b -> (n, value n - b)) names before in
      (r, fun n -> List.assoc n delta))

let check_rows what expect = function
  | Ok table -> Helpers.check_rows_equal what expect (Table.to_rows table)
  | Error e -> Alcotest.failf "%s: %s" what (Serve.error_to_string e)

let ingest svc name g =
  match Serve.ingest_rows svc ~name ~schema (rows g) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ingest %s: %s" name (Serve.error_to_string e)

(* Four sessions on one epoch build the self-join's two tries once, then
   read them from pool workers at once without building any. *)
let test_sessions_share_tries () =
  let eng, svc = matrix_service () in
  let expect = Helpers.oracle_rows eng smm in
  let sessions = List.init 4 (fun _ -> Serve.open_session svc) in
  let (), n =
    trie_counts (fun () -> List.iter (fun s -> check_rows "smm" expect (Serve.query s smm)) sessions)
  in
  Alcotest.(check int) "trie.built over four sessions" 2 (n "trie.built");
  Pool.ensure_workers (Pool.global ()) 2;
  let (), n =
    trie_counts (fun () ->
        List.map (fun s -> Serve.submit s smm) sessions
        |> List.iter (fun tk -> check_rows "smm on a worker" expect (Result.map fst (Serve.await tk))))
  in
  Alcotest.(check int) "trie.built on workers" 0 (n "trie.built");
  Serve.close svc

(* An ingest of an unrelated table publishes an epoch whose [m] is the
   same table value: the next query finds its tries. *)
let test_unrelated_ingest_keeps_tries () =
  let eng, svc = matrix_service () in
  let expect = Helpers.oracle_rows eng smm in
  let s = Serve.open_session svc in
  let e0 = snd (Result.get_ok (Serve.query_epoch s smm)) in
  ingest svc "u" 0;
  let r, n = trie_counts (fun () -> Serve.query_epoch s smm) in
  check_rows "smm after ingest" expect (Result.map fst r);
  Alcotest.(check bool) "new epoch" true (snd (Result.get_ok r) > e0);
  Alcotest.(check int) "trie.built" 0 (n "trie.built");
  Alcotest.(check int) "trie_cache.miss" 0 (n "trie_cache.miss");
  Serve.close svc

(* A reader pinned while [t] is replaced four times. After each ingest a
   fresh session joins [m] with the new [t]: only the new [t] is built,
   while the pinned reader keeps reading generation 0 from its tries. *)
let test_pinned_reader_across_ingests () =
  let eng, svc = matrix_service () in
  let reader = Serve.open_session svc in
  let e0 = Serve.pin reader in
  let expect0 = Helpers.oracle_rows eng m_join_t in
  let (), n = trie_counts (fun () -> check_rows "reader g0" expect0 (Serve.query reader m_join_t)) in
  Alcotest.(check int) "m and t built" 2 (n "trie.built");
  let k = 4 in
  let (), total =
    trie_counts (fun () ->
        for g = 1 to k do
          ingest svc "t" g;
          let expect = Helpers.oracle_rows eng m_join_t in
          let fresh = Serve.open_session svc in
          let (), n =
            trie_counts (fun () -> check_rows "fresh session" expect (Serve.query fresh m_join_t))
          in
          Alcotest.(check int) (Printf.sprintf "g%d: only t built" g) 1 (n "trie.built");
          Alcotest.(check int) (Printf.sprintf "g%d: m found" g) 1 (n "trie_cache.hit");
          Serve.close_session fresh;
          match Serve.query_epoch reader m_join_t with
          | Ok (table, e) ->
              Alcotest.(check int) "reader stays pinned" e0 e;
              Helpers.check_rows_equal "pinned reader" expect0 (Table.to_rows table)
          | Error e -> Alcotest.failf "reader: %s" (Serve.error_to_string e)
        done)
  in
  Alcotest.(check int) "one build per version of t" k (total "trie.built");
  Serve.close svc

(* A trie build that faults in session A leaves nothing in the shared
   memo: session B builds the tries itself and gets the oracle rows. *)
let test_faulted_build_installs_nothing () =
  let eng, svc = matrix_service () in
  let expect = Helpers.oracle_rows eng smm in
  let a = Serve.open_session svc and b = Serve.open_session svc in
  Fun.protect ~finally:Fault.disarm_all (fun () ->
      Fault.arm "trie.build.node";
      match Serve.query a smm with
      | Error (Serve.Engine_error (Engine.Error.Fault_injected site)) ->
          Alcotest.(check string) "fault site" "trie.build.node" site
      | Error e -> Alcotest.failf "unexpected error: %s" (Serve.error_to_string e)
      | Ok _ -> Alcotest.fail "the armed trie build did not fault");
  let (), n = trie_counts (fun () -> check_rows "session B" expect (Serve.query b smm)) in
  Alcotest.(check bool) "B built" true (n "trie_cache.miss" >= 1);
  Serve.close svc

(* [m]'s owned aggregate carries a bound literal. *)
let m_plus_c c =
  Printf.sprintf
    "select m.row, sum((m.v + %s) * t.v) as s from m, t where m.col = t.k group by m.row" c

(* Two sessions whose aggregate literals agree in their first six digits
   each get their own sums: the shared memo tells the tries apart. *)
let test_literal_keys_exact () =
  let eng, svc = matrix_service () in
  List.iter
    (fun c ->
      let s = Serve.open_session svc in
      check_rows c (Helpers.oracle_rows eng (m_plus_c c)) (Serve.query s (m_plus_c c)))
    [ "1.234566"; "1.234574" ];
  Serve.close svc

(* The memo holds one trie per query shape: a hundred distinct aggregate
   constants leave [m] near its size after the first two (each constant
   kept would add a 1600-row trie). *)
let test_literal_memo_bounded () =
  let eng, svc = matrix_service () in
  let s = Serve.open_session svc in
  let m = Levelheaded.Catalog.find_exn (Engine.catalog eng) "m" in
  let query i =
    let sql = m_plus_c (string_of_int i) in
    check_rows sql (Helpers.oracle_rows eng sql) (Serve.query s sql)
  in
  query 1;
  query 2;
  let before = Obj.reachable_words (Obj.repr m) in
  for i = 3 to 100 do
    query i
  done;
  let after = Obj.reachable_words (Obj.repr m) in
  if after > before * 3 / 2 then Alcotest.failf "m grew from %d to %d words" before after;
  Serve.close svc

(* ---- plans survive epochs whose tables they do not read ---- *)

(* One session: the query after an unrelated ingest reuses the view's
   plan and the tables' tries. *)
let test_unrelated_ingest_keeps_plan () =
  let eng, svc = matrix_service () in
  let expect = Helpers.oracle_rows eng smm in
  let s = Serve.open_session svc in
  check_rows "smm" expect (Serve.query s smm);
  ingest svc "u" 0;
  let r, n = trie_counts (fun () -> Serve.query s smm) in
  check_rows "smm after ingest" expect r;
  Alcotest.(check int) "plan_cache.miss" 0 (n "plan_cache.miss");
  Alcotest.(check int) "plan_cache.hit" 1 (n "plan_cache.hit");
  Alcotest.(check int) "trie.built" 0 (n "trie.built");
  Serve.close svc

(* A prepared statement re-plans only when a table it reads is replaced:
   an unrelated ingest reaches no plan build (the [engine.prepare] site
   every build passes), an ingest of [t] does, once, and the statement
   then returns the new rows. *)
let test_prepared_survives_unrelated () =
  let _, svc = fresh_service () in
  let s = Serve.open_session svc in
  let p = Result.get_ok (Serve.prepare s "select sum(v) as s from t where k >= $1") in
  let exec g = check_sum (Printf.sprintf "prepared g%d" g) g (Serve.exec_prepared p [ Dtype.VInt 0 ]) in
  let plan_builds f =
    Fun.protect ~finally:Fault.disarm_all (fun () ->
        Fault.arm ~trigger:(Fault.Nth max_int) "engine.prepare";
        f ();
        Fault.hits "engine.prepare")
  in
  exec 0;
  Alcotest.(check int) "unrelated ingest: no plan build" 0
    (plan_builds (fun () ->
         ingest svc "u" 5;
         exec 0));
  Alcotest.(check int) "ingest of t: one plan build" 1
    (plan_builds (fun () ->
         ingest svc "t" 1;
         exec 1));
  Serve.close svc

(* With no pin, [t] replaced eight times, each followed by a query on it:
   the superseded versions are unreachable but for at most one, which a
   plan in the session's view may still hold. *)
let test_old_tables_released () =
  let eng, svc = fresh_service () in
  let s = Serve.open_session svc in
  let k = 8 in
  let old = Weak.create k in
  for g = 1 to k do
    Weak.set old (g - 1) (Some (Levelheaded.Catalog.find_exn (Engine.catalog eng) "t"));
    ingest svc "t" g;
    check_sum (Printf.sprintf "g%d" g) g (Serve.query_epoch s q_sum)
  done;
  Gc.full_major ();
  let alive = List.length (List.filter (Weak.check old) (List.init k Fun.id)) in
  if alive > 1 then Alcotest.failf "%d of %d superseded versions of t still reachable" alive k;
  Serve.close svc

(* ---- qcheck: random interleavings ---- *)

type op = Query of int | Ingest | Pin of int | Unpin of int

let op_gen nsessions =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Query i) (int_range 0 (nsessions - 1));
        return Ingest;
        map (fun i -> Pin i) (int_range 0 (nsessions - 1));
        map (fun i -> Unpin i) (int_range 0 (nsessions - 1));
      ])

let qcheck_interleavings =
  let nsessions = 3 in
  Helpers.qtest ~count:60 "serve interleavings hold the epoch invariants"
    QCheck2.Gen.(list_size (int_range 1 40) (op_gen nsessions))
    (fun ops ->
      let _, svc = fresh_service () in
      let sessions = Array.init nsessions (fun _ -> Serve.open_session svc) in
      (* epoch id -> generation, filled as ingest publishes *)
      let gen_of = Hashtbl.create 8 in
      Hashtbl.replace gen_of (Serve.current_epoch svc) 0;
      let gen = ref 0 in
      let last_current = ref (Serve.current_epoch svc) in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Query i -> (
              match Serve.query_epoch sessions.(i) q_sum with
              | Ok (table, eid) -> (
                  (* the result must be exactly the generation of the
                     epoch the query pinned — one epoch, not a blend *)
                  match (Table.to_rows table, Hashtbl.find_opt gen_of eid) with
                  | [ [ Dtype.VFloat v ] ], Some g ->
                      check (Float.abs (v -. expected_sum g) < 1e-9)
                  | _ -> check false)
              | Error _ -> check false)
          | Ingest -> (
              match Serve.ingest_rows svc ~name:"t" ~schema (rows (!gen + 1)) with
              | Ok eid ->
                  incr gen;
                  Hashtbl.replace gen_of eid !gen
              | Error _ -> check false)
          | Pin i -> ignore (Serve.pin sessions.(i))
          | Unpin i -> Serve.unpin sessions.(i));
          (* generation counter monotone *)
          let cur = Serve.current_epoch svc in
          check (cur >= !last_current);
          last_current := cur;
          (* pinned epochs never reclaimed *)
          let live = Serve.epochs svc in
          Array.iter
            (fun s ->
              match Serve.pinned_epoch s with
              | Some id -> check (List.exists (fun (eid, _, _) -> eid = id) live)
              | None -> ())
            sessions;
          (* the current epoch is always live and unretired *)
          check (List.exists (fun (eid, _, retired) -> eid = cur && not retired) live))
        ops;
      Serve.close svc;
      !ok)

(* ---- pool job lane ---- *)

let test_pool_submit_fairness () =
  let pool = Pool.create ~workers:1 in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let order = ref [] in
  let done_ = ref 0 in
  let gate_started = ref false in
  let gate_open = ref false in
  let njobs = 9 in
  (* Park the single worker on a gate job so all nine jobs are enqueued
     before any is serviced; the drain order is then deterministic. *)
  Pool.submit pool ~group:99 (fun () ->
      Mutex.lock lock;
      gate_started := true;
      Condition.broadcast cond;
      while not !gate_open do
        Condition.wait cond lock
      done;
      Mutex.unlock lock);
  Mutex.lock lock;
  while not !gate_started do
    Condition.wait cond lock
  done;
  (* three groups, three jobs each, whole groups in sequence: a FIFO
     would drain group 0 first; round-robin must interleave 0,1,2,… *)
  for g = 0 to 2 do
    for k = 0 to 2 do
      Pool.submit pool ~group:g (fun () ->
          Mutex.lock lock;
          order := (g, k) :: !order;
          incr done_;
          Condition.broadcast cond;
          Mutex.unlock lock)
    done
  done;
  gate_open := true;
  Condition.broadcast cond;
  while !done_ < njobs do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  let got = List.rev !order in
  let expect = [ (0, 0); (1, 0); (2, 0); (0, 1); (1, 1); (2, 1); (0, 2); (1, 2); (2, 2) ] in
  Alcotest.(check (list (pair int int))) "round-robin drain order" expect got;
  Pool.shutdown pool

let test_pool_submit_sync_when_no_workers () =
  let pool = Pool.create ~workers:0 in
  let ran = ref false in
  Pool.submit pool ~group:0 (fun () -> ran := true);
  Alcotest.(check bool) "ran synchronously" true !ran;
  Pool.shutdown pool;
  let ran2 = ref false in
  Pool.submit pool ~group:1 (fun () -> ran2 := true);
  Alcotest.(check bool) "ran after shutdown" true !ran2

let () =
  Alcotest.run "lh_serve"
    [
      ( "snapshot",
        [
          Alcotest.test_case "pinned reads survive ingest" `Quick test_pinned_reads;
          Alcotest.test_case "retire on unpin" `Quick test_epoch_retire;
          Alcotest.test_case "failed ingest keeps epoch" `Quick test_ingest_error_keeps_epoch;
          Alcotest.test_case "snapshots share the writer's dictionary" `Quick
            test_snapshots_share_dict;
          Alcotest.test_case "pinned reader vs a newly interned string" `Quick
            test_pinned_reader_new_string;
          Alcotest.test_case "a failed ingest never becomes visible" `Quick
            test_failed_ingest_invisible;
        ] );
      ( "admission",
        [
          Alcotest.test_case "session cap" `Quick test_session_cap;
          Alcotest.test_case "closed service rejects" `Quick test_queue_depth;
          Alcotest.test_case "session depth typed rejection" `Quick test_session_depth_rejects;
        ] );
      ( "prepared",
        [ Alcotest.test_case "revalidates across epochs" `Quick test_prepared_revalidates ] );
      ( "concurrent",
        [
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "reader races ingest" `Quick test_concurrent_reader_vs_ingest;
          Alcotest.test_case "shutdown drains a pinned session" `Quick test_shutdown_drains_pinned;
        ] );
      ( "shared-tries",
        [
          Alcotest.test_case "four sessions build each trie once" `Quick test_sessions_share_tries;
          Alcotest.test_case "unrelated ingest rebuilds nothing" `Quick
            test_unrelated_ingest_keeps_tries;
          Alcotest.test_case "pinned reader across ingests of t" `Quick
            test_pinned_reader_across_ingests;
          Alcotest.test_case "a faulted build installs nothing" `Quick
            test_faulted_build_installs_nothing;
          Alcotest.test_case "aggregate literals key exactly" `Quick test_literal_keys_exact;
          Alcotest.test_case "literal-bearing tries stay bounded" `Quick test_literal_memo_bounded;
        ] );
      ("interleavings", [ qcheck_interleavings ]);
      ( "plans",
        [
          Alcotest.test_case "unrelated ingest keeps the plan" `Quick
            test_unrelated_ingest_keeps_plan;
          Alcotest.test_case "prepared survives an unrelated ingest" `Quick
            test_prepared_survives_unrelated;
          Alcotest.test_case "superseded tables are released" `Quick test_old_tables_released;
        ] );
      ( "pool-jobs",
        [
          Alcotest.test_case "group round-robin" `Quick test_pool_submit_fairness;
          Alcotest.test_case "sync fallback" `Quick test_pool_submit_sync_when_no_workers;
        ] );
    ]
