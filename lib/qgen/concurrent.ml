module L = Levelheaded
module Serve = Lh_serve.Serve
module Ast = Lh_sql.Ast
module Dtype = Lh_storage.Dtype
module Table = Lh_storage.Table
module Schema = Lh_storage.Schema
module Prng = Lh_util.Prng
module Obs = Lh_obs.Obs

let c_queries = Obs.counter "fuzz.concurrent.queries"
let c_replays = Obs.counter "fuzz.concurrent.replays"
let c_failures = Obs.counter "fuzz.concurrent.failures"

type failure = {
  f_domain : int;
  f_index : int;
  f_kind : string;
  f_sql : string;
  f_epoch : int;
  f_detail : string;
}

type summary = {
  c_domains : int;
  c_queries : int;
  c_adhoc : int;
  c_prepared : int;
  c_persist : int;
  c_ingests : int;
  c_epochs_observed : int;
  c_failures : failure list;
}

(* One completed query: everything needed to replay it sequentially
   against the epoch it pinned and demand the identical answer. *)
type obs = {
  o_domain : int;
  o_index : int;
  o_kind : string;
  o_sql : string;
  o_values : Dtype.value list;
  o_epoch : int;
  o_rows : Rows.row list;
}

let sql_of_ast ast = Format.asprintf "%a" Ast.pp_query ast

(* Writer generation [g] replaces [m_a] (same shape as the dataset's
   build), then [z_a], whose tags are 256 strings no earlier epoch
   interned. Both are deterministic functions of (seed, generation), so the
   replay oracle can reconstruct any epoch's exact catalog state, interning
   the same strings in the same order, so string codes agree. *)
let ma_schema =
  Schema.create
    [ ("row", Dtype.Int, Schema.Key); ("col", Dtype.Int, Schema.Key);
      ("v", Dtype.Float, Schema.Annotation) ]

let writer_rows ~seed g =
  let rng = Prng.create (seed + (0x51ED * g)) in
  List.init
    (25 + (3 * g))
    (fun _ ->
      [ Dtype.VInt (Prng.int rng 7); Dtype.VInt (Prng.int rng 7);
        Dtype.VFloat (float_of_int (Prng.int_in rng (-4) 4)) ])

let za_schema =
  Schema.create [ ("tag", Dtype.String, Schema.Key); ("n", Dtype.Int, Schema.Annotation) ]

let za_rows g =
  List.init 256 (fun i -> [ Dtype.VString (Printf.sprintf "z%d_%d" g i); Dtype.VInt (i mod 7) ])

let writer_batches ~seed g =
  [ ("m_a", ma_schema, writer_rows ~seed g); ("z_a", za_schema, za_rows g) ]

(* The dataset plus generation 0 of [z_a]. *)
let base () = Dataset.oracle ~base:(Dataset.build ()) [ ("z_a", za_schema, za_rows 0) ]

let persist_sql = "select sum(v) as s from m_a"

(* Looks up and decodes [z_a]'s tags while the writer interns new ones.
   The literal is unknown before generation 2, in a row at 2, and interned
   but in no row after. *)
let strings_sql = "select tag, sum(n) as n from z_a where tag <> 'z2_7' group by tag"

let wait_until f = while not (f ()) do Domain.cpu_relax () done

let run ?(progress = fun _ -> ()) ~seed ~domains ~per_domain ~ingests () =
  let profile = Dataset.profile (Dataset.build ()) in
  let eng = base () in
  (* Views and replays both run single-domain: concurrency in this
     harness comes from reader domains, and keeping every evaluation
     sequential makes "bit-identical" a fair demand even when the
     environment (LH_DOMAINS) parallelizes ingest-side builds — those
     are deterministic per environment, shared by writer and oracle. *)
  let view_cfg = { (L.Engine.config eng) with L.Config.domains = 1 } in
  let svc =
    Serve.create ~config:view_cfg ~max_sessions:(max 8 (domains + 1)) eng
  in
  let spec = Gen.default_spec in
  (* epoch id -> how many writer batches preceded it *)
  let gen_of = Hashtbl.create 8 in
  Hashtbl.replace gen_of (Serve.current_epoch svc) 0;
  let completed = Atomic.make 0 in
  let published = Atomic.make 0 in
  let writer_done = Atomic.make false in
  let fail into ~domain ~index ~kind ~sql ~epoch detail =
    Obs.incr c_failures;
    into :=
      { f_domain = domain; f_index = index; f_kind = kind; f_sql = sql;
        f_epoch = epoch; f_detail = detail }
      :: !into
  in
  let reader d =
    let s = Serve.open_session svc in
    let obs = ref [] and fails = ref [] in
    let record ~index ~kind ~sql ~values = function
      | Ok (t, e) ->
          Obs.incr c_queries;
          obs :=
            { o_domain = d; o_index = index; o_kind = kind; o_sql = sql;
              o_values = values; o_epoch = e;
              o_rows = Table.to_rows t }
            :: !obs
      | Error err ->
          fail fails ~domain:d ~index ~kind ~sql ~epoch:(-1)
            (Serve.error_to_string err)
    in
    let persist =
      match Serve.prepare s persist_sql with
      | Ok p -> Some p
      | Error err ->
          fail fails ~domain:d ~index:(-1) ~kind:"persist" ~sql:persist_sql
            ~epoch:(-1) (Serve.error_to_string err);
          None
    in
    for i = 0 to per_domain - 1 do
      let index = (d * per_domain) + i in
      (try
         (* Hold each reader's final query until at least one epoch has
            been published (or the writer gave up), so swaps are always
            observed; the writer's own gate only ever waits on the other
            [per_domain - 1] queries, so neither side can starve. *)
         if i = per_domain - 1 then
           wait_until (fun () ->
               Atomic.get published > 0 || Atomic.get writer_done);
         (* One session camps on an explicit pin mid-run: its remaining
            queries must keep answering from that epoch even as newer
            ones publish (the long-running-query story). *)
         if d = 0 && domains > 1 && i = per_domain / 2 then
           ignore (Serve.pin s);
         let ast, _shape = Gen.generate profile ~seed ~index spec in
         let sql = sql_of_ast ast in
         if i mod 3 = 1 then
           record ~index ~kind:"adhoc" ~sql:strings_sql ~values:[]
             (Serve.query_epoch s strings_sql);
         if i land 1 = 0 then
           record ~index ~kind:"adhoc" ~sql ~values:[]
             (Serve.query_epoch s sql)
         else begin
           let lifted, values = Lh_sql.Normalize.lift_literals ast in
           let psql = sql_of_ast lifted in
           match Serve.prepare s psql with
           | Error err ->
               fail fails ~domain:d ~index ~kind:"prepared" ~sql:psql ~epoch:(-1)
                 (Serve.error_to_string err)
           | Ok p ->
               record ~index ~kind:"prepared" ~sql:psql ~values
                 (Serve.exec_prepared p values)
         end;
         (* The long-lived statement rides across epochs: its cached plan
            must revalidate against whatever epoch each execution pins. *)
         match persist with
         | Some p when i mod 3 = 2 ->
             record ~index ~kind:"persist" ~sql:persist_sql
               ~values:[] (Serve.exec_prepared p [])
         | _ -> ()
       with e ->
         fail fails ~domain:d ~index ~kind:"reader" ~sql:"" ~epoch:(-1)
           (Printexc.to_string e));
      Atomic.incr completed
    done;
    Serve.close_session s;
    (!obs, !fails)
  in
  let readers = List.init domains (fun d -> Domain.spawn (fun () -> reader d)) in
  (* Writer: publish [ingests] epochs, each gated on reader progress so
     publications land between queries rather than before or after them
     all. [free] counts the queries readers can finish without waiting on
     a publication, so every gate below is reachable. *)
  let free = domains * (per_domain - 1) in
  let writer_fails = ref [] in
  for g = 1 to ingests do
    wait_until (fun () -> Atomic.get completed >= g * free / (ingests + 1));
    List.iter
      (fun (name, schema, rows) ->
        match Serve.ingest_rows svc ~name ~schema rows with
        | Ok e ->
            Hashtbl.replace gen_of e (Atomic.fetch_and_add published 1 + 1);
            progress (Printf.sprintf "epoch %d published (generation %d)" e g)
        | Error err ->
            fail writer_fails ~domain:(-1) ~index:g ~kind:"ingest" ~sql:"" ~epoch:(-1)
              (Serve.error_to_string err))
      (writer_batches ~seed g)
  done;
  Atomic.set writer_done true;
  let per_reader = List.map Domain.join readers in
  Serve.close svc;
  let all_obs = List.concat_map fst per_reader in
  let fails =
    ref (List.concat_map snd per_reader @ !writer_fails)
  in
  (* Replay oracle: for each epoch some query pinned, rebuild that exact
     catalog state sequentially and demand bit-identical answers. *)
  let oracles = Hashtbl.create 8 in
  let oracle_for epoch =
    match Hashtbl.find_opt oracles epoch with
    | Some e -> e
    | None ->
        let acked =
          List.concat_map (writer_batches ~seed) (List.init ingests succ)
          |> List.filteri (fun k _ -> k < Hashtbl.find gen_of epoch)
        in
        let o = Dataset.oracle ~base:(base ()) acked in
        L.Engine.set_config o { (L.Engine.config o) with L.Config.domains = 1 };
        Hashtbl.replace oracles epoch o;
        o
    in
  List.iter
    (fun o ->
      Obs.incr c_replays;
      let fail_replay =
        fail fails ~domain:o.o_domain ~index:o.o_index ~kind:o.o_kind ~sql:o.o_sql
          ~epoch:o.o_epoch
      in
      match
        let oe = oracle_for o.o_epoch in
        if o.o_values = [] then Table.to_rows (L.Engine.query oe o.o_sql)
        else
          let stmt = L.Engine.prepare oe o.o_sql in
          Table.to_rows (L.Engine.Stmt.exec stmt o.o_values)
      with
      | exception e -> fail_replay ("replay raised " ^ Printexc.to_string e)
      | expect ->
          if compare (Rows.canonical expect) (Rows.canonical o.o_rows) <> 0 then
            fail_replay
              (match Rows.diff ~expect ~got:o.o_rows with
              | Some d -> d
              | None -> "float cells differ in low bits (not bit-identical)"))
    all_obs;
  let epochs =
    List.sort_uniq compare (List.map (fun o -> o.o_epoch) all_obs)
  in
  if List.length epochs < 2 then
    fail fails ~domain:(-1) ~index:(-1) ~kind:"coverage" ~sql:"" ~epoch:(-1)
      (Printf.sprintf
         "queries observed %d distinct epoch(s); the interleaving never \
          spanned a swap"
         (List.length epochs));
  let count kind = List.length (List.filter (fun o -> o.o_kind = kind) all_obs) in
  {
    c_domains = domains;
    c_queries = List.length all_obs;
    c_adhoc = count "adhoc";
    c_prepared = count "prepared";
    c_persist = count "persist";
    c_ingests = Atomic.get published;
    c_epochs_observed = List.length epochs;
    c_failures = List.rev !fails;
  }

let ok s = s.c_failures = []

let failure_to_string f =
  Printf.sprintf "FAIL [%s] domain=%d index=%d epoch=%d\n  query:  %s\n  detail: %s"
    f.f_kind f.f_domain f.f_index f.f_epoch
    (if f.f_sql = "" then "-" else f.f_sql)
    f.f_detail

let to_text s =
  let head =
    Printf.sprintf
      "concurrent sessions: domains=%d queries=%d (adhoc=%d prepared=%d \
       persist=%d) ingests=%d epochs-observed=%d failures=%d"
      s.c_domains s.c_queries s.c_adhoc s.c_prepared s.c_persist s.c_ingests
      s.c_epochs_observed
      (List.length s.c_failures)
  in
  match s.c_failures with
  | [] -> head ^ "\n"
  | fs -> head ^ "\n" ^ String.concat "\n" (List.map failure_to_string fs) ^ "\n"
