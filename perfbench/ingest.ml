(* Workload "ingest": durable serving through one lhserve child
   (--data-dir, --wal-sync group:8, --checkpoint-every 32) over a small
   preloaded base catalog. Closed loop: each op ingests one 64-row side
   table (side0..3 in rotation) and then runs one query, alternating
   between a pinned report session (re-pinned every Mix.repin_every ops,
   so it reads a warm, older epoch) and an unpinned dashboard session
   (reads the epoch the ingest just published, cold view caches). Every
   ingest publishes an epoch, so this workload pays the per-epoch
   O(catalog) costs that analytics never does. After the stream: shutdown,
   restart on the same directory, and check every acknowledged side
   table. *)

let spec =
  { Inputs.ds_name = "serving"; tpch_sf = 0.005; harbor_scale = 0.005; band = None; dense = None }

let checkpoint_every = 32

(* --table preloads are not written to the WAL, so a restart must pass
   the same --table flags to see the base catalog again. *)
let server_args ds dir =
  Analytics.server_args ds
  @ [ "--data-dir"; dir; "--wal-sync"; "group:8"; "--checkpoint-every";
      string_of_int checkpoint_every ]

type expected = {
  q3 : Check.expected;
  smv : Check.expected;
  join : Check.expected array;  (* by side-table variant *)
}

(* Built on the engine's dictionary: the evaluator decodes every
   relation's strings through one dictionary. *)
let side_table eng ~seed g =
  Lh_storage.Table.of_rows ~name:"side" ~schema:Inputs.side_schema
    ~dict:(Levelheaded.Engine.dict eng) (Inputs.side_batch ~seed g)

let expected_answers ~seed ds =
  let eng = Inputs.load_engine ds in
  let lookup = Check.lookup_of eng in
  {
    q3 = Check.pairwise ~lookup Mix.q3_fixed;
    smv = Check.pairwise ~lookup Mix.smv_fixed;
    join =
      Array.init Inputs.variants (fun v ->
          let side = side_table eng ~seed v in
          let lookup n = if String.starts_with ~prefix:"side" n then side else lookup n in
          Check.pairwise ~lookup (Inputs.side_join_sql 0));
  }

let ingest_line ~seed g =
  let b = Buffer.create 4096 in
  Printf.bprintf b "ingest %s %s\n"
    (Inputs.side_name (g mod Inputs.nsides))
    (Inputs.ingest_spec Inputs.side_schema);
  List.iter
    (fun row ->
      Buffer.add_string b (String.concat "," (List.map Inputs.cell_to_string row));
      Buffer.add_char b '\n')
    (Inputs.side_batch ~seed g);
  Buffer.add_string b ".\n";
  Buffer.contents b

let query_sql q ~side =
  match q with
  | Mix.Q3 -> Mix.q3_fixed
  | Mix.Smv -> Mix.smv_fixed
  | Mix.Side_join -> Inputs.side_join_sql side

(* Which side-table versions each acknowledged epoch holds. *)
type model = { versions : int array; at_epoch : (int, int array) Hashtbl.t }

let ack m g epoch =
  m.versions.(g mod Inputs.nsides) <- g;
  Hashtbl.replace m.at_epoch epoch (Array.copy m.versions)

let do_ingest c m ~seed g =
  let t0 = Tally.now () in
  Child.send c (ingest_line ~seed g);
  let r = Child.read_response c in
  let dt = Tally.now () -. t0 in
  (match (Child.is_ok r, Child.field "epoch" r) with
  | true, Some e -> ack m g e
  | _ -> ());
  (r, dt)

type drive = {
  ops : int;
  wall : float;  (* timed phase, checking excluded *)
  lats : float list;  (* every ingest and query, in stream order *)
  ingests : float list;
  fresh : float list;
  pinned : float list;
}

(* The expected answer of query [q] run under [epoch], if the epoch is
   one this stream acknowledged. *)
let expected_for exp m q ~side epoch =
  match q with
  | Mix.Q3 -> Some exp.q3
  | Mix.Smv -> Some exp.smv
  | Mix.Side_join ->
      Option.map
        (fun vs -> exp.join.(vs.(side) mod Inputs.variants))
        (Hashtbl.find_opt m.at_epoch epoch)

(* Set-up ingests g = 0..3 and the dashboard session, then the closed
   loop for [seconds]. *)
let drive c m tally exp ~seed ~seconds =
  for g = 0 to Inputs.nsides - 1 do
    ignore (Child.expect_ok "set-up ingest" (fst (do_ingest c m ~seed g)))
  done;
  ignore (Child.expect_ok "open" (Child.request c "open"));
  let lats = ref [] and ingests = ref [] and fresh = ref [] and pinned = ref [] in
  let checking = ref 0.0 in
  let t0 = Tally.now () in
  let i = ref 0 in
  while Tally.now () -. t0 < seconds do
    let g = !i + Inputs.nsides in
    let side = g mod Inputs.nsides in
    if !i mod Mix.repin_every = 0 then ignore (Child.expect_ok "pin" (Child.request c "pin 0"));
    Tally.attempt tally;
    let r, dt = do_ingest c m ~seed g in
    lats := dt :: !lats;
    if Child.is_ok r then ingests := dt :: !ingests
    else Tally.fail tally ("ingest: " ^ r.Child.status);
    let is_pinned = !i mod 2 = 0 in
    let q = Mix.ingest_query ~seed !i in
    Tally.attempt tally;
    let t1 = Tally.now () in
    let r =
      Child.request c (Printf.sprintf "query %d %s" (if is_pinned then 0 else 1) (query_sql q ~side))
    in
    let dt = Tally.now () -. t1 in
    lats := dt :: !lats;
    let c0 = Tally.now () in
    let name = Mix.serving_query_name q in
    (match (Child.is_ok r, Child.field "epoch" r) with
    | true, Some e -> (
        match Option.map (fun x -> Check.diff x r.Child.rows) (expected_for exp m q ~side e) with
        | Some None ->
            Tally.query tally ~kind:name ~family:(Mix.serving_family q) dt;
            if is_pinned then pinned := dt :: !pinned else fresh := dt :: !fresh
        | Some (Some msg) -> Tally.fail tally (Printf.sprintf "%s: wrong answer: %s" name msg)
        | None -> Tally.fail tally (Printf.sprintf "%s: unknown epoch %d" name e))
    | _ -> Tally.fail tally (Printf.sprintf "%s: %s" name r.Child.status));
    checking := !checking +. (Tally.now () -. c0);
    incr i
  done;
  {
    ops = 2 * !i;
    wall = Tally.now () -. t0 -. !checking;
    lats = List.rev !lats;
    ingests = !ingests;
    fresh = !fresh;
    pinned = !pinned;
  }

let new_model () = { versions = Array.make Inputs.nsides (-1); at_epoch = Hashtbl.create 4096 }

(* Spawn on an empty store directory until the first "ok". *)
let start ~bin ds k =
  let dir = Inputs.temp_dir (Printf.sprintf "ingest%d" k) in
  let c, dt = Analytics.spawn_timed ~bin (server_args ds dir) in
  (c, dir, dt)

(* Every acknowledged side table must come back from a restart, exactly. *)
let check_restart c tally ~seed versions =
  Array.iteri
    (fun side g ->
      Tally.attempt tally;
      let r = Child.request c (Printf.sprintf "query 0 %s" (Inputs.side_scan_sql side)) in
      let expect = Check.expected_of_rows (Inputs.side_batch ~seed g) in
      match (Child.is_ok r, Check.diff expect r.Child.rows) with
      | true, None -> ()
      | true, Some msg ->
          Tally.fail tally (Printf.sprintf "restart: %s lost: %s" (Inputs.side_name side) msg)
      | false, _ -> Tally.fail tally ("restart: " ^ r.Child.status))
    versions

let run ~bin ~seed ~seconds =
  let ds = Inputs.prepare spec in
  let exp = expected_answers ~seed ds in
  let tally = Tally.create () in
  let setups = List.init Tally.setups (start ~bin ds) in
  let c, dir, _ = List.nth setups (Tally.setups - 1) in
  List.iteri (fun k (c', _, _) -> if k < Tally.setups - 1 then Child.quit c') setups;
  let setup = List.map (fun (_, _, dt) -> dt) setups in
  let m = new_model () in
  Fun.protect
    ~finally:(fun () -> Child.kill c)
    (fun () ->
      let d = drive c m tally exp ~seed ~seconds in
      let rss = Child.peak_rss_mb c.Child.pid in
      ignore (Child.expect_ok "shutdown" (Child.request c "shutdown"));
      Child.reap c;
      let c2, restart = Analytics.spawn_timed ~bin (server_args ds dir) in
      Fun.protect
        ~finally:(fun () -> Child.kill c2)
        (fun () ->
          check_restart c2 tally ~seed m.versions;
          Child.quit c2);
      let n l = List.length l in
      let p q l = Stats.ms (Stats.quantile q l) in
      ( tally,
        Tally.end_to_end tally ~setup ~ops:d.ops ~wall:d.wall ~peak_rss_mb:rss,
        Stats.
          [
            metric "ingest_p50_ms" "ms" ~samples:(n d.ingests) (p 0.5 d.ingests);
            metric "ingest_p99_ms" "ms" ~samples:(n d.ingests) (p 0.99 d.ingests);
            metric "fresh_query_p50_ms" "ms" ~samples:(n d.fresh) (p 0.5 d.fresh);
            metric "pinned_query_p50_ms" "ms" ~samples:(n d.pinned) (p 0.5 d.pinned);
            metric "restart_s" "s" ~samples:1 restart;
          ]
        @ Tally.per_kind tally ))
