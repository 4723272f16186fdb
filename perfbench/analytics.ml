(* Workload "analytics": read-only BI + LA through one lhserve child, one
   session, closed loop. Each round runs Q1 Q3 Q5 Q6 Q8 Q9 Q10 SMV SMM
   DMV DMM once in a seeded order; Q6 goes through prepare once and exec
   with new parameters every round. No ingest, so the epoch, ingest and
   durable layers stay idle. *)

let spec =
  {
    Inputs.ds_name = "analytics";
    tpch_sf = 0.02;
    harbor_scale = 0.04;
    band = Some (800, 4, 3);
    dense = Some 128;
  }

type t = {
  ds : Inputs.dataset;
  mix : Mix.analytics;
  expected : Check.expected array array;  (* kind -> pool variant *)
}

let prepare ~seed =
  let ds = Inputs.prepare spec in
  let mix = Mix.analytics ~seed in
  let eng = Inputs.load_engine ds in
  let lookup = Check.lookup_of eng in
  let expected =
    Array.map
      (fun (_, vs) -> Array.map (fun v -> Check.pairwise ~lookup v.Mix.reference_sql) vs)
      mix.Mix.kinds
  in
  { ds; mix; expected }

(* Every LH_* setting as an explicit flag (the child's environment has
   none of them). *)
let server_args ds =
  Inputs.table_flags ds
  @ [ "--sep"; String.make 1 Inputs.sep; "--domains"; "1"; "--max-sessions"; "8";
      "--queue-depth"; "32" ]

(* Spawn until the first "ok": table loading happens before the server
   reads stdin, so the answer to "open" marks the end of set-up. *)
let spawn_timed ~bin args =
  let t0 = Tally.now () in
  let c = Child.spawn ~bin args in
  match Child.expect_ok "open" (Child.request c "open") with
  | _ -> (c, Tally.now () -. t0)
  | exception e ->
      Child.kill c;
      raise e

(* [setups] spawns; all but the last are shut down again. *)
let start ~bin ~setups args =
  let rec go k acc =
    let c, dt = spawn_timed ~bin args in
    if k <= 1 then (c, List.rev (dt :: acc))
    else begin
      Child.quit c;
      go (k - 1) (dt :: acc)
    end
  in
  go setups []

let op_line a ~stmt (k, v) =
  let variant = (snd a.mix.Mix.kinds.(k)).(v) in
  match variant.Mix.params with
  | None -> "query 0 " ^ variant.Mix.sql
  | Some ps -> Printf.sprintf "exec %d %s" stmt (String.concat " " ps)

(* One op: send, read the whole response (latency), then check. Returns
   the seconds spent checking, which the caller keeps out of wall time. *)
let run_op a tally c ~stmt ~record (k, v) =
  let kind, _ = a.mix.Mix.kinds.(k) in
  Tally.attempt tally;
  let t0 = Tally.now () in
  let r = Child.request c (op_line a ~stmt (k, v)) in
  let dt = Tally.now () -. t0 in
  let c0 = Tally.now () in
  (if not (Child.is_ok r) then Tally.fail tally (Printf.sprintf "%s: %s" kind.Mix.k_name r.Child.status)
   else
     match Check.diff a.expected.(k).(v) r.Child.rows with
     | Some msg -> Tally.fail tally (Printf.sprintf "%s: wrong answer: %s" kind.Mix.k_name msg)
     | None -> if record then Tally.query tally ~kind:kind.Mix.k_name ~family:kind.Mix.family dt);
  (dt, Tally.now () -. c0)

let warmup_rounds = 2

(* Closed loop for [seconds] after warm-up, whole rounds only. Returns
   the tally, ops done, the checker-free wall time, and the per-op
   latencies in stream order (the traced replay's comparison base). *)
let drive a c ~seconds =
  let tally = Tally.create () in
  let stmt =
    match Child.field "stmt" (Child.expect_ok "prepare" (Child.request c ("prepare 0 " ^ Queries.q6_prepared))) with
    | Some s -> s
    | None -> failwith "prepare: no statement id"
  in
  for r = 0 to warmup_rounds - 1 do
    List.iter (fun op -> ignore (run_op a tally c ~stmt ~record:false op)) (Mix.round a.mix r)
  done;
  let t0 = Tally.now () in
  let checking = ref 0.0 and ops = ref 0 and lats = ref [] in
  let r = ref warmup_rounds in
  while Tally.now () -. t0 < seconds do
    List.iter
      (fun op ->
        let dt, chk = run_op a tally c ~stmt ~record:true op in
        checking := !checking +. chk;
        lats := dt :: !lats;
        incr ops)
      (Mix.round a.mix !r);
    incr r
  done;
  let wall = Tally.now () -. t0 -. !checking in
  (tally, !ops, wall, List.rev !lats)

let run ~bin ~seed ~seconds =
  let a = prepare ~seed in
  let c, setup = start ~bin ~setups:Tally.setups (server_args a.ds) in
  Fun.protect
    ~finally:(fun () -> Child.kill c)
    (fun () ->
      let tally, ops, wall, _ = drive a c ~seconds in
      let rss = Child.peak_rss_mb c.Child.pid in
      Child.quit c;
      (tally, Tally.end_to_end tally ~setup ~ops ~wall ~peak_rss_mb:rss, Tally.per_kind tally))
