(* Layout-specialized WCOJ kernel experiment.

   Times the set kernels on the two shapes they target:

     triangle   a count-star over a 3-cycle of one edge relation — every key
                is referenced, the distinct-key tries are leaf-unit, so
                the innermost level runs the count-only kernel
                (popcount / gallop-count / merge-count, nothing
                materialized);
     chain      a grouped 2-chain — the innermost level streams matches
                with their ranks through foreach_inter_ranked into the
                aggregate slots instead of materializing the
                intersection.

   Three edge relations pin the three layout regimes of the sets the
   kernels see (Set.choose_layout: dense iff card >= 16 and span <=
   16*card): [edge_d] (48x48 at ~60% fill — every set a bitset, bs∩bs),
   [edge_s] (~900 edges over a 16k domain — uint everywhere, uint∩uint)
   and [edge_m] (a full dense first level over sparse neighbor lists —
   bs∩uint at the top, uint∩uint below).

   One timing per cell, default configuration (EXPERIMENTS.md sets them
   beside a materializing leaf loop's BENCH_10.json timings). The
   chain-group cells on the sparse relations are allocation-bound — the grouped relaxed-tail
   path allocates accumulators sized by the 16k value domain, dwarfing the
   one uint∩uint per query — so they swing with GC drift even after the
   priming and compaction below. *)

module C = Common
module L = Levelheaded
module Dtype = Lh_storage.Dtype
module Schema = Lh_storage.Schema
module Prng = Lh_util.Prng

let edge_schema =
  Schema.create
    [
      ("row", Dtype.Int, Schema.Key);
      ("col", Dtype.Int, Schema.Key);
      ("v", Dtype.Float, Schema.Annotation);
    ]

let build params =
  let eng = L.Engine.create () in
  let rng = Prng.create (params.C.seed lxor 0x1a70) in
  let reg name rows = ignore (L.Engine.register_rows eng ~name ~schema:edge_schema rows) in
  let pair r c =
    [ Dtype.VInt r; Dtype.VInt c; Dtype.VFloat (float_of_int (Prng.int_in rng (-4) 4)) ]
  in
  (* dense: 48x48 at ~60% fill — all trie sets choose the bitset layout *)
  reg "edge_d"
    (List.concat_map
       (fun r ->
         List.filter_map
           (fun c -> if Prng.int rng 10 < 6 then Some (pair r c) else None)
           (List.init 48 Fun.id))
       (List.init 48 Fun.id));
  (* sparse: ~900 distinct edges over a 16384 domain — all sets uint *)
  let seen = Hashtbl.create 1024 in
  reg "edge_s"
    (List.init 900 (fun _ ->
         let rec fresh () =
           let r = Prng.int rng 16384 and c = Prng.int rng 16384 in
           if Hashtbl.mem seen (r, c) then fresh ()
           else begin
             Hashtbl.add seen (r, c) ();
             pair r c
           end
         in
         fresh ()));
  (* mixed: a full dense first level (0..47) over sparse neighbor lists *)
  reg "edge_m"
    (List.concat_map
       (fun r ->
         let cols = Hashtbl.create 16 in
         let rec draw k acc =
           if k = 0 then acc
           else
             let c = Prng.int rng 2048 in
             if Hashtbl.mem cols c then draw k acc
             else begin
               Hashtbl.add cols c ();
               draw (k - 1) (pair r c :: acc)
             end
         in
         draw 12 [])
       (List.init 48 Fun.id));
  eng

let triangle_sql rel =
  Printf.sprintf
    "select count(*) as t from %s r0, %s r1, %s r2 where r0.col = r1.row and r1.col = r2.row \
     and r2.col = r0.row"
    rel rel rel

let chain_sql rel =
  Printf.sprintf
    "select r0.row as a, count(*) as c from %s r0, %s r1 where r0.col = r1.row group by r0.row"
    rel rel

let run params =
  let eng = build params in
  let budget =
    Lh_util.Budget.create ~max_live_words:params.C.mem_words ~max_seconds:params.C.timeout ()
  in
  L.Engine.set_config eng { L.Config.default with L.Config.budget };
  let arm sql () = ignore (L.Engine.query eng sql) in
  C.print_header "Set-layout kernels — specialized WCOJ leaves" [ "specialized" ];
  List.map
    (fun (label, sql) ->
      (* Prime before measuring: the first execution of a cell builds
         tries for its attribute order and grows the major heap (the
         grouped cells allocate sparse accumulators sized by the value
         domain). Compact so every cell starts from the same heap. *)
      arm sql ();
      Gc.compact ();
      let spec =
        C.measured ~budget ~runs:params.C.runs ~system:"specialized" ~sql (arm sql)
      in
      C.print_row label [ C.outcome_to_string spec ];
      (label, spec))
    (List.concat_map
       (fun rel ->
         [
           (rel ^ "/triangle-count", triangle_sql rel);
           (rel ^ "/chain-group", chain_sql rel);
         ])
       [ "edge_d"; "edge_s"; "edge_m" ])
