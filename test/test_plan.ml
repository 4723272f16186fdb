module L = Levelheaded
module AO = L.Attr_order

let eng = Helpers.tpch_engine

let translate ?(attribute_elimination = true) sql =
  L.Logical.translate
    (L.Engine.catalog (Lazy.force eng))
    ~attribute_elimination (Lh_sql.Parser.parse sql)

(* ---- SQL -> hypergraph (rules of §IV-A) ---- *)

let test_q5_hypergraph () =
  let lq = translate Helpers.q5 in
  Alcotest.(check int) "5 vertices (rule 1)" 5 (Array.length lq.L.Logical.vertices);
  Alcotest.(check int) "6 edges" 6 (Array.length lq.L.Logical.edges);
  let names = Array.to_list lq.L.Logical.vertices |> List.map (fun v -> v.L.Logical.vname) in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "custkey"; "orderkey"; "suppkey"; "nationkey"; "regionkey" ];
  (* region carries the equality selection (rule 4 metadata + weights) *)
  let region =
    Array.to_list lq.L.Logical.edges
    |> List.find (fun (e : L.Logical.edge) -> e.L.Logical.alias = "region")
  in
  Alcotest.(check bool) "region eq-selected" true region.L.Logical.eq_selected;
  (* lineitem's annotation expression becomes its slot (rule 3) *)
  Alcotest.(check int) "single slot" 1 (Array.length lq.L.Logical.slots);
  match lq.L.Logical.slots.(0).L.Logical.owners with
  | [ ("lineitem", _) ] -> ()
  | _ -> Alcotest.fail "lineitem should own the revenue slot"

let test_q9_decomposition () =
  let lq = translate Helpers.q9 in
  (* l_e*(1-l_d) - ps_cost*l_qty spans two relations: two slots. *)
  Alcotest.(check int) "two slots" 2 (Array.length lq.L.Logical.slots);
  let owners j =
    List.map fst lq.L.Logical.slots.(j).L.Logical.owners |> List.sort compare
  in
  Alcotest.(check (list string)) "term 1" [ "lineitem" ] (owners 0);
  Alcotest.(check (list string)) "term 2" [ "lineitem"; "partsupp" ] (owners 1)

let test_q8_case_indicator () =
  let lq = translate Helpers.q8 in
  (* brazil term: indicator(n2) * volume(lineitem); total term: lineitem *)
  Alcotest.(check int) "two slots" 2 (Array.length lq.L.Logical.slots);
  let slot0 = lq.L.Logical.slots.(0) in
  Alcotest.(check (list string)) "indicator term owners" [ "lineitem"; "n2" ]
    (List.map fst slot0.L.Logical.owners |> List.sort compare)

let test_q1_scan_shape () =
  let lq = translate Helpers.q1 in
  Alcotest.(check int) "no vertices" 0 (Array.length lq.L.Logical.vertices);
  Alcotest.(check int) "group by two annotations" 2 (Array.length lq.L.Logical.group_by);
  (* 4 SUMs + 3 AVG sums + 1 shared count = 8 slots *)
  Alcotest.(check int) "slots" 8 (Array.length lq.L.Logical.slots)

let test_count_slot_shared () =
  let lq = translate "select avg(l_quantity) a, count(*) c, avg(l_discount) b from lineitem" in
  (* avg sums: 2; one count slot shared by COUNT and both AVGs *)
  Alcotest.(check int) "three slots" 3 (Array.length lq.L.Logical.slots)

let test_attr_elim_off () =
  let on = translate Helpers.q1 in
  let off = translate ~attribute_elimination:false Helpers.q1 in
  Alcotest.(check int) "AE on: no vertices" 0 (Array.length on.L.Logical.vertices);
  Alcotest.(check int) "AE off: all lineitem keys become vertices" 4
    (Array.length off.L.Logical.vertices);
  let dead =
    Array.to_list off.L.Logical.slots |> List.filter (fun s -> s.L.Logical.dead) |> List.length
  in
  Alcotest.(check bool) "dead slots present" true (dead > 0)

let test_unsupported_queries () =
  List.iter
    (fun sql ->
      match translate sql with
      | exception L.Logical.Unsupported_query _ -> ()
      | exception L.Logical.Unknown_table _ -> ()
      | exception L.Logical.Unknown_column _ -> ()
      | _ -> Alcotest.failf "accepted %S" sql)
    [
      (* Cartesian product *)
      "select count(*) c from customer, orders";
      (* join on an annotation *)
      "select count(*) c from customer, nation where c_name = n_name";
      (* non-equi join *)
      "select count(*) c from customer, orders where c_custkey < o_custkey";
      (* cross-relation disjunction *)
      "select count(*) c from customer, orders where c_custkey = o_custkey or c_custkey = 1";
      (* aggregated key *)
      "select sum(c_custkey) s from customer";
      (* ungrouped plain output *)
      "select c_name from customer";
      (* unknown table *)
      "select count(*) c from nosuch";
      (* ambiguous column *)
      "select count(*) c from nation n1, nation n2 where n1.n_nationkey = n2.n_nationkey and n_name = 'x'";
    ]

(* ---- GHDs ---- *)

let test_q5_ghd () =
  let lq = translate Helpers.q5 in
  let ghd = L.Ghd.plan lq ~heuristics:true in
  Alcotest.(check (float 1e-6)) "fhw 2 (4-cycle)" 2.0 ghd.L.Ghd.fhw;
  Alcotest.(check int) "two bags" 2 (List.length (L.Ghd.nodes ghd));
  (* heuristic 4: the selected region sits in the deeper bag *)
  let root = ghd.L.Ghd.root in
  let region_edge =
    Array.to_list lq.L.Logical.edges
    |> List.mapi (fun i e -> (i, e))
    |> List.find (fun (_, (e : L.Logical.edge)) -> e.L.Logical.alias = "region")
    |> fst
  in
  Alcotest.(check bool) "region not in root" true (not (List.mem region_edge root.L.Ghd.bag_edges));
  match L.Ghd.validate ~nvertices:(Array.length lq.L.Logical.vertices)
          ~edges:(L.Logical.edge_vertex_list lq) ghd with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_q3_single_node () =
  let lq = translate Helpers.q3 in
  let ghd = L.Ghd.plan lq ~heuristics:true in
  Alcotest.(check (float 1e-6)) "acyclic fhw 1" 1.0 ghd.L.Ghd.fhw;
  Alcotest.(check int) "single bag" 1 (List.length (L.Ghd.nodes ghd))

let test_smm_single_node () =
  let lq = translate Helpers.smm in
  let ghd = L.Ghd.plan lq ~heuristics:true in
  (* both group-by keys must live in the root, forcing one bag of width 2 *)
  Alcotest.(check int) "single bag" 1 (List.length (L.Ghd.nodes ghd));
  Alcotest.(check (float 1e-6)) "fhw 2" 2.0 ghd.L.Ghd.fhw

let test_ghd_candidates_validate () =
  List.iter
    (fun (name, sql) ->
      let lq = translate sql in
      if Array.length lq.L.Logical.vertices > 0 then
        List.iter
          (fun c ->
            match
              L.Ghd.validate ~nvertices:(Array.length lq.L.Logical.vertices)
                ~edges:(L.Logical.edge_vertex_list lq) c
            with
            | Ok () -> ()
            | Error msg -> Alcotest.failf "%s: invalid candidate: %s" name msg)
          (L.Ghd.candidates lq))
    (Helpers.tpch_queries @ Helpers.la_queries)

(* ---- cost-based attribute ordering (§V) ---- *)

(* Example 5.1 from the paper: the TPC-H Q5 node with relations
   o(ok,ck), l(ok,sk), c(ck,nk), s(sk,nk), n(nk) and order
   [orderkey; custkey; nationkey; suppkey] gets icosts [1; 10; 11; 50]. *)
let example_rels =
  let mk vs card sel = { AO.rvertices = vs; rcard = card; reselected = sel; rdense = false } in
  (* vertices: 0=orderkey 1=custkey 2=nationkey 3=suppkey *)
  [
    mk [ 0; 1 ] 26_000 false (* orders *);
    mk [ 0; 3 ] 100_000 false (* lineitem *);
    mk [ 1; 2 ] 3_000 false (* customer *);
    mk [ 3; 2 ] 1_000 false (* supplier *);
    mk [ 2 ] 25 false (* nation (restricted to this node) *);
  ]

let test_icost_example_5_1 () =
  let order = [ 0; 1; 2; 3 ] in
  let icosts = List.mapi (fun pos _ -> AO.vertex_icost ~rels:example_rels ~order pos) order in
  Alcotest.(check (list (float 1e-9))) "icosts" [ 1.0; 10.0; 11.0; 50.0 ] icosts

let test_icost_pairs () =
  Alcotest.(check int) "bb" 1 (AO.icost_pair AO.Guess_bs AO.Guess_bs);
  Alcotest.(check int) "bu" 10 (AO.icost_pair AO.Guess_bs AO.Guess_uint);
  Alcotest.(check int) "uu" 50 (AO.icost_pair AO.Guess_uint AO.Guess_uint)

let test_icost_dense_zero () =
  let rels =
    [
      { AO.rvertices = [ 0; 1 ]; rcard = 100; reselected = false; rdense = true };
      { AO.rvertices = [ 1; 2 ]; rcard = 100; reselected = false; rdense = true };
    ]
  in
  List.iter
    (fun pos ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "pos %d" pos)
        0.0
        (AO.vertex_icost ~rels ~order:[ 0; 1; 2 ] pos))
    [ 0; 1; 2 ]

(* Example 5.3: scores and min/max weights. *)
let test_weights_example_5_3 () =
  let mk vs card sel = { AO.rvertices = vs; rcard = card; reselected = sel; rdense = false } in
  (* 0=orderkey 1=custkey 2=nationkey 3=suppkey 4=regionkey *)
  let rels =
    [
      mk [ 0; 3 ] 100_000 false (* lineitem: score 100 *);
      mk [ 0; 1 ] 26_000 false (* orders: 26 *);
      mk [ 1; 2 ] 3_000 false (* customer: 3 *);
      mk [ 3; 2 ] 1_000 false (* supplier: 1 *);
      mk [ 2; 4 ] 25 false (* nation: 1 *);
      mk [ 4 ] 5 true (* region: 1, equality-selected *);
    ]
  in
  let w = AO.vertex_weights rels in
  Alcotest.(check (float 1e-9)) "orderkey = min(26,100)" 26.0 (w 0);
  Alcotest.(check (float 1e-9)) "custkey = min(3,26)" 3.0 (w 1);
  Alcotest.(check (float 1e-9)) "nationkey = min(1,1,3)" 1.0 (w 2);
  Alcotest.(check (float 1e-9)) "suppkey = min(1,100)" 1.0 (w 3);
  Alcotest.(check (float 1e-9)) "regionkey = max(1,1)" 1.0 (w 4)

let test_valid_orders_materialized_first () =
  let orders = AO.valid_orders ~relax:false ~vertices:[ 0; 1; 2 ] ~materialized:[ 0; 2 ] ~global_order:[] in
  Alcotest.(check int) "two valid orders" 2 (List.length orders);
  List.iter
    (fun (o, relaxed) ->
      Alcotest.(check bool) "not relaxed" false relaxed;
      match o with
      | [ a; b; c ] ->
          Alcotest.(check bool) "last projected" true (c = 1);
          Alcotest.(check bool) "mats first" true (List.sort compare [ a; b ] = [ 0; 2 ])
      | _ -> Alcotest.fail "length")
    orders

let test_valid_orders_relaxed () =
  let orders = AO.valid_orders ~relax:true ~vertices:[ 0; 1; 2 ] ~materialized:[ 0; 2 ] ~global_order:[] in
  (* base [0;2;1], [2;0;1] plus swapped [0;1;2], [2;1;0] *)
  Alcotest.(check int) "four candidates" 4 (List.length orders);
  Alcotest.(check bool) "swap flagged" true
    (List.mem ([ 0; 1; 2 ], true) orders && List.mem ([ 2; 1; 0 ], true) orders)

let test_global_order_respected () =
  let orders =
    AO.valid_orders ~relax:false ~vertices:[ 0; 1 ] ~materialized:[ 0; 1 ] ~global_order:[ 1; 0 ]
  in
  Alcotest.(check (list (pair (list int) bool))) "only [1;0]" [ ([ 1; 0 ], false) ] orders

(* The SMM shape: m1(i,k), m2(k,j), materialized {i, j}.  The cost-based
   optimizer must pick the relaxed [i; k; j] order (Example 5.2 / Fig 5b). *)
let test_smm_relaxed_choice () =
  let rels =
    [
      { AO.rvertices = [ 0; 1 ]; rcard = 1000; reselected = false; rdense = false };
      { AO.rvertices = [ 1; 2 ]; rcard = 1000; reselected = false; rdense = false };
    ]
  in
  let weights = AO.vertex_weights rels in
  let res =
    AO.choose ~policy:L.Config.Cost_based ~relax:true ~rels ~weights ~vertices:[ 0; 1; 2 ]
      ~materialized:[ 0; 2 ] ~global_order:[]
  in
  Alcotest.(check (list int)) "order [i;k;j]" [ 0; 1; 2 ] res.AO.order;
  Alcotest.(check bool) "relaxed" true res.AO.relaxed;
  (* and it must be cheaper than the unrelaxed [i;j;k] *)
  let base = AO.cost ~rels ~weights [ 0; 2; 1 ] in
  Alcotest.(check bool) "cheaper than [i;j;k]" true (res.AO.ocost < base)

let test_worst_cost_policy () =
  let rels = example_rels in
  let weights = AO.vertex_weights rels in
  let best =
    AO.choose ~policy:L.Config.Cost_based ~relax:false ~rels ~weights ~vertices:[ 0; 1; 2; 3 ]
      ~materialized:[] ~global_order:[]
  in
  let worst =
    AO.choose ~policy:L.Config.Worst_cost ~relax:false ~rels ~weights ~vertices:[ 0; 1; 2; 3 ]
      ~materialized:[] ~global_order:[]
  in
  Alcotest.(check bool) "worst >= best" true (worst.AO.ocost >= best.AO.ocost);
  Alcotest.(check bool) "strictly worse here" true (worst.AO.ocost > best.AO.ocost)

let qcheck_choose_is_min =
  let gen =
    QCheck2.Gen.(
      let* nverts = int_range 2 4 in
      let* nrels = int_range 1 4 in
      let* rels =
        list_repeat nrels
          (let* vs = list_size (int_range 1 nverts) (int_range 0 (nverts - 1)) in
           let* card = int_range 1 1000 in
           let* sel = bool in
           return { AO.rvertices = List.sort_uniq compare vs; rcard = card; reselected = sel; rdense = false })
      in
      let* nmat = int_range 0 nverts in
      return (nverts, rels, List.init nmat Fun.id))
  in
  Helpers.qtest ~count:150 "cost-based choice is the minimum over candidates" gen
    (fun (nverts, rels, materialized) ->
      let vertices = List.init nverts Fun.id in
      (* every vertex must be covered by some relation for icost to be sane *)
      let weights = AO.vertex_weights rels in
      let res =
        AO.choose ~policy:L.Config.Cost_based ~relax:true ~rels ~weights ~vertices ~materialized
          ~global_order:[]
      in
      let all = AO.valid_orders ~relax:true ~vertices ~materialized ~global_order:[] in
      List.for_all (fun (o, _) -> res.AO.ocost <= AO.cost ~rels ~weights o +. 1e-9) all)

(* ---- WCOJ leaf disposition (Compile.Leaf.mode) ---- *)

(* A semiring whose ⊕-repetition has no closed form: count-only leaves
   cannot apply the factor n after the fold. *)
let opaque_sr =
  { L.Semiring.sum_product with L.Semiring.name = "opaque_sum"; card = L.Semiring.Opaque }

type leaf_args = {
  leaf_unit : bool;
  srs : L.Semiring.t array;
  relaxed_tail : bool;
  boundary : int option;
  group_uses_last : bool;
}

let leaf_mode_of ~npos a =
  L.Compile.Leaf.mode ~leaf_unit:a.leaf_unit
    ~scalable:(Array.for_all L.Semiring.scalable a.srs)
    ~relaxed_tail:a.relaxed_tail ~boundary:a.boundary ~group_uses_last:a.group_uses_last ~npos

(* Each soundness condition, broken on its own or with others, forces
   Stream; Count is returned only when every condition holds (all 2^5
   combinations). *)
let test_leaf_mode_table () =
  let npos = 3 in
  let sound =
    {
      leaf_unit = true;
      srs = [| L.Semiring.sum_product; L.Semiring.min_plus; L.Semiring.bool_or_and |];
      relaxed_tail = false;
      boundary = Some (npos - 1);
      group_uses_last = false;
    }
  in
  let breaks =
    [
      ("non-unit leaves", fun a -> { a with leaf_unit = false });
      ("Opaque semiring", fun a -> { a with srs = Array.append a.srs [| opaque_sr |] });
      ("relaxed tail", fun a -> { a with relaxed_tail = true });
      ("boundary covers the last position", fun a -> { a with boundary = Some npos });
      ("group source reads the last position", fun a -> { a with group_uses_last = true });
    ]
  in
  let mode = Alcotest.testable (Fmt.of_to_string L.Compile.Leaf.mode_to_string) ( = ) in
  Alcotest.check mode "hash path (no boundary)" L.Compile.Leaf.Count
    (leaf_mode_of ~npos { sound with boundary = None });
  Alcotest.check mode "no positions" L.Compile.Leaf.Stream (leaf_mode_of ~npos:0 sound);
  for mask = 0 to (1 lsl List.length breaks) - 1 do
    let broken = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) breaks in
    Alcotest.check mode
      (if mask = 0 then "all conditions hold" else String.concat " + " (List.map fst broken))
      (if mask = 0 then L.Compile.Leaf.Count else L.Compile.Leaf.Stream)
      (leaf_mode_of ~npos (List.fold_left (fun a (_, break) -> break a) sound broken))
  done

let () =
  Alcotest.run "levelheaded-plan"
    [
      ( "translate",
        [
          Alcotest.test_case "Q5 hypergraph (Ex 4.1)" `Quick test_q5_hypergraph;
          Alcotest.test_case "Q9 term decomposition" `Quick test_q9_decomposition;
          Alcotest.test_case "Q8 CASE indicator" `Quick test_q8_case_indicator;
          Alcotest.test_case "Q1 scan shape" `Quick test_q1_scan_shape;
          Alcotest.test_case "count slot shared" `Quick test_count_slot_shared;
          Alcotest.test_case "attribute elimination off" `Quick test_attr_elim_off;
          Alcotest.test_case "unsupported queries rejected" `Quick test_unsupported_queries;
        ] );
      ( "ghd",
        [
          Alcotest.test_case "Q5: fhw 2, selection deep" `Quick test_q5_ghd;
          Alcotest.test_case "Q3: single node" `Quick test_q3_single_node;
          Alcotest.test_case "SMM: single node, fhw 2" `Quick test_smm_single_node;
          Alcotest.test_case "all candidates validate" `Quick test_ghd_candidates_validate;
        ] );
      ( "attr-order",
        [
          Alcotest.test_case "icost pairs (Fig 5a)" `Quick test_icost_pairs;
          Alcotest.test_case "icost Example 5.1" `Quick test_icost_example_5_1;
          Alcotest.test_case "dense relations cost 0" `Quick test_icost_dense_zero;
          Alcotest.test_case "weights Example 5.3" `Quick test_weights_example_5_3;
          Alcotest.test_case "materialized first" `Quick test_valid_orders_materialized_first;
          Alcotest.test_case "relaxation candidates" `Quick test_valid_orders_relaxed;
          Alcotest.test_case "global order respected" `Quick test_global_order_respected;
          Alcotest.test_case "SMM picks relaxed [i;k;j]" `Quick test_smm_relaxed_choice;
          Alcotest.test_case "worst-cost policy" `Quick test_worst_cost_policy;
          qcheck_choose_is_min;
        ] );
      ("leaf-mode", [ Alcotest.test_case "soundness conditions" `Quick test_leaf_mode_table ]);
    ]
