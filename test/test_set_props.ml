(* Differential property suite for the layout-specialized set kernels.

   Every specialized entry point — of_array, inter, inter_into, count,
   foreach_inter_ranked, inter_many(_into), union, rank/nth, filter_range — is
   checked against a naive sorted-list model, over every forced layout
   pair (uint/uint, bs/uint, bs/bs) as well as the density-rule choice.
   Generators are biased toward the places kernels break: cardinality and
   span straddling the Sparse/Dense crossover (card = 16, span = 16*card),
   values packed around 63-bit word boundaries (the bitset word size),
   empty and singleton sets, and adjacent-but-disjoint ranges. *)

module Set_ = Lh_set.Set
module Bitset = Lh_set.Bitset
module Intersect = Lh_set.Intersect
module Vec = Lh_util.Vec.Int

let word_bits = 63

(* ---- model: plain sorted int lists ---- *)

let uniq l = Array.of_list (List.sort_uniq Int.compare l)
let model_inter a b = Array.of_list (List.filter (fun x -> Array.mem x b) (Array.to_list a))

let model_union a b =
  Array.of_list (List.sort_uniq Int.compare (Array.to_list a @ Array.to_list b))

let model_inter_many = function
  | [] -> invalid_arg "model_inter_many"
  | a :: rest -> List.fold_left model_inter a rest

let to_arr s =
  let acc = ref [] in
  Set_.iter (fun v -> acc := v :: !acc) s;
  Array.of_list (List.rev !acc)

(* ---- generators ---- *)

(* Sorted unique arrays, biased toward kernel edge cases. *)
let arr_gen =
  let open QCheck2.Gen in
  oneof
    [
      (* empty and singleton *)
      return [||];
      (let+ v = int_range 0 400 in
       [| v |]);
      (* crossover-biased: card straddles 16, span straddles card * 16 *)
      (let* card = int_range 12 20 in
       let* span_factor = int_range 8 24 in
       let* lo = int_range 0 100 in
       let span = max 1 (card * span_factor) in
       let+ l = list_size (return card) (int_range lo (lo + span - 1)) in
       uniq l);
      (* packed around 63-bit word boundaries *)
      (let* w = int_range 0 6 in
       let+ l =
         list_size (int_range 1 30)
           (let* k = int_range 0 3 in
            let+ d = int_range (-2) 2 in
            max 0 (((w + k) * word_bits) + d))
       in
       uniq l);
      (* dense runs with small holes *)
      (let* lo = int_range 0 50 in
       let* n = int_range 1 80 in
       let+ keep = list_size (return n) (int_range 0 9) in
       uniq (List.concat (List.mapi (fun i k -> if k < 8 then [ lo + i ] else []) keep)));
      (* generic sparse over a wide domain *)
      (let+ l = list_size (int_range 0 60) (int_range 0 2000) in
       uniq l);
    ]

let layout_gen = QCheck2.Gen.oneofl [ None; Some Set_.Sparse; Some Set_.Dense ]

(* A set plus the sorted array it was built from. *)
let set_gen =
  QCheck2.Gen.(
    let* arr = arr_gen in
    let+ layout = layout_gen in
    (arr, Set_.of_sorted_array ?layout arr))

let pair_gen = QCheck2.Gen.pair set_gen set_gen

(* ---- of_array / layout rule ---- *)

let qcheck_of_array =
  Helpers.qtest "of_array dedups, sorts, and obeys the density rule"
    QCheck2.Gen.(list_size (int_range 0 80) (int_range 0 600))
    (fun l ->
      let s = Set_.of_array (Array.of_list l) in
      let expect = uniq l in
      to_arr s = expect
      && Array.length expect = Set_.cardinality s
      &&
      (Array.length expect = 0
      || Set_.layout s
         = Set_.choose_layout ~card:(Array.length expect)
             ~range:(expect.(Array.length expect - 1) - expect.(0) + 1)))

(* ---- binary kernels vs model, all layout pairs ---- *)

let qcheck_inter =
  Helpers.qtest "inter = model (all layout pairs)" pair_gen (fun ((a, sa), (b, sb)) ->
      to_arr (Intersect.inter sa sb) = model_inter a b)

let qcheck_count =
  Helpers.qtest "count = |model inter| (all layout pairs)" pair_gen
    (fun ((a, sa), (b, sb)) ->
      Intersect.count sa sb = Array.length (model_inter a b))

(* The ranked stream must be the model, in order, and every member must
   carry its sorted position in each operand (the index the executor
   installs trie children from). *)
let ranked_streams_model sa sb a b =
  let acc = ref [] and ranks_ok = ref true in
  Intersect.foreach_inter_ranked
    (fun v ra rb ->
      acc := v :: !acc;
      if ra <> Set_.rank sa v || rb <> Set_.rank sb v then ranks_ok := false)
    sa sb;
  !ranks_ok && Array.of_list (List.rev !acc) = model_inter a b

let forced_layouts = [ Set_.Sparse; Set_.Dense ]

(* Every forced layout pair, both operand orders. *)
let ranked_all_layouts a b =
  List.for_all
    (fun la ->
      List.for_all
        (fun lb ->
          let sa = Set_.of_sorted_array ~layout:la a and sb = Set_.of_sorted_array ~layout:lb b in
          ranked_streams_model sa sb a b && ranked_streams_model sb sa b a)
        forced_layouts)
    forced_layouts

let qcheck_foreach_ranked =
  Helpers.qtest "foreach_inter_ranked = model, both ranks"
    QCheck2.Gen.(pair arr_gen arr_gen)
    (fun (a, b) -> ranked_all_layouts a b)

(* One side more than 16x the other (Intersect's gallop ratio), so the
   uint∩uint kernel gallops; both orders put the small side first once and
   second once, covering both gallop directions. *)
let skewed_gen =
  QCheck2.Gen.(
    let* big = list_size (int_range 340 500) (int_range 0 3000) in
    let big = uniq big in
    let* picks =
      list_size (int_range 1 ((Array.length big / 16) - 4)) (int_range 0 (Array.length big - 1))
    in
    let* strays = list_size (int_range 0 3) (int_range 0 3000) in
    let small = uniq (List.map (fun i -> big.(i)) picks @ strays) in
    return (small, big))

let qcheck_foreach_ranked_gallop =
  Helpers.qtest "foreach_inter_ranked ranks, galloping" skewed_gen
    (fun (small, big) ->
      Array.length small * 16 < Array.length big && ranked_all_layouts small big)

let qcheck_inter_into =
  Helpers.qtest "inter_into fills the buffer with the model" pair_gen
    (fun ((a, sa), (b, sb)) ->
      let buf = Vec.create ~capacity:4 () in
      Intersect.inter_into buf sa sb;
      Vec.to_array buf = model_inter a b)

let qcheck_union =
  Helpers.qtest "union = model (all layout pairs)" pair_gen (fun ((a, sa), (b, sb)) ->
      to_arr (Set_.union sa sb) = model_union a b)

(* The executor pins one buffer per trie position and re-feeds it: a stale
   length or capacity carried over from the previous fill must never leak
   into the next result. *)
let qcheck_buffer_reuse =
  Helpers.qtest "inter_into reuse: second fill forgets the first" ~count:300
    QCheck2.Gen.(pair pair_gen pair_gen)
    (fun (((a, sa), (b, sb)), ((c, sc), (d, sd))) ->
      ignore a;
      ignore b;
      let buf = Vec.create ~capacity:2 () in
      Intersect.inter_into buf sa sb;
      Intersect.inter_into buf sc sd;
      Vec.to_array buf = model_inter c d)

(* ---- n-ary ---- *)

let sets_gen = QCheck2.Gen.(list_size (int_range 1 5) set_gen)

let qcheck_inter_many =
  Helpers.qtest "inter_many = model fold" sets_gen (fun pairs ->
      let arrs = List.map fst pairs and sets = List.map snd pairs in
      to_arr (Intersect.inter_many sets) = model_inter_many arrs)

let qcheck_inter_many_into =
  Helpers.qtest "inter_many_into lands the model in dst" sets_gen (fun pairs ->
      let arrs = List.map fst pairs and sets = List.map snd pairs in
      let dst = Vec.create ~capacity:2 () and tmp = Vec.create ~capacity:2 () in
      (* pre-poison both buffers: anything surviving a clear is a bug *)
      Vec.push dst 999999;
      Vec.push tmp 999998;
      Intersect.inter_many_into dst tmp sets;
      Vec.to_array dst = model_inter_many arrs)

(* ---- rank / nth / filter_range ---- *)

let qcheck_rank_nth =
  Helpers.qtest "rank and nth invert each other" set_gen (fun (arr, s) ->
      Array.for_all (fun v -> Set_.nth s (Set_.rank s v) = v) arr
      && Array.length arr = Set_.cardinality s
      && Array.for_all
           (fun i -> Set_.rank s (Set_.nth s i) = i)
           (Array.init (Array.length arr) Fun.id))

let qcheck_filter_range =
  Helpers.qtest "filter_range = model filter"
    QCheck2.Gen.(pair set_gen (pair (int_range 0 700) (int_range 0 700)))
    (fun ((arr, s), (x, y)) ->
      let lo = min x y and hi = max x y in
      to_arr (Set_.filter_range ~lo ~hi s)
      = Array.of_list (List.filter (fun v -> v >= lo && v <= hi) (Array.to_list arr)))

(* ---- operand-order regression ---- *)

(* sort_for_inter's contract: bitsets first, ascending cardinality within a
   layout, ties keeping caller order. The old polymorphic-compare sort
   ordered ties by structural content — e.g. it flipped two equal-size uint
   sets depending on their first differing element, and its result could
   change when a bitset's lazy rank cache was populated. Physical identity
   pins stability exactly. *)
let test_sort_for_inter_stable () =
  let u1 = Set_.of_sorted_array ~layout:Set_.Sparse [| 9; 20; 31 |] in
  let u2 = Set_.of_sorted_array ~layout:Set_.Sparse [| 1; 2; 3 |] in
  let b1 = Set_.of_sorted_array ~layout:Set_.Dense (Array.init 20 (fun i -> 2 * i)) in
  let b2 = Set_.of_sorted_array ~layout:Set_.Dense (Array.init 20 (fun i -> (2 * i) + 1)) in
  let sorted = Intersect.sort_for_inter [ u1; b1; u2; b2 ] in
  let expect = [ b1; b2; u1; u2 ] in
  Alcotest.(check int) "length" 4 (List.length sorted);
  List.iteri
    (fun i (got, want) ->
      Alcotest.(check bool) (Printf.sprintf "slot %d is the expected operand" i) true (got == want))
    (List.combine sorted expect);
  (* populating a lazy rank cache must not change the order *)
  ignore (Set_.rank b2 1);
  let sorted' = Intersect.sort_for_inter [ u1; b1; u2; b2 ] in
  List.iteri
    (fun i (got, want) ->
      Alcotest.(check bool) (Printf.sprintf "slot %d stable after rank" i) true (got == want))
    (List.combine sorted' expect)

let test_inter_many_permutations () =
  let a = Set_.of_sorted_array ~layout:Set_.Dense (Array.init 31 (fun i -> 3 * i)) in
  let b = Set_.of_sorted_array ~layout:Set_.Sparse [| 0; 6; 12; 18; 24; 30; 60; 90 |] in
  let c = Set_.of_sorted_array ~layout:Set_.Sparse [| 6; 12; 30; 90; 900 |] in
  let expect = to_arr (Intersect.inter_many [ a; b; c ]) in
  Alcotest.(check (array int)) "triple" [| 6; 12; 30; 90 |] expect;
  List.iter
    (fun perm ->
      Alcotest.(check (array int)) "permutation invariant" expect
        (to_arr (Intersect.inter_many perm));
      let dst = Vec.create () and tmp = Vec.create () in
      Intersect.inter_many_into dst tmp perm;
      Alcotest.(check (array int)) "buffered permutation invariant" expect (Vec.to_array dst))
    [ [ a; c; b ]; [ b; a; c ]; [ b; c; a ]; [ c; a; b ]; [ c; b; a ] ]

(* Adjacent-but-disjoint word ranges: the bs∩bs kernel must cope with
   non-overlapping offsets without touching either bitset's words. *)
let test_disjoint_word_ranges () =
  let lo = Set_.of_sorted_array ~layout:Set_.Dense (Array.init 20 (fun i -> i)) in
  let hi = Set_.of_sorted_array ~layout:Set_.Dense (Array.init 20 (fun i -> 1000 + i)) in
  Alcotest.(check int) "count" 0 (Intersect.count lo hi);
  Alcotest.(check (array int)) "inter" [||] (to_arr (Intersect.inter lo hi));
  let buf = Vec.create () in
  Intersect.inter_into buf lo hi;
  Alcotest.(check int) "inter_into" 0 (Vec.length buf);
  Intersect.foreach_inter_ranked
    (fun _ _ _ -> Alcotest.fail "streamed a value from a disjoint pair")
    lo hi

let () =
  Alcotest.run "set_props"
    [
      ( "model",
        [
          qcheck_of_array;
          qcheck_inter;
          qcheck_count;
          qcheck_foreach_ranked;
          qcheck_foreach_ranked_gallop;
          qcheck_inter_into;
          qcheck_union;
          qcheck_buffer_reuse;
          qcheck_inter_many;
          qcheck_inter_many_into;
          qcheck_rank_nth;
          qcheck_filter_range;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "sort_for_inter stability" `Quick test_sort_for_inter_stable;
          Alcotest.test_case "inter_many permutations" `Quick test_inter_many_permutations;
          Alcotest.test_case "disjoint word ranges" `Quick test_disjoint_word_ranges;
        ] );
    ]
