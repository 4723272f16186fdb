module Set_ = Lh_set.Set
module Bitset = Lh_set.Bitset
module Intersect = Lh_set.Intersect

let sorted_gen =
  QCheck2.Gen.(
    let* l = list_size (int_range 0 60) (int_range 0 300) in
    return (Array.of_list (List.sort_uniq compare l)))

let model_inter a b = Array.of_list (List.filter (fun x -> Array.mem x b) (Array.to_list a))

let model_union a b =
  Array.of_list (List.sort_uniq compare (Array.to_list a @ Array.to_list b))

(* ---- bitset ---- *)

let test_bitset_add_mem () =
  let b = Bitset.create ~offset:100 ~nbits:200 in
  Bitset.add b 100;
  Bitset.add b 150;
  Bitset.add b 299;
  Bitset.add b 150;
  Alcotest.(check int) "card" 3 (Bitset.cardinality b);
  Alcotest.(check bool) "mem 150" true (Bitset.mem b 150);
  Alcotest.(check bool) "not mem 151" false (Bitset.mem b 151);
  Alcotest.(check bool) "out of range" false (Bitset.mem b 99)

let test_bitset_iter_sorted () =
  let vals = [| 3; 17; 64; 65; 126; 200 |] in
  let b = Bitset.of_sorted_array vals in
  Alcotest.(check (array int)) "roundtrip" vals (Bitset.to_sorted_array b)

let test_bitset_min_max () =
  let b = Bitset.of_sorted_array [| 77; 100; 3001 |] in
  Alcotest.(check int) "min" 77 (Bitset.min_elt b);
  Alcotest.(check int) "max" 3001 (Bitset.max_elt b)

let test_bitset_rank () =
  let vals = [| 5; 9; 63; 64; 127; 128; 1000 |] in
  let b = Bitset.of_sorted_array vals in
  Array.iteri (fun i v -> Alcotest.(check int) (Printf.sprintf "rank %d" v) i (Bitset.rank b v)) vals;
  Alcotest.check_raises "absent" Not_found (fun () -> ignore (Bitset.rank b 6))

let test_bitset_popcount () =
  Alcotest.(check int) "zero" 0 (Bitset.popcount 0);
  Alcotest.(check int) "255" 8 (Bitset.popcount 255);
  Alcotest.(check int) "max_int" 62 (Bitset.popcount max_int);
  (* bit 62 is the int's sign bit: min_int is that bit alone *)
  Alcotest.(check int) "min_int" 1 (Bitset.popcount min_int);
  Alcotest.(check int) "-1" 63 (Bitset.popcount (-1));
  Alcotest.(check int) "min_int lor 1" 2 (Bitset.popcount (min_int lor 1))

(* One loop step per set bit; terminates on negative words too, since
   [x land (x - 1)] clears bit 62 like any other. *)
let kernighan x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let qcheck_popcount_kernighan =
  Helpers.qtest "SWAR popcount = Kernighan reference" ~count:1000
    QCheck2.Gen.(
      oneof
        [
          int;
          map (fun x -> x lor min_int) int;
          map (fun x -> x land max_int) int;
          map (fun b -> 1 lsl b) (int_range 0 62);
        ])
    (fun x -> Bitset.popcount x = kernighan x)

(* Value [offset + 62] — the top bit (bit 62, the sign bit) of a word — is
   a member in several words; every word walk must return it. *)
let test_bitset_top_bit () =
  let wb = Bitset.word_bits in
  let b = Bitset.create ~offset:(2 * wb) ~nbits:(5 * wb) in
  let vals =
    List.concat_map
      (fun w ->
        let base = (2 + w) * wb in
        if w = 2 then [ base + 62 ] else [ base; base + 61; base + 62 ])
      [ 0; 1; 2; 3; 4 ]
  in
  List.iter (Bitset.add b) vals;
  let vals = Array.of_list vals in
  let collect walk =
    let acc = ref [] in
    walk (fun v -> acc := v :: !acc);
    Array.of_list (List.rev !acc)
  in
  Alcotest.(check (array int)) "iter" vals (collect (fun f -> Bitset.iter f b));
  Alcotest.(check (array int)) "iter_inter" vals (collect (fun f -> Bitset.iter_inter f b b));
  Alcotest.(check (array int)) "Set.iteri values" vals
    (collect (fun f -> Set_.iteri (fun _ v -> f v) (Set_.of_bitset b)));
  Set_.iteri (fun i v -> Alcotest.(check int) (Printf.sprintf "iteri rank of %d" v) i (Bitset.rank b v))
    (Set_.of_bitset b);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "select %d" i) v (Bitset.select b i))
    vals;
  Bitset.iter_inter_ranked
    (fun v ra rb ->
      Alcotest.(check int) (Printf.sprintf "ranked rank_a of %d" v) (Bitset.rank b v) ra;
      Alcotest.(check int) (Printf.sprintf "ranked rank_b of %d" v) (Bitset.rank b v) rb)
    b b;
  Alcotest.(check int) "cardinality of AND" (Array.length vals) (Bitset.inter_count b b)

let qcheck_bitset_inter =
  Helpers.qtest "bitset inter = model"
    QCheck2.Gen.(pair sorted_gen sorted_gen)
    (fun (a, b) ->
      QCheck2.assume (Array.length a > 0 && Array.length b > 0);
      let ba = Bitset.of_sorted_array a and bb = Bitset.of_sorted_array b in
      Bitset.to_sorted_array (Bitset.inter ba bb) = model_inter a b)

let qcheck_bitset_union =
  Helpers.qtest "bitset union = model"
    QCheck2.Gen.(pair sorted_gen sorted_gen)
    (fun (a, b) ->
      QCheck2.assume (Array.length a > 0 && Array.length b > 0);
      let ba = Bitset.of_sorted_array a and bb = Bitset.of_sorted_array b in
      Bitset.to_sorted_array (Bitset.union ba bb) = model_union a b)

let qcheck_bitset_rank_all =
  Helpers.qtest "bitset rank = position" sorted_gen (fun a ->
      QCheck2.assume (Array.length a > 0);
      let b = Bitset.of_sorted_array a in
      Array.to_list a |> List.mapi (fun i v -> Bitset.rank b v = i) |> List.for_all Fun.id)

let test_bitset_select () =
  let vals = [| 5; 9; 63; 64; 127; 128; 1000 |] in
  let b = Bitset.of_sorted_array vals in
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "select %d" i) v (Bitset.select b i))
    vals;
  Alcotest.check_raises "select -1" (Invalid_argument "Bitset.select: out of bounds")
    (fun () -> ignore (Bitset.select b (-1)));
  Alcotest.check_raises "select card" (Invalid_argument "Bitset.select: out of bounds")
    (fun () -> ignore (Bitset.select b (Array.length vals)))

let qcheck_bitset_select_inverse =
  Helpers.qtest "bitset select inverts rank" sorted_gen (fun a ->
      QCheck2.assume (Array.length a > 0);
      let b = Bitset.of_sorted_array a in
      Array.to_list a |> List.mapi (fun i v -> Bitset.select b i = v) |> List.for_all Fun.id)

(* ---- set layouts ---- *)

let test_layout_choice () =
  let dense = Set_.of_sorted_array (Array.init 100 Fun.id) in
  Alcotest.(check bool) "dense -> bs" true (Set_.layout dense = Set_.Dense);
  let sparse = Set_.of_sorted_array (Array.init 100 (fun i -> i * 1000)) in
  Alcotest.(check bool) "sparse -> uint" true (Set_.layout sparse = Set_.Sparse);
  let tiny = Set_.of_sorted_array [| 1; 2; 3 |] in
  Alcotest.(check bool) "tiny -> uint" true (Set_.layout tiny = Set_.Sparse)

let test_layout_forced () =
  let s = Set_.of_sorted_array ~layout:Set_.Dense (Array.init 4 (fun i -> i * 7)) in
  Alcotest.(check bool) "forced dense" true (Set_.layout s = Set_.Dense);
  Alcotest.(check int) "card" 4 (Set_.cardinality s)

let test_of_array_dedups () =
  let s = Set_.of_array [| 5; 1; 5; 3; 1 |] in
  Alcotest.(check (array int)) "sorted unique" [| 1; 3; 5 |] (Set_.to_array s)

let test_set_rank_nth () =
  List.iter
    (fun layout ->
      let vals = Array.init 50 (fun i -> i * 2) in
      let s = Set_.of_sorted_array ~layout vals in
      Alcotest.(check int) "rank 40" 20 (Set_.rank s 40);
      Alcotest.(check int) "nth 20" 40 (Set_.nth s 20);
      Alcotest.check_raises "rank absent" Not_found (fun () -> ignore (Set_.rank s 41)))
    [ Set_.Sparse; Set_.Dense ]

let test_set_iteri_ranks () =
  List.iter
    (fun layout ->
      let vals = [| 2; 5; 9; 100 |] in
      let s = Set_.of_sorted_array ~layout vals in
      let got = ref [] in
      Set_.iteri (fun r v -> got := (r, v) :: !got) s;
      Alcotest.(check (list (pair int int)))
        "ranked iteration"
        [ (0, 2); (1, 5); (2, 9); (3, 100) ]
        (List.rev !got))
    [ Set_.Sparse; Set_.Dense ]

let test_filter_range () =
  let s = Set_.of_sorted_array (Array.init 20 (fun i -> i * 5)) in
  Alcotest.(check (array int)) "range" [| 25; 30; 35 |]
    (Set_.to_array (Set_.filter_range ~lo:23 ~hi:36 s))

let test_empty_set () =
  Alcotest.(check bool) "empty" true (Set_.is_empty Set_.empty);
  Alcotest.(check int) "card" 0 (Set_.cardinality Set_.empty);
  Alcotest.check_raises "min of empty" Not_found (fun () -> ignore (Set_.min_elt Set_.empty))

(* ---- intersections ---- *)

let test_uint_uint_merge () =
  Alcotest.(check (array int)) "merge" [| 2; 4 |]
    (Intersect.uint_uint [| 1; 2; 3; 4 |] [| 2; 4; 6 |])

let test_uint_uint_gallop () =
  let big = Array.init 10_000 (fun i -> i * 2) in
  let small = [| 4; 5; 1997; 19_998 |] in
  Alcotest.(check (array int)) "gallop" [| 4; 19998 |] (Intersect.uint_uint small big);
  Alcotest.(check (array int)) "gallop sym" [| 4; 19998 |] (Intersect.uint_uint big small)

let test_inter_mixed_layouts () =
  let a = Set_.of_sorted_array ~layout:Set_.Dense (Array.init 64 Fun.id) in
  let b = Set_.of_sorted_array ~layout:Set_.Sparse [| 10; 63; 64; 100 |] in
  Alcotest.(check (array int)) "bs ∩ uint" [| 10; 63 |] (Set_.to_array (Intersect.inter a b))

let test_inter_many_order () =
  let a = Set_.of_sorted_array ~layout:Set_.Dense (Array.init 100 Fun.id) in
  let b = Set_.of_sorted_array ~layout:Set_.Sparse [| 5; 50; 150 |] in
  let c = Set_.of_sorted_array ~layout:Set_.Sparse [| 50; 150 |] in
  Alcotest.(check (array int)) "three way" [| 50 |]
    (Set_.to_array (Intersect.inter_many [ b; a; c ]))

let test_inter_many_single () =
  let a = Set_.of_sorted_array [| 1; 2 |] in
  Alcotest.(check bool) "identity" true (Set_.equal a (Intersect.inter_many [ a ]))

let gen_set =
  QCheck2.Gen.(
    let* arr = sorted_gen in
    let* forced = opt (oneofl [ Set_.Sparse; Set_.Dense ]) in
    match forced with
    | Some l when Array.length arr > 0 -> return (Set_.of_sorted_array ~layout:l arr)
    | _ -> return (Set_.of_sorted_array arr))

let qcheck_inter_model =
  Helpers.qtest ~count:400 "inter = model across layouts"
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Set_.to_array (Intersect.inter a b) = model_inter (Set_.to_array a) (Set_.to_array b))

let qcheck_union_model =
  Helpers.qtest ~count:400 "union = model across layouts"
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Set_.to_array (Set_.union a b) = model_union (Set_.to_array a) (Set_.to_array b))

let qcheck_inter_comm =
  Helpers.qtest "intersection commutes"
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) -> Set_.to_array (Intersect.inter a b) = Set_.to_array (Intersect.inter b a))

let qcheck_inter_many_fold =
  Helpers.qtest "inter_many = pairwise fold"
    QCheck2.Gen.(list_size (int_range 1 5) gen_set)
    (fun sets ->
      let many = Intersect.inter_many sets in
      let fold =
        List.fold_left (fun acc s -> Intersect.inter acc s) (List.hd sets) (List.tl sets)
      in
      Set_.to_array many = Set_.to_array fold)

let qcheck_count =
  Helpers.qtest "count = |inter|"
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) -> Intersect.count a b = Set_.cardinality (Intersect.inter a b))

(* Regression for Set.nth on the dense layout: it used to iterate the whole
   bitset per call; now it must agree with the sparse layout (array index)
   everywhere, including the out-of-bounds contract. *)
let qcheck_nth_layouts_agree =
  Helpers.qtest ~count:400 "nth agrees across layouts" sorted_gen (fun a ->
      QCheck2.assume (Array.length a > 0);
      let sp = Set_.of_sorted_array ~layout:Set_.Sparse a in
      let ds = Set_.of_sorted_array ~layout:Set_.Dense a in
      let n = Array.length a in
      let agree = List.init n (fun i -> Set_.nth ds i = Set_.nth sp i && Set_.nth ds i = a.(i)) in
      let oob =
        match Set_.nth ds n with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      List.for_all Fun.id agree && oob)

let qcheck_mem_consistent =
  Helpers.qtest "mem agrees with to_array" gen_set (fun s ->
      let arr = Set_.to_array s in
      List.for_all (fun v -> Set_.mem s v = Array.mem v arr) (List.init 301 Fun.id))

let () =
  Alcotest.run "lh_set"
    [
      ( "bitset",
        [
          Alcotest.test_case "add/mem" `Quick test_bitset_add_mem;
          Alcotest.test_case "iter sorted" `Quick test_bitset_iter_sorted;
          Alcotest.test_case "min/max" `Quick test_bitset_min_max;
          Alcotest.test_case "rank" `Quick test_bitset_rank;
          Alcotest.test_case "select" `Quick test_bitset_select;
          Alcotest.test_case "popcount" `Quick test_bitset_popcount;
          qcheck_popcount_kernighan;
          Alcotest.test_case "bit 62 in every word walk" `Quick test_bitset_top_bit;
          qcheck_bitset_inter;
          qcheck_bitset_union;
          qcheck_bitset_rank_all;
          qcheck_bitset_select_inverse;
        ] );
      ( "layout",
        [
          Alcotest.test_case "density rule" `Quick test_layout_choice;
          Alcotest.test_case "forced layout" `Quick test_layout_forced;
          Alcotest.test_case "of_array dedups" `Quick test_of_array_dedups;
          Alcotest.test_case "rank/nth" `Quick test_set_rank_nth;
          Alcotest.test_case "iteri ranks" `Quick test_set_iteri_ranks;
          Alcotest.test_case "filter_range" `Quick test_filter_range;
          Alcotest.test_case "empty" `Quick test_empty_set;
        ] );
      ( "intersect",
        [
          Alcotest.test_case "uint merge" `Quick test_uint_uint_merge;
          Alcotest.test_case "uint gallop" `Quick test_uint_uint_gallop;
          Alcotest.test_case "mixed layouts" `Quick test_inter_mixed_layouts;
          Alcotest.test_case "inter_many ordering" `Quick test_inter_many_order;
          Alcotest.test_case "inter_many single" `Quick test_inter_many_single;
          qcheck_inter_model;
          qcheck_union_model;
          qcheck_inter_comm;
          qcheck_inter_many_fold;
          qcheck_count;
          qcheck_nth_layouts_agree;
          qcheck_mem_consistent;
        ] );
    ]
