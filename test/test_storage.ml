module Dict = Lh_storage.Dict
module Date = Lh_storage.Date
module Dtype = Lh_storage.Dtype
module Schema = Lh_storage.Schema
module Table = Lh_storage.Table
module Trie = Lh_storage.Trie

(* ---- dates ---- *)

let test_date_known () =
  Alcotest.(check int) "epoch" 0 (Date.of_ymd 1970 1 1);
  Alcotest.(check int) "next day" 1 (Date.of_ymd 1970 1 2);
  Alcotest.(check string) "roundtrip string" "1994-01-01" (Date.to_string (Date.of_string "1994-01-01"));
  Alcotest.(check int) "year" 1998 (Date.year (Date.of_string "1998-12-01"));
  Alcotest.(check int) "leap day" (Date.of_ymd 2000 3 1 - 1) (Date.of_ymd 2000 2 29)

let test_date_interval_arith () =
  let d = Date.of_string "1998-12-01" in
  Alcotest.(check string) "minus 90" "1998-09-02" (Date.to_string (Date.add_days d (-90)))

let test_date_malformed () =
  List.iter
    (fun s ->
      match Date.of_string s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ "nope"; "1994-13-01"; "1994-00-10"; "1994/01/01"; "" ]

let qcheck_date_roundtrip =
  Helpers.qtest ~count:500 "ymd roundtrip"
    QCheck2.Gen.(triple (int_range 1900 2100) (int_range 1 12) (int_range 1 28))
    (fun (y, m, d) -> Date.to_ymd (Date.of_ymd y m d) = (y, m, d))

let qcheck_date_monotone =
  Helpers.qtest "codes are order-preserving"
    QCheck2.Gen.(
      pair
        (triple (int_range 1900 2100) (int_range 1 12) (int_range 1 28))
        (triple (int_range 1900 2100) (int_range 1 12) (int_range 1 28)))
    (fun ((y1, m1, d1), (y2, m2, d2)) ->
      compare (y1, m1, d1) (y2, m2, d2) = compare (Date.of_ymd y1 m1 d1) (Date.of_ymd y2 m2 d2))

(* ---- dict ---- *)

let test_dict_encode_decode () =
  let d = Dict.create () in
  let a = Dict.encode d "alpha" in
  let b = Dict.encode d "beta" in
  Alcotest.(check int) "stable" a (Dict.encode d "alpha");
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check string) "decode" "beta" (Dict.decode d b);
  Alcotest.(check int) "size" 2 (Dict.size d);
  Alcotest.(check (option int)) "find known" (Some a) (Dict.find d "alpha");
  Alcotest.(check (option int)) "find unknown" None (Dict.find d "gamma")

(* One writer domain interns 200k fresh strings while two reader domains
   decode every code below a size they read earlier and look up strings
   known to be present: every answer is exact and nothing raises. *)
let test_dict_concurrent_readers () =
  let d = Dict.create () in
  let base = 1000 and fresh = 200_000 in
  let string_of c = if c < base then Printf.sprintf "p%d" c else Printf.sprintf "w%d" (c - base) in
  for c = 0 to base - 1 do
    ignore (Dict.encode d (string_of c))
  done;
  let done_ = Atomic.make false in
  let writer () =
    let bad = ref 0 in
    for i = 0 to fresh - 1 do
      if Dict.encode d (string_of (base + i)) <> base + i then incr bad
    done;
    Atomic.set done_ true;
    !bad
  in
  let reader seed () =
    let bad = ref 0 and rounds = ref 0 in
    let rng = Random.State.make [| seed |] in
    let round () =
      let n = Dict.size d in
      for c = 0 to n - 1 do
        if not (String.equal (Dict.decode d c) (string_of c)) then incr bad
      done;
      for _ = 1 to 2000 do
        let c = Random.State.int rng n in
        if Dict.find d (string_of c) <> Some c then incr bad
      done;
      incr rounds
    in
    while not (Atomic.get done_) do
      round ()
    done;
    round ();
    (!bad, !rounds)
  in
  let readers = List.map (fun seed -> Domain.spawn (reader seed)) [ 1; 2 ] in
  let bad_writes = Domain.join (Domain.spawn writer) in
  Alcotest.(check int) "writer codes" 0 bad_writes;
  List.iter
    (fun dom ->
      let bad, rounds = Domain.join dom in
      Alcotest.(check int) "reader mismatches" 0 bad;
      Alcotest.(check bool) "reader ran" true (rounds >= 1))
    readers;
  Alcotest.(check int) "size" (base + fresh) (Dict.size d)

let qcheck_dict_roundtrip =
  Helpers.qtest "encode/decode roundtrip"
    QCheck2.Gen.(list_size (int_range 0 50) (string_size (int_range 0 10)))
    (fun strings ->
      let d = Dict.create () in
      let codes = List.map (Dict.encode d) strings in
      List.for_all2 (fun s c -> String.equal (Dict.decode d c) s) strings codes)

(* ---- schema ---- *)

let test_schema_basics () =
  let s =
    Schema.create
      [ ("id", Dtype.Int, Schema.Key); ("name", Dtype.String, Schema.Annotation);
        ("v", Dtype.Float, Schema.Annotation) ]
  in
  Alcotest.(check int) "ncols" 3 (Schema.ncols s);
  Alcotest.(check (option int)) "find" (Some 1) (Schema.find s "name");
  Alcotest.(check (list int)) "keys" [ 0 ] (Schema.key_indices s);
  Alcotest.(check (list int)) "annotations" [ 1; 2 ] (Schema.annotation_indices s);
  Alcotest.(check bool) "is_key" true (Schema.is_key s 0)

let test_schema_rejects () =
  (match Schema.create [ ("a", Dtype.Int, Schema.Key); ("a", Dtype.Float, Schema.Annotation) ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "duplicate accepted");
  match Schema.create [ ("f", Dtype.Float, Schema.Key) ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "float key accepted"

(* ---- table ---- *)

let mini_schema =
  Schema.create
    [ ("k", Dtype.Int, Schema.Key); ("s", Dtype.String, Schema.Annotation);
      ("d", Dtype.Date, Schema.Annotation); ("x", Dtype.Float, Schema.Annotation) ]

let mini_rows =
  [
    [ Dtype.VInt 1; Dtype.VString "a"; Dtype.VDate (Date.of_string "2001-05-05"); Dtype.VFloat 1.5 ];
    [ Dtype.VInt 2; Dtype.VString "b"; Dtype.VDate (Date.of_string "1999-01-31"); Dtype.VFloat (-2.0) ];
  ]

let test_table_of_rows () =
  let dict = Dict.create () in
  let t = Table.of_rows ~name:"mini" ~schema:mini_schema ~dict mini_rows in
  Alcotest.(check int) "nrows" 2 t.Table.nrows;
  Alcotest.(check bool) "roundtrip" true (Table.to_rows t = mini_rows);
  Alcotest.(check (float 0.0)) "number" (-2.0) (Table.number t 3 1);
  Alcotest.(check int) "code of string" (Dict.encode dict "a") (Table.code t 1 0)

let test_table_csv_roundtrip () =
  let dict = Dict.create () in
  let t = Table.of_rows ~name:"mini" ~schema:mini_schema ~dict mini_rows in
  let path = Filename.temp_file "lh_table" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lh_util.Csv.write_file path
        (List.map (List.map Dtype.value_to_string) (Table.to_rows t));
      let t2 = Table.load_csv ~name:"mini2" ~schema:mini_schema ~dict path in
      Alcotest.(check bool) "same rows" true (Table.to_rows t2 = mini_rows))

(* The row encoder against the row format it replaced: cells joined by
   '|', ints in decimal, floats through Printf's %.6g, strings verbatim,
   dates as YYYY-MM-DD. *)
let reference_row t r =
  String.concat "|"
    (List.init (Schema.ncols t.Table.schema) (fun col ->
         match Table.value t ~row:r ~col with
         | Dtype.VInt i -> string_of_int i
         | Dtype.VFloat f -> Printf.sprintf "%.6g" f
         | Dtype.VString s -> s
         | Dtype.VDate d -> Date.to_string d))

let test_row_encoder () =
  let schema =
    Schema.create
      [
        ("i", Dtype.Int, Schema.Annotation);
        ("f", Dtype.Float, Schema.Annotation);
        ("s", Dtype.String, Schema.Annotation);
        ("d", Dtype.Date, Schema.Annotation);
      ]
  in
  let floats =
    [ 0.; -0.; nan; Float.neg nan; infinity; neg_infinity; 5e-324; 1e300; 1e-7; 1.5; -2.25;
      123456.7; 1234567.; 0.1 +. 0.2; Float.pi; -1e-300; max_float; min_float ]
  in
  let ints = [ 0; -1; 42; max_int; min_int; -7 ] in
  let rows =
    List.mapi
      (fun i f ->
        [
          Dtype.VInt (List.nth ints (i mod List.length ints));
          Dtype.VFloat f;
          Dtype.VString (if i mod 3 = 0 then "" else Printf.sprintf "s|%d" i);
          Dtype.VDate (Date.of_ymd (1990 + i) (1 + (i mod 12)) (1 + i));
        ])
      floats
  in
  let t = Table.of_rows ~name:"enc" ~schema ~dict:(Dict.create ()) rows in
  let encode = Table.row_encoder t in
  let buf = Buffer.create 64 in
  for r = 0 to t.Table.nrows - 1 do
    Buffer.clear buf;
    encode buf r;
    let want = reference_row t r in
    Alcotest.(check string) (Printf.sprintf "row %d" r) want (Buffer.contents buf);
    Alcotest.(check string) (Printf.sprintf "pp_row %d" r) want
      (Format.asprintf "%a" (fun fmt () -> Table.pp_row fmt t r) ())
  done;
  (* the encoder appends, so rows written back to back concatenate *)
  Buffer.clear buf;
  encode buf 0;
  encode buf 1;
  Alcotest.(check string) "appends" (reference_row t 0 ^ reference_row t 1) (Buffer.contents buf)

let test_table_encode_const () =
  let dict = Dict.create () in
  let t = Table.of_rows ~name:"mini" ~schema:mini_schema ~dict mini_rows in
  Alcotest.(check (option int)) "known string" (Some (Dict.encode dict "a"))
    (Table.encode_const t 1 (Dtype.VString "a"));
  Alcotest.(check (option int)) "unknown string" None (Table.encode_const t 1 (Dtype.VString "zz"));
  Alcotest.(check (option int)) "date" (Some (Date.of_string "1999-01-31"))
    (Table.encode_const t 2 (Dtype.VString "1999-01-31"))

let test_table_validation () =
  let dict = Dict.create () in
  (match
     Table.create ~name:"bad" ~schema:mini_schema ~dict
       [| Table.Icol [| 1 |]; Table.Icol [| 0 |]; Table.Icol [| 0 |] |]
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "column count accepted");
  match
    Table.create ~name:"bad" ~schema:mini_schema ~dict
      [| Table.Icol [| -1 |]; Table.Icol [| 0 |]; Table.Icol [| 0 |]; Table.Fcol [| 0.0 |] |]
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "negative key accepted"

(* ---- trie ---- *)

(* Model: a trie built over (keys, rows) must enumerate exactly the sorted
   distinct key tuples, and each leaf must hold the groups a fold over the
   rows in input order produces: one group per distinct GROUP BY code,
   groups in first-occurrence order, [vec] and [mult] folded row by row.
   The folds are order-sensitive in floating point, so the comparison is
   exact and pins the stable fold order. Key regimes cover one and several
   11-bit radix passes per level (narrow and wide keys), a single repeated
   key, and rows that arrive already sorted or in reverse. *)
let qcheck_trie_vs_model =
  let gen =
    QCheck2.Gen.(
      let* nlevels = int_range 1 3 in
      let* nrows = frequency [ (4, int_range 0 60); (1, int_range 61 3000) ] in
      let* regime = oneofl [ `Narrow; `Wide; `Single; `Sorted; `Reverse ] in
      let* with_aggs = bool in
      let* ncodes = int_range 0 1 in
      let key = if regime = `Narrow then int_range 0 8 else int_range 0 (1 lsl 40) in
      let* tuples =
        match regime with
        | `Single ->
            let* t = list_repeat nlevels key in
            return (List.init nrows (fun _ -> t))
        | _ -> list_repeat nrows (list_repeat nlevels key)
      in
      let tuples =
        match regime with
        | `Sorted -> List.sort compare tuples
        | `Reverse -> List.rev (List.sort compare tuples)
        | `Narrow | `Wide | `Single -> tuples
      in
      let* codes = list_repeat nrows (int_range 0 2) in
      return (nlevels, nrows, Array.of_list tuples, Array.of_list codes, with_aggs, ncodes))
  in
  Helpers.qtest ~count:300 "trie enumerates sorted distinct tuples" gen
    (fun (nlevels, nrows, tuples, codes, with_aggs, ncodes) ->
      let keys = Array.init nlevels (fun l -> Array.map (fun t -> List.nth t l) tuples) in
      let rows = Array.init nrows Fun.id in
      let group_cols = Array.make ncodes codes in
      (* Order-sensitive combines: float sums of unequal magnitudes, and a
         non-associative decay. *)
      let combs = [| ( +. ); (fun a b -> (a *. 0.5) +. b) |] in
      let evals = [| (fun r -> 1.0 /. float_of_int (r + 3)); (fun r -> float_of_int (r mod 7)) |] in
      let mults r = 1.0 +. (1.0 /. float_of_int (r + 1)) in
      let trie =
        if with_aggs then
          Trie.build ~keys ~rows ~group_cols ~aggs:(Array.map2 (fun c e -> (c, e)) combs evals) ~mults ()
        else Trie.build ~keys ~rows ~group_cols ()
      in
      (* The model: fold every row, in input order, into its (tuple, codes)
         group. *)
      let model = Hashtbl.create 64 in
      let order = ref [] in
      Array.iteri
        (fun r t ->
          let gcodes = Array.map (fun col -> col.(r)) group_cols in
          let m = if with_aggs then mults r else 1.0 in
          match Hashtbl.find_opt model (t, gcodes) with
          | Some (vec, mult) ->
              if with_aggs then Array.iteri (fun j c -> vec.(j) <- c vec.(j) (evals.(j) r)) combs;
              mult := !mult +. m
          | None ->
              let vec = if with_aggs then Array.map (fun e -> e r) evals else [||] in
              Hashtbl.replace model (t, gcodes) (vec, ref m);
              order := (t, gcodes) :: !order)
        tuples;
      let firsts = List.rev !order in
      (* A stable sort by tuple keeps first-occurrence order within a tuple. *)
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) firsts
        |> List.map (fun (t, gcodes) ->
               let vec, mult = Hashtbl.find model (t, gcodes) in
               (t, gcodes, vec, !mult))
      in
      let got = ref [] in
      Trie.iter_tuples trie (fun tup g ->
          got := (Array.to_list tup, g.Trie.codes, g.Trie.vec, g.Trie.mult) :: !got);
      let got = List.rev !got in
      let ndistinct = List.length (List.sort_uniq compare (Array.to_list tuples)) in
      got = expected && Trie.cardinality trie = ndistinct)

let test_trie_aggregation () =
  (* keys: one level; rows share keys; Sum/Min/Max pre-aggregation *)
  let keys = [| [| 1; 2; 1; 2; 1 |] |] in
  let vals = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  let trie =
    Trie.build ~keys ~rows:[| 0; 1; 2; 3; 4 |]
      ~aggs:
        [|
          (( +. ), fun r -> vals.(r));
          (Float.min, fun r -> vals.(r));
          (Float.max, fun r -> vals.(r));
        |]
      ()
  in
  let got = ref [] in
  Trie.iter_tuples trie (fun tup g -> got := (tup.(0), g.Trie.vec, g.Trie.mult) :: !got);
  match List.rev !got with
  | [ (1, v1, m1); (2, v2, m2) ] ->
      Alcotest.(check (float 1e-9)) "sum k=1" 90.0 v1.(0);
      Alcotest.(check (float 1e-9)) "min k=1" 10.0 v1.(1);
      Alcotest.(check (float 1e-9)) "max k=1" 50.0 v1.(2);
      Alcotest.(check (float 1e-9)) "mult k=1" 3.0 m1;
      Alcotest.(check (float 1e-9)) "sum k=2" 60.0 v2.(0);
      Alcotest.(check (float 1e-9)) "mult k=2" 2.0 m2
  | other -> Alcotest.failf "unexpected leaves: %d" (List.length other)

let test_trie_group_codes () =
  (* duplicate keys with different group codes must stay separate *)
  let keys = [| [| 7; 7; 7 |] |] in
  let codes = [| [| 100; 200; 100 |] |] in
  let vals = [| 1.0; 2.0; 4.0 |] in
  let trie =
    Trie.build ~keys ~rows:[| 0; 1; 2 |] ~group_cols:codes
      ~aggs:[| (( +. ), fun r -> vals.(r)) |]
      ()
  in
  let got = ref [] in
  Trie.iter_tuples trie (fun _ g -> got := (g.Trie.codes.(0), g.Trie.vec.(0)) :: !got);
  Alcotest.(check (list (pair int (float 1e-9))))
    "two groups" [ (100, 5.0); (200, 2.0) ]
    (List.sort compare !got)

let test_trie_lookup () =
  let keys = [| [| 1; 1; 2 |]; [| 5; 6; 5 |] |] in
  let trie = Trie.build ~keys ~rows:[| 0; 1; 2 |] () in
  (match Trie.lookup trie [| 1 |] with
  | Some node -> Alcotest.(check (array int)) "children of 1" [| 5; 6 |] (Lh_set.Set.to_array node.Trie.set)
  | None -> Alcotest.fail "prefix 1 missing");
  Alcotest.(check bool) "missing prefix" true (Trie.lookup trie [| 9 |] = None);
  Alcotest.(check (array int)) "first level" [| 1; 2 |] (Lh_set.Set.to_array (Trie.first_level trie))

let test_trie_level_max () =
  let keys = [| [| 4; 9 |]; [| 100; 3 |] |] in
  let trie = Trie.build ~keys ~rows:[| 0; 1 |] () in
  Alcotest.(check (array int)) "level maxima" [| 9; 100 |] trie.Trie.level_max

let test_trie_empty () =
  let trie = Trie.build ~keys:[| [||] |] ~rows:[||] () in
  Alcotest.(check int) "cardinality" 0 (Trie.cardinality trie);
  let visited = ref 0 in
  Trie.iter_tuples trie (fun _ _ -> incr visited);
  Alcotest.(check int) "no tuples" 0 !visited

let test_trie_mults_override () =
  let keys = [| [| 1; 1 |] |] in
  let trie = Trie.build ~keys ~rows:[| 0; 1 |] ~mults:(fun r -> float_of_int (r + 1) *. 2.0) () in
  Trie.iter_tuples trie (fun _ g -> Alcotest.(check (float 1e-9)) "summed mults" 6.0 g.Trie.mult)

(* Regression: a malformed row aborts the load as a typed
   [Engine.Error Semantic] carrying the 1-based file line number (empty
   lines are skipped but still counted), the catalog is left without the
   table, and the sequential and parallel ingest paths agree. *)
let test_csv_malformed_line () =
  let module L = Levelheaded in
  let schema =
    Schema.create [ ("k", Dtype.Int, Schema.Key); ("v", Dtype.Float, Schema.Annotation) ]
  in
  let write lines =
    let path = Filename.temp_file "lh_badcsv" ".csv" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  let check name ~domains path expect =
    let eng = L.Engine.create ~config:{ L.Config.default with L.Config.domains } () in
    (match L.Engine.load_csv eng ~name:"bad" ~schema path with
    | _ -> Alcotest.failf "%s: malformed load succeeded" name
    | exception L.Engine.Error (L.Engine.Error.Semantic m) ->
        if not (Lh_util.Text.contains ~sub:expect m) then
          Alcotest.failf "%s: error %S does not name %S" name m expect
    | exception e -> Alcotest.failf "%s: untyped exception %s" name (Printexc.to_string e));
    Alcotest.(check bool)
      (name ^ ": table not registered")
      true
      (L.Catalog.find (L.Engine.catalog eng) "bad" = None)
  in
  let bad_cell = write [ "1,1.5"; "2,2.5"; "3,oops"; "4,4.5" ] in
  let short_row = write [ "1,1.5"; ""; "7"; "2,2.5" ] in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove bad_cell;
      Sys.remove short_row)
    (fun () ->
      check "sequential bad cell" ~domains:1 bad_cell "line 3";
      check "parallel bad cell" ~domains:4 bad_cell "line 3";
      check "sequential short row" ~domains:1 short_row "line 3";
      check "parallel short row" ~domains:4 short_row "line 3")

(* ---- the table's index memo ---- *)

let memo_table () =
  let dict = Dict.create () in
  let t =
    Table.of_rows ~name:"m" ~schema:mini_schema ~dict
      (List.init 4 (fun i ->
           [ Dtype.VInt i; Dtype.VString "s"; Dtype.VDate 0; Dtype.VFloat (float_of_int i) ]))
  in
  (t, dict)

let build_counted builds t () =
  incr builds;
  Trie.build ~keys:[| Table.icol t 0 |] ~rows:(Array.init t.Table.nrows Fun.id) ()

(* Every holder of a table value (each epoch and session holds the same
   one) sees one memo: the second lookup of a key finds the first one's
   trie, and the dense shape is computed once. *)
let test_memo_shared () =
  let t, _ = memo_table () in
  let builds = ref 0 in
  let ta = Table.trie t ~shape:"s" ~key:"k0" (build_counted builds t) in
  let tb = Table.trie t ~shape:"s" ~key:"k0" (build_counted builds t) in
  Alcotest.(check int) "one build" 1 !builds;
  Alcotest.(check bool) "one trie" true (ta == tb);
  ignore (Table.trie t ~shape:"s" ~key:"k1" (build_counted builds t));
  Alcotest.(check int) "another key builds" 2 !builds;
  (* one trie per shape: k1 replaced k0 *)
  ignore (Table.trie t ~shape:"s" ~key:"k0" (build_counted builds t));
  Alcotest.(check int) "a replaced key builds again" 3 !builds;
  Alcotest.(check bool) "dense shape memoized" true
    (Table.dense_rect t == Table.dense_rect t && Table.dense_rect t <> None);
  (* a new table value starts empty *)
  let t', _ = memo_table () in
  ignore (Table.trie t' ~shape:"s" ~key:"k0" (build_counted builds t'));
  Alcotest.(check int) "new table builds" 4 !builds

(* A build that raises installs nothing: the next lookup builds. *)
let test_memo_failed_build () =
  let t, _ = memo_table () in
  (match Table.trie t ~shape:"k" ~key:"k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "failed build returned a trie"
  | exception Failure _ -> ());
  let builds = ref 0 in
  ignore (Table.trie t ~shape:"k" ~key:"k" (build_counted builds t));
  Alcotest.(check int) "rebuilt after failure" 1 !builds

(* Racing misses on several domains: every caller gets the first
   installed trie. *)
let test_memo_race () =
  let t, _ = memo_table () in
  let builds = Atomic.make 0 in
  let get () =
    Table.trie t ~shape:"k" ~key:"k" (fun () ->
        Atomic.incr builds;
        Trie.build ~keys:[| Table.icol t 0 |] ~rows:(Array.init t.Table.nrows Fun.id) ())
  in
  let doms = List.init 3 (fun _ -> Domain.spawn get) in
  let mine = get () in
  let tries = mine :: List.map Domain.join doms in
  Alcotest.(check bool) "one winner" true (List.for_all (fun x -> x == get ()) tries);
  Alcotest.(check bool) "at least one build" true (Atomic.get builds >= 1)

let () =
  Alcotest.run "lh_storage"
    [
      ( "date",
        [
          Alcotest.test_case "known values" `Quick test_date_known;
          Alcotest.test_case "interval arithmetic" `Quick test_date_interval_arith;
          Alcotest.test_case "malformed" `Quick test_date_malformed;
          qcheck_date_roundtrip;
          qcheck_date_monotone;
        ] );
      ( "dict",
        [
          Alcotest.test_case "encode/decode" `Quick test_dict_encode_decode;
          qcheck_dict_roundtrip;
          Alcotest.test_case "one writer, two reader domains" `Quick test_dict_concurrent_readers;
        ]
      );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "rejects invalid" `Quick test_schema_rejects;
        ] );
      ( "table",
        [
          Alcotest.test_case "of_rows" `Quick test_table_of_rows;
          Alcotest.test_case "csv roundtrip" `Quick test_table_csv_roundtrip;
          Alcotest.test_case "csv malformed row line numbers" `Quick test_csv_malformed_line;
          Alcotest.test_case "encode_const" `Quick test_table_encode_const;
          Alcotest.test_case "row encoder = %.6g row format" `Quick test_row_encoder;
          Alcotest.test_case "validation" `Quick test_table_validation;
        ] );
      ( "trie",
        [
          qcheck_trie_vs_model;
          Alcotest.test_case "leaf aggregation" `Quick test_trie_aggregation;
          Alcotest.test_case "group codes split leaves" `Quick test_trie_group_codes;
          Alcotest.test_case "lookup" `Quick test_trie_lookup;
          Alcotest.test_case "level_max" `Quick test_trie_level_max;
          Alcotest.test_case "empty" `Quick test_trie_empty;
          Alcotest.test_case "mults override" `Quick test_trie_mults_override;
        ] );
      ( "memo",
        [
          Alcotest.test_case "lookups share one memo" `Quick test_memo_shared;
          Alcotest.test_case "a failed build installs nothing" `Quick test_memo_failed_build;
          Alcotest.test_case "racing builds: first install wins" `Quick test_memo_race;
        ] );
    ]
