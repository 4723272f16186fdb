type group = { codes : int array; vec : float array; mult : float }

type node = {
  set : Lh_set.Set.t;
  children : node array;
  groups : group array array;
}

type t = {
  nlevels : int;
  root : node;
  total_tuples : int;
  level_max : int array;
  leaf_unit : bool;
  level_dense : int array;
  level_nodes : int array;
}

(* ---- row ordering ---- *)

(* Key codes are dense non-negative integers, so rows are ordered by a
   stable LSD radix sort over 11-bit digits of [key - min], last level
   first. Scratch space is one n-slot array plus the bucket counts; it does
   not grow with the key range. *)
let digit_bits = 11
let nbuckets = 1 lsl digit_bits
let digit_mask = nbuckets - 1

(* Whether [rows] already ascend in key-tuple order (ties allowed). Most
   per-query builds take this branch: filtered base-table rows usually
   arrive in the order of their first key. The annotation keeps the
   comparisons on ints rather than polymorphic. *)
let presorted (keys : int array array) rows =
  let nlevels = Array.length keys in
  let rec le l r1 r2 =
    l >= nlevels
    ||
    let a = keys.(l).(r1) and b = keys.(l).(r2) in
    a < b || (a = b && le (l + 1) r1 r2)
  in
  let n = Array.length rows in
  let i = ref 1 in
  while !i < n && le 0 rows.(!i - 1) rows.(!i) do
    incr i
  done;
  !i >= n

(* [rows] ordered by key tuple, equal tuples in input order. Returns [rows]
   itself when it is already in order; never mutates it. *)
let sort_rows keys rows =
  if presorted keys rows then rows
  else begin
    let n = Array.length rows in
    let src = ref (Array.copy rows) and dst = ref (Array.make n 0) in
    let counts = Array.make (nbuckets + 1) 0 in
    for l = Array.length keys - 1 downto 0 do
      let col = keys.(l) in
      let s = !src in
      let lo = ref max_int and hi = ref min_int in
      for i = 0 to n - 1 do
        let v = col.(s.(i)) in
        if v < !lo then lo := v;
        if v > !hi then hi := v
      done;
      let lo = !lo and range = !hi - !lo in
      let shift = ref 0 in
      while !shift < Sys.int_size && range lsr !shift > 0 do
        let s = !src and d = !dst and sh = !shift in
        Array.fill counts 0 (nbuckets + 1) 0;
        for i = 0 to n - 1 do
          let b = ((col.(s.(i)) - lo) lsr sh) land digit_mask in
          counts.(b + 1) <- counts.(b + 1) + 1
        done;
        (* counts.(b) becomes the first output slot of bucket b. *)
        for b = 1 to nbuckets do
          counts.(b) <- counts.(b) + counts.(b - 1)
        done;
        for i = 0 to n - 1 do
          let r = s.(i) in
          let b = ((col.(r) - lo) lsr sh) land digit_mask in
          d.(counts.(b)) <- r;
          counts.(b) <- counts.(b) + 1
        done;
        src := d;
        dst := s;
        shift := sh + digit_bits
      done
    done;
    !src
  end

(* ---- leaf groups ---- *)

(* What a leaf segment's rows contribute; see [build]. *)
type leaf_spec = {
  group_cols : int array array;
  aggs : ((float -> float -> float) * float array) array;
  mults : float array option;
}

let mult_of spec r = match spec.mults with None -> 1.0 | Some m -> m.(r)

(* The groups array of every leaf with no aggregates, no GROUP BY codes and
   total multiplicity 1. Groups are immutable, so all such leaves share it,
   and [build] recognises unit leaves by physical equality. *)
let unit_leaf = [| { codes = [||]; vec = [||]; mult = 1.0 } |]

let eval_vec spec r =
  let n = Array.length spec.aggs in
  if n = 0 then [||]
  else begin
    let v = Array.make n 0.0 in
    for j = 0 to n - 1 do
      v.(j) <- (snd spec.aggs.(j)).(r)
    done;
    v
  end

let fold_into spec vec r =
  for j = 0 to Array.length spec.aggs - 1 do
    let comb, col = spec.aggs.(j) in
    vec.(j) <- comb vec.(j) col.(r)
  done

let codes_of spec r =
  let n = Array.length spec.group_cols in
  if n = 0 then [||]
  else begin
    let c = Array.make n 0 in
    for g = 0 to n - 1 do
      c.(g) <- spec.group_cols.(g).(r)
    done;
    c
  end

let same_codes spec r1 r2 =
  let cols = spec.group_cols in
  let rec go g = g >= Array.length cols || (cols.(g).(r1) = cols.(g).(r2) && go (g + 1)) in
  go 0

module Codes_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash = Hashtbl.hash
end)

type acc = { acodes : int array; avec : float array; mutable amult : float }

(* Aggregate the rows of one leaf segment into groups keyed by their GROUP
   BY annotation codes, folding rows in segment (= input) order. A segment
   whose rows share their codes (one row, or no annotation GROUP BY) is a
   single group; only mixed codes need the table. *)
let make_groups spec rows lo hi =
  let r0 = rows.(lo) in
  let i = ref (lo + 1) in
  while !i < hi && same_codes spec r0 rows.(!i) do
    incr i
  done;
  if !i >= hi then begin
    let vec = eval_vec spec r0 in
    let mult = ref (mult_of spec r0) in
    for i = lo + 1 to hi - 1 do
      let r = rows.(i) in
      fold_into spec vec r;
      mult := !mult +. mult_of spec r
    done;
    let codes = codes_of spec r0 in
    if Array.length codes = 0 && Array.length vec = 0 && !mult = 1.0 then unit_leaf
    else [| { codes; vec; mult = !mult } |]
  end
  else begin
    let table = Codes_tbl.create 8 in
    let order = ref [] in
    for i = lo to hi - 1 do
      let r = rows.(i) in
      let codes = codes_of spec r in
      match Codes_tbl.find_opt table codes with
      | Some a ->
          fold_into spec a.avec r;
          a.amult <- a.amult +. mult_of spec r
      | None ->
          let a = { acodes = codes; avec = eval_vec spec r; amult = mult_of spec r } in
          Codes_tbl.replace table codes a;
          order := a :: !order
    done;
    Array.of_list (List.rev_map (fun a -> { codes = a.acodes; vec = a.avec; mult = a.amult }) !order)
  end

let empty_node = { set = Lh_set.Set.empty; children = [||]; groups = [||] }

(* Fired on entry to every subtree build (and per segment on the parallel
   path), so an armed "trie.build.node" fault aborts a build mid-way. The
   trie value is only returned on success, so an aborted build can never
   leave a partial trie behind — callers that cache tries rely on this. *)
let fault_node = Lh_fault.Fault.site "trie.build.node"

(* Per-task build statistics: subtree builds run on worker domains with a
   private copy, merged in chunk order afterwards. *)
type bstats = {
  mutable tuples : int;
  maxes : int array;
  (* Layout-disposition statistics the executor's kernel specialization
     reads: per-level dense/total set tallies, and whether every leaf
     groups array is the single unit group {codes=[||]; vec=[||]; mult=1}
     — the precondition for count-only WCOJ leaves. *)
  mutable unit_leaves : bool;
  ndense : int array;
  nsets : int array;
}

let build ?(domains = 1) ~keys ~rows ?(group_cols = [||]) ?(aggs = [||]) ?mults () =
  let nlevels = Array.length keys in
  if nlevels = 0 then invalid_arg "Trie.build: at least one key level required";
  let rows = sort_rows keys rows in
  let spec = { group_cols; aggs; mults } in
  let nrows = Array.length rows in
  (* rows.(lo..hi) share the key prefix above [level]; produce the node for
     this subtree.  Segments of equal value at [level] become set entries. *)
  let tally_set stats level set =
    stats.nsets.(level) <- stats.nsets.(level) + 1;
    match Lh_set.Set.layout set with
    | Lh_set.Set.Dense -> stats.ndense.(level) <- stats.ndense.(level) + 1
    | Lh_set.Set.Sparse -> ()
  in
  let rec build_node stats level lo hi =
    Lh_fault.Fault.hit fault_node;
    let col = keys.(level) in
    (* Count distinct values first so the arrays are allocated exactly. *)
    let ndistinct = ref 0 in
    let i = ref lo in
    while !i < hi do
      let v = col.(rows.(!i)) in
      incr ndistinct;
      while !i < hi && col.(rows.(!i)) = v do
        incr i
      done
    done;
    let values = Array.make !ndistinct 0 in
    let last = level = nlevels - 1 in
    let children = if last then [||] else Array.make !ndistinct empty_node in
    let groups = if last then Array.make !ndistinct [||] else [||] in
    let k = ref 0 in
    let i = ref lo in
    while !i < hi do
      let v = col.(rows.(!i)) in
      let seg_lo = !i in
      while !i < hi && col.(rows.(!i)) = v do
        incr i
      done;
      values.(!k) <- v;
      if v > stats.maxes.(level) then stats.maxes.(level) <- v;
      if last then begin
        groups.(!k) <- make_groups spec rows seg_lo !i;
        if groups.(!k) != unit_leaf then stats.unit_leaves <- false;
        stats.tuples <- stats.tuples + 1
      end
      else children.(!k) <- build_node stats (level + 1) seg_lo !i;
      incr k
    done;
    let set = Lh_set.Set.of_sorted_array values in
    tally_set stats level set;
    { set; children; groups }
  in
  let fresh_stats () =
    {
      tuples = 0;
      maxes = Array.make nlevels (-1);
      unit_leaves = true;
      ndense = Array.make nlevels 0;
      nsets = Array.make nlevels 0;
    }
  in
  let finish stats root =
    {
      nlevels;
      root;
      total_tuples = stats.tuples;
      level_max = stats.maxes;
      leaf_unit = stats.unit_leaves;
      level_dense = stats.ndense;
      level_nodes = stats.nsets;
    }
  in
  if nrows = 0 then
    {
      nlevels;
      root = empty_node;
      total_tuples = 0;
      level_max = Array.make nlevels (-1);
      leaf_unit = true;
      level_dense = Array.make nlevels 0;
      level_nodes = Array.make nlevels 0;
    }
  else if domains <= 1 then begin
    let stats = fresh_stats () in
    let root = build_node stats 0 0 nrows in
    finish stats root
  end
  else begin
    (* Parallel build, partitioned by first-level key: the sorted rows are
       segmented on the level-0 value, and each segment's subtree is built
       independently — exactly the node the sequential recursion would
       produce, so the result is bit-identical for any [domains]. *)
    let col0 = keys.(0) in
    let bounds = Lh_util.Vec.Int.create () in
    let values = Lh_util.Vec.Int.create () in
    let i = ref 0 in
    while !i < nrows do
      let v = col0.(rows.(!i)) in
      Lh_util.Vec.Int.push bounds !i;
      Lh_util.Vec.Int.push values v;
      while !i < nrows && col0.(rows.(!i)) = v do
        incr i
      done
    done;
    Lh_util.Vec.Int.push bounds nrows;
    let values = Lh_util.Vec.Int.to_array values in
    let bounds = Lh_util.Vec.Int.to_array bounds in
    let nsegs = Array.length values in
    let last = nlevels = 1 in
    let children = if last then [||] else Array.make nsegs empty_node in
    let groups = if last then Array.make nsegs [||] else [||] in
    let stats =
      Lh_util.Parfor.map_reduce ~domains ~n:nsegs ~init:fresh_stats
        ~body:(fun stats k ->
          let seg_lo = bounds.(k) and seg_hi = bounds.(k + 1) in
          if last then begin
            Lh_fault.Fault.hit fault_node;
            groups.(k) <- make_groups spec rows seg_lo seg_hi;
            if groups.(k) != unit_leaf then stats.unit_leaves <- false;
            stats.tuples <- stats.tuples + 1
          end
          else children.(k) <- build_node stats 1 seg_lo seg_hi)
        ~merge:(fun a b ->
          a.tuples <- a.tuples + b.tuples;
          Array.iteri (fun l m -> if m > a.maxes.(l) then a.maxes.(l) <- m) b.maxes;
          a.unit_leaves <- a.unit_leaves && b.unit_leaves;
          Array.iteri (fun l n -> a.ndense.(l) <- a.ndense.(l) + n) b.ndense;
          Array.iteri (fun l n -> a.nsets.(l) <- a.nsets.(l) + n) b.nsets;
          a)
    in
    (* Level-0 values ascend with the sort, so the last segment holds the max. *)
    stats.maxes.(0) <- values.(nsegs - 1);
    let set = Lh_set.Set.of_sorted_array values in
    tally_set stats 0 set;
    let root = { set; children; groups } in
    finish stats root
  end

let first_level t = t.root.set

let lookup t prefix =
  let rec go node = function
    | [] -> Some node
    | v :: rest -> (
        match Lh_set.Set.rank node.set v with
        | exception Not_found -> None
        | r -> if Array.length node.children = 0 then None else go node.children.(r) rest)
  in
  let plen = Array.length prefix in
  if plen >= t.nlevels then invalid_arg "Trie.lookup: prefix too long";
  go t.root (Array.to_list prefix)

let iter_tuples t f =
  let tuple = Array.make t.nlevels 0 in
  let rec go level node =
    if level = t.nlevels - 1 then
      Lh_set.Set.iteri
        (fun rank v ->
          tuple.(level) <- v;
          Array.iter (fun g -> f (Array.copy tuple) g) node.groups.(rank))
        node.set
    else
      Lh_set.Set.iteri
        (fun rank v ->
          tuple.(level) <- v;
          go (level + 1) node.children.(rank))
        node.set
  in
  if not (Lh_set.Set.is_empty t.root.set) then go 0 t.root

let cardinality t = t.total_tuples
