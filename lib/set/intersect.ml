module Vec = Lh_util.Vec.Int
module Obs = Lh_obs.Obs
module Fault = Lh_fault.Fault

(* Per-layout-pair kernel invocation counts (bs∩bs, bs∩uint, uint∩uint);
   every specialized entry point below — inter_into, count,
   foreach_inter_ranked — ticks exactly one of them per call. *)
let c_bb = Obs.counter "set.inter.bb"
let c_bu = Obs.counter "set.inter.bu"
let c_uu = Obs.counter "set.inter.uu"

(* Fires between clearing and filling the caller's buffer, so an armed
   fault leaves the buffer in a half-written state — the crashtest asserts
   that no later query observes it. *)
let fault_inter_into = Fault.site "set.inter_into"

(* Galloping pays off when one operand is drastically smaller; 16x is the
   conventional crossover. *)
let gallop_ratio = 16

(* First index in arr.(lo..n-1) with arr.(i) >= v, found by exponential
   search followed by binary search within the located window. *)
let gallop_lower_bound_n arr n lo v =
  if lo >= n || arr.(lo) >= v then lo
  else begin
    let step = ref 1 in
    let prev = ref lo in
    let cur = ref (lo + 1) in
    while !cur < n && arr.(!cur) < v do
      prev := !cur;
      step := !step * 2;
      cur := !cur + !step
    done;
    let hi = min !cur n in
    let rec bin lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if arr.(mid) < v then bin (mid + 1) hi else bin lo mid
    in
    bin (!prev + 1) hi
  end

(* uint∩uint into a caller-provided buffer. Operands are (array, length)
   views so buffer-backed prefixes can feed the next intersection without
   being copied out. *)
let uint_uint_into out a la b lb =
  if la > 0 && lb > 0 then begin
    let a, la, b, lb = if la <= lb then (a, la, b, lb) else (b, lb, a, la) in
    if la * gallop_ratio < lb then begin
      let j = ref 0 in
      for i = 0 to la - 1 do
        let v = a.(i) in
        j := gallop_lower_bound_n b lb !j v;
        if !j < lb && b.(!j) = v then Vec.push out v
      done
    end
    else begin
      let i = ref 0 and j = ref 0 in
      while !i < la && !j < lb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then incr i
        else if y < x then incr j
        else begin
          Vec.push out x;
          incr i;
          incr j
        end
      done
    end
  end

let uint_uint a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Vec.create ~capacity:(min la lb) () in
    uint_uint_into out a la b lb;
    Vec.to_array out
  end

(* uint∩uint cardinality: the same merge/gallop walk, never pushing. *)
let uint_uint_count_n a la b lb =
  if la = 0 || lb = 0 then 0
  else begin
    let a, la, b, lb = if la <= lb then (a, la, b, lb) else (b, lb, a, la) in
    let c = ref 0 in
    if la * gallop_ratio < lb then begin
      let j = ref 0 in
      for i = 0 to la - 1 do
        let v = a.(i) in
        j := gallop_lower_bound_n b lb !j v;
        if !j < lb && b.(!j) = v then incr c
      done
    end
    else begin
      let i = ref 0 and j = ref 0 in
      while !i < la && !j < lb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then incr i
        else if y < x then incr j
        else begin
          incr c;
          incr i;
          incr j
        end
      done
    end;
    !c
  end

(* uint∩uint streamed to [f v i j] in increasing order, [i] and [j] the
   match's indices in [a] and [b] (its ranks). Gallops through the larger
   side from each element of the smaller one, whichever side that is. *)
let uint_uint_foreach_ranked f a b =
  let la = Array.length a and lb = Array.length b in
  if la > 0 && lb > 0 then begin
    if la * gallop_ratio < lb then begin
      let j = ref 0 in
      for i = 0 to la - 1 do
        let v = a.(i) in
        j := gallop_lower_bound_n b lb !j v;
        if !j < lb && b.(!j) = v then f v i !j
      done
    end
    else if lb * gallop_ratio < la then begin
      let i = ref 0 in
      for j = 0 to lb - 1 do
        let v = b.(j) in
        i := gallop_lower_bound_n a la !i v;
        if !i < la && a.(!i) = v then f v !i j
      done
    end
    else begin
      let i = ref 0 and j = ref 0 in
      while !i < la && !j < lb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then incr i
        else if y < x then incr j
        else begin
          f x !i !j;
          incr i;
          incr j
        end
      done
    end
  end

let inter a b =
  match (a, b) with
  | Set.Uint x, Set.Uint y -> Set.Uint (uint_uint x y)
  | Set.Bs x, Set.Bs y -> Set.Bs (Bitset.inter x y)
  | Set.Bs x, Set.Uint y | Set.Uint y, Set.Bs x -> Set.Uint (Bitset.inter_uint x y)

(* Bitsets first, then ascending cardinality within each layout (explicit
   int comparisons — polymorphic compare on the hot path boxes and walks
   the representation). OCaml's List.sort is stable, so ties keep the
   caller's operand order; test_set_props.ml pins that down. *)
let sort_for_inter sets =
  let group s = match Set.layout s with Set.Dense -> 0 | Set.Sparse -> 1 in
  List.sort
    (fun a b ->
      let c = Int.compare (group a) (group b) in
      if c <> 0 then c else Int.compare (Set.cardinality a) (Set.cardinality b))
    sets

let inter_many sets =
  match sets with
  | [] -> invalid_arg "Intersect.inter_many: empty list"
  | [ s ] -> s
  | _ ->
      (match sort_for_inter sets with
      | first :: rest ->
          List.fold_left (fun acc s -> if Set.is_empty acc then acc else inter acc s) first rest
      | [] -> assert false)

let count a b =
  match (a, b) with
  | Set.Bs x, Set.Bs y ->
      Obs.incr c_bb;
      Bitset.inter_count x y
  | Set.Bs x, Set.Uint y | Set.Uint y, Set.Bs x ->
      Obs.incr c_bu;
      Bitset.inter_uint_count x y
  | Set.Uint x, Set.Uint y ->
      Obs.incr c_uu;
      uint_uint_count_n x (Array.length x) y (Array.length y)

(* bs∩uint streamed with ranks: the uint side's index is its rank, and
   the bitset's comes from its prefix index, only for members. *)
let bits_uint_foreach_ranked f x y ~uint_first =
  for j = 0 to Array.length y - 1 do
    let v = y.(j) in
    if Bitset.mem x v then
      if uint_first then f v j (Bitset.rank x v) else f v (Bitset.rank x v) j
  done

let foreach_inter_ranked f a b =
  match (a, b) with
  | Set.Bs x, Set.Bs y ->
      Obs.incr c_bb;
      Bitset.iter_inter_ranked f x y
  | Set.Bs x, Set.Uint y ->
      Obs.incr c_bu;
      bits_uint_foreach_ranked f x y ~uint_first:false
  | Set.Uint y, Set.Bs x ->
      Obs.incr c_bu;
      bits_uint_foreach_ranked f x y ~uint_first:true
  | Set.Uint x, Set.Uint y ->
      Obs.incr c_uu;
      uint_uint_foreach_ranked f x y

(* ---------------- buffered kernels ----------------

   The executor pins one reusable buffer (pair) per trie position and
   re-feeds it every iteration of the enclosing level, so the hot WCOJ
   path performs zero per-intersection allocation. [Vec.Int.clear] resets
   the length but keeps the capacity; after the first few iterations the
   buffer stops growing. *)

let inter_into buf a b =
  Vec.clear buf;
  Fault.hit fault_inter_into;
  match (a, b) with
  | Set.Bs x, Set.Bs y ->
      Obs.incr c_bb;
      Bitset.iter_inter (fun v -> Vec.push buf v) x y
  | Set.Bs x, Set.Uint y | Set.Uint y, Set.Bs x ->
      Obs.incr c_bu;
      Array.iter (fun v -> if Bitset.mem x v then Vec.push buf v) y
  | Set.Uint x, Set.Uint y ->
      Obs.incr c_uu;
      uint_uint_into buf x (Array.length x) y (Array.length y)

(* Intersect the sorted values vals.(0..n-1) — typically the live prefix of
   another buffer — with one more set. *)
let inter_vals_into buf vals n s =
  Vec.clear buf;
  Fault.hit fault_inter_into;
  match s with
  | Set.Bs b ->
      Obs.incr c_bu;
      for i = 0 to n - 1 do
        let v = vals.(i) in
        if Bitset.mem b v then Vec.push buf v
      done
  | Set.Uint b ->
      Obs.incr c_uu;
      uint_uint_into buf vals n b (Array.length b)

let count_vals vals n s =
  match s with
  | Set.Bs b ->
      Obs.incr c_bu;
      let c = ref 0 in
      for i = 0 to n - 1 do
        if Bitset.mem b vals.(i) then incr c
      done;
      !c
  | Set.Uint b ->
      Obs.incr c_uu;
      uint_uint_count_n vals n b (Array.length b)

(* n-ary intersection landing in [dst], ping-ponging between [dst] and
   [tmp]. The first target is chosen by parity so the final result ends in
   [dst] without a copy; an early empty intersection short-circuits (the
   live buffer is empty either way). *)
let inter_many_into dst tmp sets =
  match sets with
  | [] -> invalid_arg "Intersect.inter_many_into: empty list"
  | [ s ] ->
      Vec.clear dst;
      Set.iter (fun v -> Vec.push dst v) s
  | _ ->
      let sorted = sort_for_inter sets in
      let k = List.length sorted in
      (match sorted with
      | a :: b :: rest ->
          let first, second = if (k - 1) mod 2 = 1 then (dst, tmp) else (tmp, dst) in
          inter_into first a b;
          let rec go cur other = function
            | [] -> cur
            | s :: rest ->
                if Vec.length cur = 0 then cur
                else begin
                  inter_vals_into other (Vec.unsafe_inner cur) (Vec.length cur) s;
                  go other cur rest
                end
          in
          let final = go first second rest in
          if final != dst then Vec.clear dst (* early-exit: result is empty *)
      | _ -> assert false)
