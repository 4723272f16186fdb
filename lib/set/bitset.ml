type t = {
  offset : int;
  nbits : int;
  words : int array;
  mutable card : int;
  mutable rank_cache : int array;
}

let word_bits = 63

(* Offsets are always rounded down to a word boundary so that any two
   bitsets are word-aligned: bs∩bs is then a straight word-wise AND, which
   is the property the icost model (§V-A1) relies on. *)
let align_offset v = v - (v mod word_bits)

let nwords nbits = (nbits + word_bits - 1) / word_bits

let create ~offset ~nbits =
  if offset < 0 then invalid_arg "Bitset.create: negative offset";
  let aligned = align_offset offset in
  let nbits = nbits + (offset - aligned) in
  {
    offset = aligned;
    nbits = max nbits 1;
    words = Array.make (nwords (max nbits 1)) 0;
    card = 0;
    rank_cache = [||];
  }

(* SWAR popcount of a 63-bit word: 2-, 4- then 8-bit partial sums, and
   one multiply gathers the byte sums into the top byte. The masks are the
   64-bit ones read as 63-bit ints; bit 62 sits alone in the top 2-bit
   field and lands in the top nibble through [lsr 2], so it is counted. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* The one word walk: [f] sees every set bit of [w], lowest first, as the
   bit index plus [base] — one step per member. [lowest_bit] isolates the
   lowest set bit ([w land -w]) and popcounts the bits below it; clearing
   it ([w land (w - 1)]) moves to the next member. *)
let lowest_bit w = popcount ((w land -w) - 1)

let iter_word f base w =
  let w = ref w in
  while !w <> 0 do
    f (base + lowest_bit !w);
    w := !w land (!w - 1)
  done

let add t v =
  let idx = v - t.offset in
  if idx < 0 || idx >= t.nbits then invalid_arg "Bitset.add: value out of range";
  let w = idx / word_bits and b = idx mod word_bits in
  let bit = 1 lsl b in
  if t.words.(w) land bit = 0 then begin
    t.words.(w) <- t.words.(w) lor bit;
    t.card <- t.card + 1
  end

let of_sorted_array arr =
  let n = Array.length arr in
  if n = 0 then invalid_arg "Bitset.of_sorted_array: empty";
  let lo = arr.(0) and hi = arr.(n - 1) in
  let t = create ~offset:lo ~nbits:(hi - lo + 1) in
  Array.iter (fun v -> add t v) arr;
  t

let mem t v =
  let idx = v - t.offset in
  if idx < 0 || idx >= t.nbits then false
  else t.words.(idx / word_bits) land (1 lsl (idx mod word_bits)) <> 0

let cardinality t = t.card

let iter f t =
  let words = t.words in
  for wi = 0 to Array.length words - 1 do
    let w = words.(wi) in
    if w <> 0 then iter_word f (t.offset + (wi * word_bits)) w
  done

let to_sorted_array t =
  let out = Array.make t.card 0 in
  let i = ref 0 in
  iter
    (fun v ->
      out.(!i) <- v;
      incr i)
    t;
  out

let min_elt t =
  let exception Found of int in
  try
    iter (fun v -> raise (Found v)) t;
    raise Not_found
  with Found v -> v

let max_elt t =
  if t.card = 0 then raise Not_found;
  let best = ref 0 in
  iter (fun v -> best := v) t;
  !best

let word_offset t = t.offset / word_bits

let inter a b =
  let lo_w = max (word_offset a) (word_offset b) in
  let hi_w = min (word_offset a + Array.length a.words) (word_offset b + Array.length b.words) in
  if hi_w <= lo_w then { offset = 0; nbits = 1; words = [| 0 |]; card = 0; rank_cache = [||] }
  else begin
    let n = hi_w - lo_w in
    let words = Array.make n 0 in
    let aw = a.words and bw = b.words in
    let ao = lo_w - word_offset a and bo = lo_w - word_offset b in
    let card = ref 0 in
    for i = 0 to n - 1 do
      let w = aw.(ao + i) land bw.(bo + i) in
      words.(i) <- w;
      if w <> 0 then card := !card + popcount w
    done;
    { offset = lo_w * word_bits; nbits = n * word_bits; words; card = !card; rank_cache = [||] }
  end

let inter_uint t arr =
  let out = Lh_util.Vec.Int.create ~capacity:(Array.length arr) () in
  Array.iter (fun v -> if mem t v then Lh_util.Vec.Int.push out v) arr;
  Lh_util.Vec.Int.to_array out

(* Cardinality of the word-wise AND without allocating the result words:
   the count kernel of the bs∩bs pair. *)
let inter_count a b =
  let lo_w = max (word_offset a) (word_offset b) in
  let hi_w = min (word_offset a + Array.length a.words) (word_offset b + Array.length b.words) in
  if hi_w <= lo_w then 0
  else begin
    let aw = a.words and bw = b.words in
    let ao = lo_w - word_offset a and bo = lo_w - word_offset b in
    let card = ref 0 in
    for i = 0 to hi_w - lo_w - 1 do
      let w = aw.(ao + i) land bw.(bo + i) in
      if w <> 0 then card := !card + popcount w
    done;
    !card
  end

let inter_uint_count t arr =
  let c = ref 0 in
  Array.iter (fun v -> if mem t v then incr c) arr;
  !c

(* Streams the members of the AND to [f] in increasing order without
   materializing anything: AND one word pair at a time, then [iter_word]. *)
let iter_inter f a b =
  let lo_w = max (word_offset a) (word_offset b) in
  let hi_w = min (word_offset a + Array.length a.words) (word_offset b + Array.length b.words) in
  if hi_w > lo_w then begin
    let aw = a.words and bw = b.words in
    let ao = lo_w - word_offset a and bo = lo_w - word_offset b in
    for i = 0 to hi_w - lo_w - 1 do
      let w = aw.(ao + i) land bw.(bo + i) in
      if w <> 0 then iter_word f ((lo_w + i) * word_bits) w
    done
  end

let union a b =
  if a.card = 0 then b
  else if b.card = 0 then a
  else begin
    let lo_w = min (word_offset a) (word_offset b) in
    let hi_w =
      max (word_offset a + Array.length a.words) (word_offset b + Array.length b.words)
    in
    let n = hi_w - lo_w in
    let words = Array.make n 0 in
    let blit s =
      let o = word_offset s - lo_w in
      Array.iteri (fun i w -> words.(o + i) <- words.(o + i) lor w) s.words
    in
    blit a;
    blit b;
    let card = Array.fold_left (fun acc w -> acc + popcount w) 0 words in
    { offset = lo_w * word_bits; nbits = n * word_bits; words; card; rank_cache = [||] }
  end

let ensure_rank_cache t =
  if Array.length t.rank_cache = 0 then begin
    let cache = Array.make (Array.length t.words) 0 in
    let acc = ref 0 in
    Array.iteri
      (fun i word ->
        cache.(i) <- !acc;
        acc := !acc + popcount word)
      t.words;
    t.rank_cache <- cache
  end;
  t.rank_cache

let rank t v =
  let idx = v - t.offset in
  if idx < 0 || idx >= t.nbits then raise Not_found;
  let w = idx / word_bits and b = idx mod word_bits in
  let word = t.words.(w) in
  if word land (1 lsl b) = 0 then raise Not_found;
  let cache = ensure_rank_cache t in
  cache.(w) + popcount (word land ((1 lsl b) - 1))

(* [iter_inter] with ranks: [f v rank_a rank_b], each rank the operand's
   per-word prefix count plus the popcount of its own word below [v]'s bit,
   so the caller never searches a rank back. *)
let iter_inter_ranked f a b =
  let lo_w = max (word_offset a) (word_offset b) in
  let hi_w = min (word_offset a + Array.length a.words) (word_offset b + Array.length b.words) in
  if hi_w > lo_w then begin
    let ca = ensure_rank_cache a and cb = ensure_rank_cache b in
    let aw = a.words and bw = b.words in
    let ao = lo_w - word_offset a and bo = lo_w - word_offset b in
    for i = 0 to hi_w - lo_w - 1 do
      let x = aw.(ao + i) and y = bw.(bo + i) in
      if x land y <> 0 then begin
        let v0 = (lo_w + i) * word_bits and ra = ca.(ao + i) and rb = cb.(bo + i) in
        let w = ref (x land y) in
        while !w <> 0 do
          let below = (!w land - !w) - 1 in
          f (v0 + popcount below) (ra + popcount (x land below)) (rb + popcount (y land below));
          w := !w land (!w - 1)
        done
      end
    done
  end

(* Inverse of [rank]: the i-th member in sorted order. Binary search over
   the per-word prefix popcounts for the containing word, then clear the
   word's lower members one step each and take the lowest set bit left. *)
let select t i =
  if i < 0 || i >= t.card then invalid_arg "Bitset.select: out of bounds";
  let cache = ensure_rank_cache t in
  (* Largest word index whose prefix count is <= i. *)
  let lo = ref 0 and hi = ref (Array.length cache - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if cache.(mid) <= i then lo := mid else hi := mid - 1
  done;
  let w = !lo in
  let word = ref t.words.(w) in
  for _ = 1 to i - cache.(w) do
    word := !word land (!word - 1)
  done;
  t.offset + (w * word_bits) + lowest_bit !word
