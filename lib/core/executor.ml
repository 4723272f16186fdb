module T = Lh_storage.Table
module Schema = Lh_storage.Schema
module Trie = Lh_storage.Trie
module Set_ = Lh_set.Set
module Intersect = Lh_set.Intersect
module Vec = Lh_util.Vec
module Obs = Lh_obs.Obs
open Lh_sql

(* Telemetry probes (lib/obs). Registration is module-init-time; every
   probe below is a no-op branch while telemetry is disabled, and the
   per-tuple loops only touch plain [ctx] fields that are flushed into
   the atomic counters once per bag execution. *)
let c_trie_built = Obs.counter "trie.built"
let c_isect = Obs.counter "wcoj.intersections"
let c_ticks = Obs.counter "wcoj.leaf_ticks"
let c_budget_ticks = Obs.counter "budget.ticks"
let c_scan_rows = Obs.counter "scan.rows_scanned"
let c_count_only = Obs.counter "set.count_only"
let c_buffer_reuse = Obs.counter "set.buffer_reuse"
let g_domains = Obs.gauge "exec.domains_used"
let g_peak_words = Obs.gauge "gc.peak_live_words"
let h_trie_build = Lh_obs.Hist.histogram "phase.trie_build"

(* Probed unmasked (one atomic load when disarmed): fuzzer-scale queries
   produce far fewer than 1024 leaf ticks, so hanging the probe off the
   budget mask would leave the site unreachable exactly where the
   crashtest harness needs it. *)
let fault_leaf = Lh_fault.Fault.site "exec.wcoj.leaf"
let fault_scan = Lh_fault.Fault.site "exec.scan.row"

(* Fired once per count-only leaf invocation, before the count kernel
   runs — the crashtest drives a pinned count-mode query into it. *)
let fault_count = Lh_fault.Fault.site "exec.wcoj.count"

(* Fired once per leaf ⊕-fold into the group accumulator (hash, sorted or
   sparse path alike) — the semiring fold is the one place every
   aggregate value passes through, so arming it interrupts any
   aggregating query mid-fold. *)
let fault_fold = Lh_fault.Fault.site "exec.semiring.fold"

(* ------------------------------------------------------------------ *)
(* Physical planning                                                    *)

type pnode = {
  pbag : Ghd.bag;
  porder : int list;
  prelaxed : bool;
  pmaterialized : int list;
  pchildren : pnode list;
  pcost : float;
}

let rec min_card (lq : Logical.t) (bag : Ghd.bag) =
  let own =
    List.fold_left
      (fun acc e -> min acc lq.Logical.edges.(e).Logical.table.T.nrows)
      max_int bag.Ghd.bag_edges
  in
  List.fold_left (fun acc c -> min acc (min_card lq c)) own bag.Ghd.children

let rel_infos (lq : Logical.t) ~dense_of (bag : Ghd.bag) =
  let base =
    List.map
      (fun e ->
        let edge = lq.Logical.edges.(e) in
        {
          Attr_order.rvertices = edge.Logical.vertices;
          rcard = edge.Logical.table.T.nrows;
          reselected = edge.Logical.eq_selected;
          rdense = dense_of edge;
        })
      bag.Ghd.bag_edges
  in
  let derived =
    List.map
      (fun (c : Ghd.bag) ->
        {
          Attr_order.rvertices = c.Ghd.interface;
          rcard = min_card lq c;
          reselected = false;
          rdense = false;
        })
      bag.Ghd.children
  in
  base @ derived

let physical (cfg : Config.t) (lq : Logical.t) ~dense_of (ghd : Ghd.t) =
  (* Weights come from all base relations of the query (§V-B, Ex. 5.3). *)
  let weights =
    Attr_order.vertex_weights
      (Array.to_list lq.Logical.edges
      |> List.map (fun (e : Logical.edge) ->
             {
               Attr_order.rvertices = e.Logical.vertices;
               rcard = e.Logical.table.T.nrows;
               reselected = e.Logical.eq_selected;
               rdense = dense_of e;
             }))
  in
  let group_keys =
    Array.to_list lq.Logical.group_by
    |> List.filter_map (function Logical.Group_key v -> Some v | Logical.Group_ann _ -> None)
    |> List.sort_uniq compare
  in
  let global_order = ref [] in
  let rec assign (bag : Ghd.bag) ~materialized =
    let rels = rel_infos lq ~dense_of bag in
    let res =
      Attr_order.choose ~policy:cfg.Config.attr_order ~relax:cfg.Config.relax_materialized_first
        ~rels ~weights ~vertices:bag.Ghd.bag_vertices ~materialized ~global_order:!global_order
    in
    let mats_in_order = List.filter (fun v -> List.mem v materialized) res.Attr_order.order in
    List.iter
      (fun v -> if not (List.mem v !global_order) then global_order := !global_order @ [ v ])
      mats_in_order;
    let children = List.map (fun c -> assign c ~materialized:c.Ghd.interface) bag.Ghd.children in
    {
      pbag = bag;
      porder = res.Attr_order.order;
      prelaxed = res.Attr_order.relaxed;
      pmaterialized = materialized;
      pchildren = children;
      pcost = res.Attr_order.ocost;
    }
  in
  assign ghd.Ghd.root ~materialized:group_keys

(* ------------------------------------------------------------------ *)
(* Relation instances                                                   *)

type row = { gcodes : int array; slots : float array }

type xrel = {
  xtrie : Trie.t;
  xlevels : int list;  (* node positions this relation participates at *)
  xslot : int array;  (* global slot -> local vec index, -1 when not owned *)
  xcode_items : int array;  (* gitem id per local code position *)
}

type gsource = From_pos of int | From_rel of int * int

let table_resolver alias (table : T.t) (c : Ast.col_ref) =
  (match c.Ast.relation with
  | Some a when not (String.equal a alias) ->
      failwith (Printf.sprintf "internal: column %s.%s resolved against %s" a c.Ast.column alias)
  | _ -> ());
  Schema.find_exn table.T.schema c.Ast.column

(* Runs [f sel n] over the rows of [edge]'s table that pass its filter, a
   chunk of at most [Compile.chunk] table rows at a time: [sel.(0..n-1)]
   holds the chunk's kept rows, ascending; a chunk that keeps none is
   skipped. *)
let each_chunk (edge : Logical.edge) f =
  let table = edge.Logical.table in
  let keep =
    match edge.Logical.filter with
    | None -> fun _ m -> m
    | Some p -> Compile.filter table ~resolve:(table_resolver edge.Logical.alias table) p
  in
  let sel = Array.make Compile.chunk 0 and lo = ref 0 in
  while !lo < table.T.nrows do
    let m = min Compile.chunk (table.T.nrows - !lo) in
    for p = 0 to m - 1 do
      sel.(p) <- !lo + p
    done;
    let n = keep sel m in
    if n > 0 then f sel n;
    lo := !lo + m
  done

let alias_gitems (lq : Logical.t) alias =
  Array.to_list lq.Logical.group_by
  |> List.mapi (fun i g -> (i, g))
  |> List.filter_map (fun (i, g) ->
         match g with
         | Logical.Group_ann a when String.equal a.alias alias -> Some (i, a.expr)
         | Logical.Group_ann _ | Logical.Group_key _ -> None)

let build_base_xrel ~domains (lq : Logical.t) ~order (edge : Logical.edge) =
  let table = edge.Logical.table in
  let resolve = table_resolver edge.Logical.alias table in
  let levels_v = List.filter (fun v -> List.mem v edge.Logical.vertices) order in
  let gitems = alias_gitems lq edge.Logical.alias in
  let owned =
    Array.to_list lq.Logical.slots
    |> List.mapi (fun j s -> (j, s))
    |> List.filter_map (fun (j, (s : Logical.slot)) ->
           match List.assoc_opt edge.Logical.alias s.Logical.owners with
           | Some e -> Some (j, s.Logical.sr, e)
           | None -> None)
  in
  let build () =
    Obs.incr c_trie_built;
    Obs.span "trie.build" ~args:[ ("table", table.T.name) ]
      ~record:(Lh_obs.Hist.observe_always h_trie_build)
    @@ fun () ->
    let keys =
      Array.of_list
        (List.map (fun v -> T.icol table (List.assoc v edge.Logical.vertex_cols)) levels_v)
    in
    (* One pass over the kept rows collects them and evaluates their
       annotation columns, indexed by row id (the trie reads no other
       row): each [fills] entry runs one kernel over a chunk and scatters
       its buffer into its column. *)
    let fills = ref [] in
    let group_cols =
      Array.of_list
        (List.map
           (fun (_, expr) ->
             let col = Array.make table.T.nrows 0 and buf = Array.make Compile.chunk 0 in
             let k = Compile.code table ~resolve expr buf in
             let fill sel n =
               k sel n;
               for p = 0 to n - 1 do
                 col.(sel.(p)) <- buf.(p)
               done
             in
             fills := fill :: !fills;
             col)
           gitems)
    in
    let aggs =
      Array.of_list
        (List.map
           (fun (_, (sr : Semiring.t), e) ->
             let col = Array.create_float table.T.nrows and buf = Array.create_float Compile.chunk in
             let k = Compile.scalar table ~resolve e buf in
             let fill sel n =
               k sel n;
               for p = 0 to n - 1 do
                 col.(sel.(p)) <- buf.(p)
               done
             in
             fills := fill :: !fills;
             (sr.Semiring.add, col))
           owned)
    in
    let kept = Array.make table.T.nrows 0 and nkept = ref 0 in
    each_chunk edge (fun sel n ->
        Array.blit sel 0 kept !nkept n;
        nkept := !nkept + n;
        List.iter (fun fill -> fill sel n) !fills);
    let rows = Array.sub kept 0 !nkept in
    Trie.build ~domains ~keys ~rows ~group_cols ~aggs ()
  in
  (* One extra entry for the pseudo-multiplicity slot child nodes compute:
     never owned by a base relation, so its factor is the multiplicity. *)
  let xslot = Array.make (Array.length lq.Logical.slots + 1) (-1) in
  List.iteri (fun local (j, _, _) -> xslot.(j) <- local) owned;
  let xtrie =
    (* Only filter-less tries are the table's indexes, which the paper
       builds at load time (§VI-A). Selections are query work. *)
    match edge.Logical.filter with
    | Some _ -> build ()
    | None ->
        (* Everything besides the table that fixes the trie: key levels as
           column indices (vertex ids are query-local), owned slots and
           carried codes, whose bound constants the shape masks. *)
        let key expr =
          let item tag (i, e) = Format.asprintf "%s%d:%a" tag i Ast.pp_expr (expr e) in
          String.concat "|"
            (List.map (fun v -> string_of_int (List.assoc v edge.Logical.vertex_cols)) levels_v
            @ List.map (fun (j, (sr : Semiring.t), e) -> item ("s" ^ sr.Semiring.name ^ ":") (j, e)) owned
            @ List.map (item "g") gitems)
        in
        T.trie table ~shape:(key Normalize.shape) ~key:(key Fun.id) build
  in
  let positions =
    List.mapi (fun i v -> (i, v)) order
    |> List.filter_map (fun (i, v) -> if List.mem v levels_v then Some i else None)
  in
  { xtrie; xlevels = positions; xslot; xcode_items = Array.of_list (List.map fst gitems) }

(* ------------------------------------------------------------------ *)
(* WCOJ execution over one bag                                          *)

type bag_input = {
  rels : xrel array;
  npos : int;
  nslots_x : int;  (* includes the pseudo-multiplicity slot on child nodes *)
  srs_x : Semiring.t array;
  coeffs_x : float array;
  (* Per-slot semiring operations, pre-extracted so the hot loops never
     chase the record. *)
  adds_x : (float -> float -> float) array;  (* ⊕ *)
  muls_x : (float -> float -> float) array;  (* ⊗ *)
  zeros_x : float array;  (* ⊕ identity *)
  scales_x : (float -> float -> float) option array;
      (* Some f: the Scale cardinality law (⊕ⁿx = f x n); None: Idem or
         Opaque — see opaque_x *)
  opaque_x : bool array;  (* Opaque: ⊕ⁿx folded by literal repetition *)
  gb : gsource array;
  boundary : int option;  (* Some m: sorted-emit path with group prefix of length m *)
  spa_bound : int;  (* >=0 only for the relaxed sorted path *)
  relaxed_tail : bool;
  kmode : Compile.Leaf.mode;  (* innermost-position kernel disposition *)
}

(* The groups array every unit-leaf relation holds at every leaf value: the
   count-only path installs this shared instance instead of ranking into
   the trie per match. *)
let unit_groups = [| { Trie.codes = [||]; vec = [||]; mult = 1.0 } |]

(* The innermost-position leaf disposition of one bag execution, read
   from the bound tries: bind-time filters rebuild tries under the same
   plan (a filter that drops duplicate keys makes the leaves unit), so it
   is decided afresh each execution. *)
let leaf_mode (rels : xrel array) ~npos ~srs ~gb ~boundary ~relaxed_tail =
  let leaf_unit =
    Array.for_all
      (fun (r : xrel) ->
        match List.rev r.xlevels with
        | last :: _ when last = npos - 1 -> r.xtrie.Trie.leaf_unit
        | _ -> true)
      rels
  in
  (* Count-only soundness per semiring: every slot must absorb the
     factor n either by closed form (Scale) or idempotence. *)
  let scalable = Array.for_all Semiring.scalable srs in
  let group_uses_last =
    Array.exists (function From_pos p -> p = npos - 1 | From_rel _ -> false) gb
  in
  Compile.Leaf.mode ~leaf_unit ~scalable ~relaxed_tail ~boundary ~group_uses_last ~npos

(* Per-domain mutable execution state. *)
type ctx = {
  stacks : Trie.node array array;
  cur_groups : Trie.group array array;
  vals : int array;
  picked : Trie.group array;
  scratch : float array;
  mutable ticks : int;
  mutable isects : int;  (* set intersections performed (2+ participants) *)
  (* specialized-kernel state *)
  ibufs : Vec.Int.t array;  (* per-position reusable intersection buffer *)
  itmps : Vec.Int.t array;  (* ping-pong partner for n-ary intersections *)
  ibuf_used : bool array;
  mutable count_leaves : int;  (* count-only leaf invocations *)
  mutable breuse : int;  (* buffered intersections that reused a warm buffer *)
  mutable count_n : float;  (* factor the count-only fold scales sum slots by *)
  mutable next_tick_check : int;  (* next ticks value that triggers a budget check *)
  (* hash path *)
  hash : (int array, float array) Hashtbl.t;
  (* sorted path *)
  out : row list ref;
  accum : float array;
  mutable touched : bool;
  (* relaxed sorted path: sparse accumulator over the last position *)
  spa : float array array;  (* slot -> value index -> accumulated *)
  spa_touched : Vec.Int.t;
  spa_in : bool array;
}

(* Every relation's descent stack, each level at its trie root. *)
let root_stacks (input : bag_input) =
  Array.map (fun (r : xrel) -> Array.make (max (List.length r.xlevels) 1) r.xtrie.Trie.root) input.rels

let make_ctx (input : bag_input) =
  let nrels = Array.length input.rels in
  {
    stacks = root_stacks input;
    cur_groups = Array.make nrels [||];
    vals = Array.make (max input.npos 1) 0;
    picked = Array.make nrels { Trie.codes = [||]; vec = [||]; mult = 1.0 };
    scratch = Array.make (max input.nslots_x 1) 0.0;
    ticks = 0;
    isects = 0;
    ibufs = Array.init (max input.npos 1) (fun _ -> Vec.Int.create ());
    itmps = Array.init (max input.npos 1) (fun _ -> Vec.Int.create ());
    ibuf_used = Array.make (max input.npos 1) false;
    count_leaves = 0;
    breuse = 0;
    count_n = 0.0;
    next_tick_check = 1024;
    hash = Hashtbl.create 256;
    out = ref [];
    accum = Array.make (max input.nslots_x 1) 0.0;
    touched = false;
    spa =
      (if input.spa_bound >= 0 then
         Array.init input.nslots_x (fun _ -> Array.make (input.spa_bound + 1) 0.0)
       else [||]);
    spa_touched = Vec.Int.create ();
    spa_in = (if input.spa_bound >= 0 then Array.make (input.spa_bound + 1) false else [||]);
  }

let exec_bag (cfg : Config.t) (input : bag_input) : row list =
  let nrels = Array.length input.rels in
  let npos = input.npos in
  let nslots = input.nslots_x in
  (* Participation tables: which relations take part at each position, at
     which of their trie levels, and whether it is their last level. *)
  let parts = Array.make (max npos 1) [||] in
  let plevel = Array.make (max npos 1) [||] in
  let plast = Array.make (max npos 1) [||] in
  for pos = 0 to npos - 1 do
    let here = ref [] in
    Array.iteri
      (fun ri (r : xrel) ->
        match List.find_index (( = ) pos) r.xlevels with
        | Some l -> here := (ri, l, l = List.length r.xlevels - 1) :: !here
        | None -> ())
      input.rels;
    let here = List.rev !here in
    parts.(pos) <- Array.of_list (List.map (fun (r, _, _) -> r) here);
    plevel.(pos) <- Array.of_list (List.map (fun (_, l, _) -> l) here);
    plast.(pos) <- Array.of_list (List.map (fun (_, _, last) -> last) here)
  done;
  let budget = cfg.Config.budget in

  (* Every slot folds in (+,×) — plain SUM/COUNT queries and all the LA
     kernels: the leaf then multiplies and adds with [*.]/[+.] directly
     instead of calling the per-slot closures. Same operations in the same
     order as the generic path, so results are bit-identical. *)
  let sp = Array.for_all Semiring.is_sum_product input.srs_x in

  (* --- leaf combinators ------------------------------------------- *)
  let emit_combo_generic ctx fold =
    for j = 0 to nslots - 1 do
      let p = ref input.coeffs_x.(j) in
      let reps = ref 1.0 in
      for ri = 0 to nrels - 1 do
        let g = ctx.picked.(ri) in
        let local = input.rels.(ri).xslot.(j) in
        if local >= 0 then p := input.muls_x.(j) !p g.Trie.vec.(local)
        else
          (* Non-owner relation: its [mult] collapsed key tuples each
             contribute this combo once, i.e. the slot value repeats. The
             cardinality law absorbs the repetition: Scale has the closed
             form, Idem ignores it, Opaque accumulates the repeat count
             and ⊕-folds literally below. *)
          match input.scales_x.(j) with
          | Some f -> p := f !p g.Trie.mult
          | None -> if input.opaque_x.(j) then reps := !reps *. g.Trie.mult
      done;
      if input.opaque_x.(j) && !reps > 1.0 then begin
        (* ⊕ⁿx by literal repetition (x ⊕ … ⊕ x associates freely, so
           pre-folding into the scratch value is exact). Opaque semirings
           require integer multiplicities — base tables always have them;
           builtins are never Opaque. *)
        let n = max 1 (int_of_float (Float.round !reps)) in
        let x = !p in
        for _ = 2 to n do
          p := input.adds_x.(j) !p x
        done
      end;
      ctx.scratch.(j) <- !p
    done;
    fold ctx
  in
  (* The same product in (+,×): a non-owner's repetition is (+,×)'s Scale
     law, one more multiply. *)
  let emit_combo_sp ctx fold =
    for j = 0 to nslots - 1 do
      let p = ref input.coeffs_x.(j) in
      for ri = 0 to nrels - 1 do
        let g = ctx.picked.(ri) in
        let local = input.rels.(ri).xslot.(j) in
        if local >= 0 then p := !p *. g.Trie.vec.(local) else p := !p *. g.Trie.mult
      done;
      ctx.scratch.(j) <- !p
    done;
    fold ctx
  in
  let emit_combo = if sp then emit_combo_sp else emit_combo_generic in
  let rec combos ctx ri fold =
    if ri = nrels then emit_combo ctx fold
    else
      let gs = ctx.cur_groups.(ri) in
      for gi = 0 to Array.length gs - 1 do
        ctx.picked.(ri) <- gs.(gi);
        combos ctx (ri + 1) fold
      done
  in
  (* Overwhelmingly common case: one leaf group per relation (no GROUP BY
     annotations on duplicate keys) — pick them and skip the combination
     search. *)
  let rec all_single ctx ri =
    if ri = nrels then true
    else
      let gs = ctx.cur_groups.(ri) in
      if Array.length gs = 1 then begin
        ctx.picked.(ri) <- Array.unsafe_get gs 0;
        all_single ctx (ri + 1)
      end
      else false
  in
  let emit ctx fold = if all_single ctx 0 then emit_combo ctx fold else combos ctx 0 fold in
  (* [n] leaf matches: the budget is checked every 1024 ticks, whether the
     matches arrive one per leaf or counted. *)
  let tick ctx n =
    ctx.ticks <- ctx.ticks + n;
    if ctx.ticks >= ctx.next_tick_check then begin
      ctx.next_tick_check <- ctx.ticks + 1024;
      Obs.incr c_budget_ticks;
      Lh_util.Budget.check budget
    end
  in
  let leaf ctx fold =
    Lh_fault.Fault.hit fault_leaf;
    tick ctx 1;
    emit ctx fold
  in

  let build_key ctx =
    Array.map
      (function
        | From_pos p -> ctx.vals.(p)
        | From_rel (ri, cp) -> ctx.picked.(ri).Trie.codes.(cp))
      input.gb
  in

  (* fold functions per path *)
  (* acc.(j) <- acc.(j) ⊕ x.(j) for every slot. *)
  let fold_slots acc x =
    if sp then
      for j = 0 to nslots - 1 do
        acc.(j) <- acc.(j) +. x.(j)
      done
    else
      for j = 0 to nslots - 1 do
        acc.(j) <- input.adds_x.(j) acc.(j) x.(j)
      done
  in
  let fold_hash ctx =
    let key = build_key ctx in
    match Hashtbl.find_opt ctx.hash key with
    | Some acc -> fold_slots acc ctx.scratch
    | None -> Hashtbl.replace ctx.hash key (Array.copy ctx.scratch)
  in
  let fold_sorted ctx =
    ctx.touched <- true;
    fold_slots ctx.accum ctx.scratch
  in
  let fold_spa ctx =
    let v = ctx.vals.(npos - 1) in
    if not ctx.spa_in.(v) then begin
      ctx.spa_in.(v) <- true;
      Vec.Int.push ctx.spa_touched v;
      for j = 0 to nslots - 1 do
        ctx.spa.(j).(v) <- input.zeros_x.(j)
      done
    end;
    if sp then
      for j = 0 to nslots - 1 do
        let col = ctx.spa.(j) in
        col.(v) <- col.(v) +. ctx.scratch.(j)
      done
    else
      for j = 0 to nslots - 1 do
        ctx.spa.(j).(v) <- input.adds_x.(j) ctx.spa.(j).(v) ctx.scratch.(j)
      done
  in

  (* --- descent ------------------------------------------------------ *)
  (* Relation [ri] at its level [l] (node [node]) takes the value of sorted
     position [rank]: its last level yields the leaf groups, any other the
     child node for the next level. *)
  let install ctx ri l last (node : Trie.node) rank =
    if last then ctx.cur_groups.(ri) <- Array.unsafe_get node.Trie.groups rank
    else ctx.stacks.(ri).(l + 1) <- Array.unsafe_get node.Trie.children rank
  in
  (* A buffered or n-way position only has the value: search each rank. *)
  let advance ctx pos v =
    let rs = parts.(pos) and ls = plevel.(pos) and lasts = plast.(pos) in
    for k = 0 to Array.length rs - 1 do
      let ri = rs.(k) and l = ls.(k) in
      let node = ctx.stacks.(ri).(l) in
      install ctx ri l lasts.(k) node (Set_.rank node.Trie.set v)
    done
  in

  let fold_for_leaf =
    let fold =
      match (input.boundary, input.relaxed_tail) with
      | None, _ -> fold_hash
      | Some _, false -> fold_sorted
      | Some _, true -> fold_spa
    in
    fun ctx ->
      Lh_fault.Fault.hit fault_fold;
      fold ctx
  in

  (* Count-only fold: the n innermost matches all contribute the same
     combo vector (unit leaf groups), so Scale-law slots take the closed
     form ⊕ⁿx = f x n ((+,×): scale by n) and Idem slots combine once.
     Opaque slots never reach here — Compile.Leaf.mode forces Stream. *)
  let fold_counted ctx =
    let nf = ctx.count_n in
    for j = 0 to nslots - 1 do
      if sp then ctx.scratch.(j) <- ctx.scratch.(j) *. nf
      else
        match input.scales_x.(j) with
        | Some f -> ctx.scratch.(j) <- f ctx.scratch.(j) nf
        | None -> ()
    done;
    fold_for_leaf ctx
  in
  (* The count-only leaf: n matches folded in one leaf invocation. *)
  let leaf_counted ctx n =
    Lh_fault.Fault.hit fault_count;
    ctx.count_leaves <- ctx.count_leaves + 1;
    if n > 0 then begin
      tick ctx n;
      ctx.count_n <- float_of_int n;
      let rs = parts.(npos - 1) in
      for k = 0 to Array.length rs - 1 do
        ctx.cur_groups.(rs.(k)) <- unit_groups
      done;
      emit ctx fold_counted
    end
  in
  (* Buffered intersection at [pos] into the position's pinned buffer:
     never allocates after warm-up (Vec clear keeps capacity). *)
  let intersect stacks buf tmp pos =
    (* [pos]'s participating sets, read off [stacks], intersected into
       [buf]; [tmp] is the n-way scratch. *)
    let rs = parts.(pos) and ls = plevel.(pos) in
    match Array.length rs with
    | 2 -> Intersect.inter_into buf stacks.(rs.(0)).(ls.(0)).Trie.set stacks.(rs.(1)).(ls.(1)).Trie.set
    | n -> Intersect.inter_many_into buf tmp (List.init n (fun k -> stacks.(rs.(k)).(ls.(k)).Trie.set))
  in
  let inter_to_buf ctx pos =
    let buf = ctx.ibufs.(pos) in
    if ctx.ibuf_used.(pos) then ctx.breuse <- ctx.breuse + 1 else ctx.ibuf_used.(pos) <- true;
    ctx.isects <- ctx.isects + 1;
    intersect ctx.stacks buf ctx.itmps.(pos) pos;
    buf
  in
  (* The one position whose matches are counted rather than iterated. *)
  let count_at = match input.kmode with Compile.Leaf.Count -> npos - 1 | Stream -> -1 in

  (* The sorted-emit GROUP BY boundary: [reset] zeroes the accumulators on
     entering the aggregated suffix, [flush] emits its group row(s) on
     leaving it. [walk] wraps the boundaries at positions > 0; the one at
     position 0 is the driver's prologue and epilogue. *)
  let reset ctx =
    if input.relaxed_tail then Vec.Int.clear ctx.spa_touched
    else begin
      for j = 0 to nslots - 1 do
        ctx.accum.(j) <- input.zeros_x.(j)
      done;
      ctx.touched <- false
    end
  in
  let flush ctx pos =
    if input.relaxed_tail then begin
      let touched = Vec.Int.to_array ctx.spa_touched in
      Array.sort compare touched;
      Array.iter
        (fun v ->
          let slots = Array.init nslots (fun j -> ctx.spa.(j).(v)) in
          let gcodes = Array.init (pos + 1) (fun i -> if i < pos then ctx.vals.(i) else v) in
          ctx.out := { gcodes; slots } :: !(ctx.out);
          ctx.spa_in.(v) <- false)
        touched
    end
    else if ctx.touched || pos = 0 then
      (* A scalar aggregate (empty group key) yields its row even when
         nothing matched; grouped output only materializes matched groups. *)
      ctx.out := { gcodes = Array.sub ctx.vals 0 pos; slots = Array.copy ctx.accum } :: !(ctx.out)
  in
  let inner_boundary = match input.boundary with Some m when m > 0 -> m | _ -> -1 in

  (* The boundary test comes first: when the GROUP BY covers every
     position, the flush must wrap the (empty) suffix at pos = npos. *)
  let rec walk ctx pos =
    if pos = inner_boundary then begin
      reset ctx;
      descend ctx pos;
      flush ctx pos
    end
    else descend ctx pos
  and descend ctx pos =
    if pos = npos then leaf ctx fold_for_leaf
    else if pos = count_at then begin
      (* Count-only innermost position: the intersection cardinality is the
         only thing the leaf needs — never materialize nor iterate it. *)
      let rs = parts.(pos) and ls = plevel.(pos) in
      let n =
        match Array.length rs with
        | 1 -> Set_.cardinality ctx.stacks.(rs.(0)).(ls.(0)).Trie.set
        | 2 ->
            ctx.isects <- ctx.isects + 1;
            let a = ctx.stacks.(rs.(0)).(ls.(0)).Trie.set in
            let b = ctx.stacks.(rs.(1)).(ls.(1)).Trie.set in
            Intersect.count a b
        | _ -> Vec.Int.length (inter_to_buf ctx pos)
      in
      leaf_counted ctx n
    end
    else if Array.length parts.(pos) = 1 then begin
      (* Single participant: its own set is the intersection; iterate with
         the rank in hand instead of searching it back. *)
      let ri = parts.(pos).(0) and l = plevel.(pos).(0) in
      let node = ctx.stacks.(ri).(l) in
      let last = plast.(pos).(0) in
      Set_.iteri
        (fun rank v ->
          ctx.vals.(pos) <- v;
          install ctx ri l last node rank;
          walk ctx (pos + 1))
        node.Trie.set
    end
    else if pos = npos - 1 && Array.length parts.(pos) = 2 then begin
      (* Innermost two-way intersection: stream matches straight into leaf
         aggregation without touching a buffer, each with its rank in both
         sets, so no rank is searched back. *)
      ctx.isects <- ctx.isects + 1;
      let rs = parts.(pos) and ls = plevel.(pos) and lasts = plast.(pos) in
      let ra = rs.(0) and la = ls.(0) and rb = rs.(1) and lb = ls.(1) in
      let na = ctx.stacks.(ra).(la) and nb = ctx.stacks.(rb).(lb) in
      Intersect.foreach_inter_ranked
        (fun v ia ib ->
          ctx.vals.(pos) <- v;
          install ctx ra la lasts.(0) na ia;
          install ctx rb lb lasts.(1) nb ib;
          walk ctx (pos + 1))
        na.Trie.set nb.Trie.set
    end
    else begin
      (* Interior (or n-ary innermost) position: intersect into the
         position's pinned buffer and iterate the live prefix. *)
      let buf = inter_to_buf ctx pos in
      let arr = Vec.Int.unsafe_inner buf in
      let len = Vec.Int.length buf in
      for i = 0 to len - 1 do
        let v = Array.unsafe_get arr i in
        ctx.vals.(pos) <- v;
        advance ctx pos v;
        walk ctx (pos + 1)
      done
    end
  in

  let finalize ctx =
    match input.boundary with
    | None ->
        let rows = Hashtbl.fold (fun k v acc -> { gcodes = k; slots = v } :: acc) ctx.hash [] in
        if rows = [] && Array.length input.gb = 0 then
          (* scalar aggregate over an empty match set: one identity row
             (each slot's ⊕ identity: 0 for (+,×), ∞ for (min,+), …),
             same as the sorted-emit flush at position 0 *)
          [ { gcodes = [||]; slots = Array.copy input.zeros_x } ]
        else List.sort (fun a b -> compare a.gcodes b.gcodes) rows
    | Some _ -> List.rev !(ctx.out)
  in

  (* Per-ctx tick/intersection tallies are plain fields; they reach the
     shared atomic counters exactly once per bag, here. *)
  let flush_stats ctx =
    if Obs.is_enabled () then begin
      Obs.add c_ticks ctx.ticks;
      Obs.add c_isect ctx.isects;
      Obs.add c_count_only ctx.count_leaves;
      Obs.add c_buffer_reuse ctx.breuse;
      Obs.set_max g_peak_words (Gc.quick_stat ()).Gc.heap_words
    end
  in
  (* Chunk [b] follows chunk [a] in position-0 order. Below a boundary at
     position 0 every group lies inside one chunk, so rows concatenate; at
     it the chunks share groups, and [b]'s partial accumulators fold into
     [a] like one more leaf contribution each. *)
  let merge a b =
    (match (input.boundary, input.relaxed_tail) with
    | None, _ ->
        Hashtbl.iter
          (fun k v ->
            match Hashtbl.find_opt a.hash k with
            | Some acc -> fold_slots acc v
            | None -> Hashtbl.replace a.hash k v)
          b.hash
    | Some 0, false ->
        Array.blit b.accum 0 a.scratch 0 nslots;
        fold_sorted a
    | Some 0, true ->
        Vec.Int.iter
          (fun v ->
            a.vals.(npos - 1) <- v;
            for j = 0 to nslots - 1 do
              a.scratch.(j) <- b.spa.(j).(v)
            done;
            fold_spa a)
          b.spa_touched
    | Some _, _ -> a.out := !(b.out) @ !(a.out));
    a.ticks <- a.ticks + b.ticks;
    a.isects <- a.isects + b.isects;
    a.count_leaves <- a.count_leaves + b.count_leaves;
    a.breuse <- a.breuse + b.breuse;
    a
  in
  let init () =
    let ctx = make_ctx input in
    if input.boundary = Some 0 then reset ctx;
    ctx
  in
  let domains = max 1 cfg.Config.domains in
  Obs.set_max g_domains domains;
  (* The one driver (§III-D): the units are position 0's values,
     materialized once and split into contiguous chunks, one per domain,
     each walked with a private ctx. With one domain, or when position 0
     is not iterated (no vertices, or its matches only counted), the bag
     is a single unit that walks position 0 in place like any other
     position, so nothing is materialized or copied. *)
  let n, body, isects =
    if domains = 1 || npos = 0 || count_at = 0 then (1, (fun ctx _ -> walk ctx 0), 0)
    else
      let stacks = root_stacks input in
      match parts.(0) with
      | [| ri |] ->
          (* A lone participant: the index is the rank, no search. *)
          let node = stacks.(ri).(0) in
          let values = Set_.to_array node.Trie.set in
          let last = plast.(0).(0) in
          ( Array.length values,
            (fun ctx i ->
              ctx.vals.(0) <- Array.unsafe_get values i;
              install ctx ri 0 last node i;
              walk ctx 1),
            0 )
      | _ ->
          (* The intersection, entered like any interior position. It runs
             before any chunk ctx exists, so the bag's ctx tallies it. *)
          let buf = Vec.Int.create () in
          intersect stacks buf (Vec.Int.create ()) 0;
          let values = Vec.Int.unsafe_inner buf in
          ( Vec.Int.length buf,
            (fun ctx i ->
              let v = Array.unsafe_get values i in
              ctx.vals.(0) <- v;
              advance ctx 0 v;
              walk ctx 1),
            1 )
  in
  let ctx = Lh_util.Parfor.map_reduce ~domains ~n ~init ~body ~merge in
  ctx.isects <- ctx.isects + isects;
  if input.boundary = Some 0 then flush ctx 0;
  flush_stats ctx;
  finalize ctx

(* ------------------------------------------------------------------ *)
(* Node orchestration (Yannakakis bottom-up)                            *)

(* The pseudo slot (child-bag multiplicity) always folds in (+,×). *)
let slot_arrays (lq : Logical.t) ~with_pseudo =
  let n = Array.length lq.Logical.slots in
  let total = if with_pseudo then n + 1 else n in
  let srs =
    Array.init total (fun j ->
        if j < n then lq.Logical.slots.(j).Logical.sr else Semiring.sum_product)
  in
  let coeffs =
    Array.init total (fun j -> if j < n then lq.Logical.slots.(j).Logical.coeff else 1.0)
  in
  (total, srs, coeffs)

(* Per-slot semiring operations unpacked into flat arrays for the hot loop. *)
let slot_ops (srs : Semiring.t array) =
  let adds = Array.map (fun sr -> sr.Semiring.add) srs in
  let muls = Array.map (fun sr -> sr.Semiring.mul) srs in
  let zeros = Array.map (fun sr -> sr.Semiring.zero) srs in
  let scales =
    Array.map
      (fun sr -> match sr.Semiring.card with Semiring.Scale f -> Some f | _ -> None)
      srs
  in
  let opaque = Array.map (fun sr -> sr.Semiring.card = Semiring.Opaque) srs in
  (adds, muls, zeros, scales, opaque)

(* What a bag emits. The root emits the query's GROUP BY items and may
   take the sorted-emit path. A child emits its interface keys (in the
   parent's attribute order) followed by every group code its relations
   carry, and also folds the pseudo multiplicity slot. *)
type bag_role = Root | Child of int list

(* Execute a child node and wrap its materialized result as a relation for
   the parent: keys = interface (in the parent's attribute-order order),
   annotations = every slot plus the multiplicity. *)
let rec exec_child cfg (lq : Logical.t) (node : pnode) ~parent_order =
  let iface_sorted =
    List.filter (fun v -> List.mem v node.pbag.Ghd.interface) parent_order
  in
  let rows, code_sources, _ = run_bag cfg lq node ~role:(Child iface_sorted) in
  let nslots = Array.length lq.Logical.slots in
  let nkeys = List.length iface_sorted in
  let rows_arr = Array.of_list rows in
  let nrows = Array.length rows_arr in
  let keys = Array.init nkeys (fun k -> Array.init nrows (fun r -> rows_arr.(r).gcodes.(k))) in
  let ncodes = Array.length code_sources in
  let group_cols =
    Array.init ncodes (fun c -> Array.init nrows (fun r -> rows_arr.(r).gcodes.(nkeys + c)))
  in
  let slot_col j =
    let col = Array.create_float nrows in
    Array.iteri (fun r row -> col.(r) <- row.slots.(j)) rows_arr;
    col
  in
  let aggs = Array.init nslots (fun j -> (lq.Logical.slots.(j).Logical.sr.Semiring.add, slot_col j)) in
  let mults = slot_col nslots in
  let xtrie =
    if nkeys = 0 then invalid_arg "Executor: child node with empty interface"
    else begin
      Obs.incr c_trie_built;
      Obs.span "trie.build" ~args:[ ("table", "<child-bag>") ]
        ~record:(Lh_obs.Hist.observe_always h_trie_build)
      @@ fun () ->
      Trie.build ~domains:(max 1 cfg.Config.domains) ~keys ~rows:(Array.init nrows Fun.id)
        ~group_cols ~aggs ~mults ()
    end
  in
  let positions =
    List.filter_map
      (fun (i, v) -> if List.mem v iface_sorted then Some i else None)
      (List.mapi (fun i v -> (i, v)) parent_order)
  in
  {
    xtrie;
    xlevels = positions;
    (* Owns every real slot; the pseudo-mult slot of an enclosing child
       node reads this relation's multiplicity instead. *)
    xslot = Array.init (nslots + 1) (fun j -> if j < nslots then j else -1);
    xcode_items = code_sources;
  }

and pos_of order v =
  match List.find_index (( = ) v) order with
  | Some i -> i
  | None -> failwith "Executor: vertex missing from order"

(* Run the WCOJ for one node (children first, bottom-up). Returns the rows,
   for a child the gitem ids appended as code columns after its interface
   keys, and the node's leaf disposition. *)
and run_bag (cfg : Config.t) (lq : Logical.t) (node : pnode) ~role =
  let order = node.porder in
  let derived = List.map (fun c -> exec_child cfg lq c ~parent_order:order) node.pchildren in
  let bases =
    List.map
      (fun e ->
        build_base_xrel ~domains:(max 1 cfg.Config.domains) lq ~order lq.Logical.edges.(e))
      node.pbag.Ghd.bag_edges
  in
  let rels = Array.of_list (bases @ derived) in
  (* Code sources: every gitem carried by some relation of this node. *)
  let code_sources =
    List.concat
      (List.mapi
         (fun ri (r : xrel) ->
           List.mapi (fun cp item -> (item, From_rel (ri, cp))) (Array.to_list r.xcode_items))
         (Array.to_list rels))
  in
  let gb, appended_items =
    match role with
    | Child iface ->
        ( Array.of_list
            (List.map (fun v -> From_pos (pos_of order v)) iface @ List.map snd code_sources),
          Array.of_list (List.map fst code_sources) )
    | Root ->
        (* GROUP BY items in order: keys read their position, annotations
           the last relation carrying them. *)
        let carried = List.rev code_sources in
        ( Array.mapi
            (fun i g ->
              match g with
              | Logical.Group_key v -> From_pos (pos_of order v)
              | Logical.Group_ann _ -> (
                  match List.assoc_opt i carried with
                  | Some src -> src
                  | None -> failwith "Executor: GROUP BY annotation not carried by any relation"))
            lq.Logical.group_by,
          [||] )
  in
  let nslots_x, srs_x, coeffs_x = slot_arrays lq ~with_pseudo:(role <> Root) in
  let adds_x, muls_x, zeros_x, scales_x, opaque_x = slot_ops srs_x in
  let npos = List.length order in
  (* Sorted-emit eligibility (root only): the group sources are exactly
     the positions 0..m-1 in walk order, optionally followed by the last
     position (the relaxed tail). *)
  let boundary, relaxed_tail, spa_bound =
    let positions =
      Array.to_list gb |> List.map (function From_pos p -> Some p | From_rel _ -> None)
    in
    if role <> Root || (not cfg.Config.sorted_emit) || List.exists Option.is_none positions
    then (None, false, -1)
    else
      let actual = List.map Option.get positions in
      let m = List.length actual in
      if actual = List.init m Fun.id then (Some m, false, -1)
      else if npos >= 2 && m >= 1 && actual = List.init (m - 1) Fun.id @ [ npos - 1 ] then begin
        let bound =
          Array.fold_left
            (fun acc (r : xrel) ->
              match List.find_index (( = ) (npos - 1)) r.xlevels with
              | Some l -> max acc r.xtrie.Trie.level_max.(l)
              | None -> acc)
            0 rels
        in
        (Some (m - 1), true, bound)
      end
      else (None, false, -1)
  in
  let kmode = leaf_mode rels ~npos ~srs:srs_x ~gb ~boundary ~relaxed_tail in
  let input =
    {
      rels;
      npos;
      nslots_x;
      srs_x;
      coeffs_x;
      adds_x;
      muls_x;
      zeros_x;
      scales_x;
      opaque_x;
      gb;
      boundary;
      spa_bound;
      relaxed_tail;
      kmode;
    }
  in
  let rows =
    Obs.span "wcoj.bag"
      ~args:
        [ ("rels", string_of_int (Array.length rels)); ("positions", string_of_int npos) ]
      (fun () -> exec_bag cfg input)
  in
  (rows, appended_items, kmode)

let run cfg lq root =
  let rows, _, kmode = run_bag cfg lq root ~role:Root in
  (rows, kmode)

(* ------------------------------------------------------------------ *)
(* Scan path: no vertices (e.g. TPC-H Q1 and Q6)                        *)

module Codes_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash = Hashtbl.hash
end)

(* Bits needed for values in [0, v]; [v] is negative when a range
   overflowed. *)
let rec width v = if v < 0 then Sys.int_size else if v = 0 then 0 else 1 + width (v lsr 1)

let run_scan cfg (lq : Logical.t) =
  (match Array.length lq.Logical.edges with
  | 1 -> ()
  | _ -> failwith "Executor.run_scan: scan path requires exactly one relation");
  let edge = lq.Logical.edges.(0) in
  let table = edge.Logical.table in
  let resolve = table_resolver edge.Logical.alias table in
  let gitems = alias_gitems lq edge.Logical.alias in
  (* Every gitem must belong to this relation (there is only one). *)
  if List.length gitems <> Array.length lq.Logical.group_by then
    failwith "Executor.run_scan: GROUP BY key on a scan query";
  let ng = List.length gitems in
  let codes = Array.init ng (fun _ -> Array.make Compile.chunk 0) in
  let code_fns =
    Array.of_list (List.mapi (fun g (_, e) -> Compile.code table ~resolve e codes.(g)) gitems)
  in
  let nslots = Array.length lq.Logical.slots in
  let srs = Array.map (fun (s : Logical.slot) -> s.Logical.sr) lq.Logical.slots in
  let coeffs = Array.map (fun (s : Logical.slot) -> s.Logical.coeff) lq.Logical.slots in
  let vals = Array.init nslots (fun _ -> Array.create_float Compile.chunk) in
  let slot_fns =
    Array.mapi
      (fun j (s : Logical.slot) ->
        match s.Logical.owners with
        | [] -> None
        | [ (_, e) ] -> Some (Compile.scalar table ~resolve e vals.(j))
        | _ -> failwith "Executor.run_scan: multi-relation slot on a scan query")
      lq.Logical.slots
  in
  (* Per group: its codes (newest first) and, per slot, its accumulator. *)
  let group_codes = ref [] and ngroups = ref 0 and capacity = ref 64 in
  let zeros = Array.map (fun sr -> sr.Semiring.zero) srs in
  let accs = Array.map (fun z -> Array.make !capacity z) zeros in
  let new_group key =
    let id = !ngroups in
    if id = !capacity then begin
      capacity := 2 * id;
      Array.iteri
        (fun j a ->
          let b = Array.make (2 * id) zeros.(j) in
          Array.blit a 0 b 0 id;
          accs.(j) <- b)
        accs
    end;
    group_codes := key :: !group_codes;
    incr ngroups;
    id
  in
  (* Group ids. The first chunk fixes each item's range [lo, lo + 2^bits);
     when the ranges pack into [direct_bits], a row whose codes all fall in
     them finds its id in [direct] under one packed int. Other rows hash
     their codes (through [scratch]). A code tuple always takes the same
     one of the two, so each group has one id. *)
  let direct_bits = 16 and lo = Array.make ng 0 and bits = Array.make ng 0 in
  let direct = ref [||] and hashed = Codes_tbl.create 64 and scratch = Array.make ng 0 in
  let fix_ranges n =
    for g = 0 to ng - 1 do
      let c = Array.sub codes.(g) 0 n in
      lo.(g) <- Array.fold_left Int.min max_int c;
      bits.(g) <- width (Array.fold_left Int.max min_int c - lo.(g))
    done;
    let nbits = Array.fold_left ( + ) 0 bits in
    if nbits <= direct_bits then direct := Array.make (1 lsl nbits) (-1)
  in
  (* The packed key of chunk position [p], or -1 when a code is out of range. *)
  let packed p =
    let key = ref 0 in
    for g = 0 to ng - 1 do
      let c = codes.(g).(p) - lo.(g) in
      key := if !key < 0 || c < 0 || c lsr bits.(g) <> 0 then -1 else (!key lsl bits.(g)) lor c
    done;
    !key
  in
  let group_id p =
    let d = !direct in
    let key = if Array.length d = 0 then -1 else packed p in
    if key >= 0 then begin
      if d.(key) < 0 then d.(key) <- new_group (Array.init ng (fun g -> codes.(g).(p)));
      d.(key)
    end
    else begin
      for g = 0 to ng - 1 do
        scratch.(g) <- codes.(g).(p)
      done;
      match Codes_tbl.find hashed scratch with
      | id -> id
      | exception Not_found ->
          let key = Array.copy scratch in
          let id = new_group key in
          Codes_tbl.replace hashed key id;
          id
    end
  in
  let ids = Array.make Compile.chunk 0 and sums = Array.map Semiring.is_sum_product srs in
  let budget = cfg.Config.budget and kept = ref 0 in
  each_chunk edge (fun sel n ->
      Lh_fault.Fault.hit fault_scan;
      (* One budget check per 4096 kept rows, at rows 0, 4096, ... *)
      if (!kept - 1) asr 12 <> (!kept + n - 1) asr 12 then begin
        Obs.incr c_budget_ticks;
        Lh_util.Budget.check budget
      end;
      kept := !kept + n;
      Array.iter (fun f -> f sel n) code_fns;
      if !ngroups = 0 then fix_ranges n;
      for p = 0 to n - 1 do
        ids.(p) <- group_id p
      done;
      (* Each slot folds its rows in row order: acc ⊕ (coeff ⊗ value), or
         acc ⊕ coeff for a slot no relation owns. *)
      for j = 0 to nslots - 1 do
        let v = vals.(j) and a = accs.(j) and c = coeffs.(j) and sr = srs.(j) in
        (match slot_fns.(j) with
        | None -> Array.fill v 0 n c
        | Some f ->
            f sel n;
            if sums.(j) then
              for p = 0 to n - 1 do
                v.(p) <- c *. v.(p)
              done
            else
              for p = 0 to n - 1 do
                v.(p) <- sr.Semiring.mul c v.(p)
              done);
        if sums.(j) then
          for p = 0 to n - 1 do
            a.(ids.(p)) <- a.(ids.(p)) +. v.(p)
          done
        else
          for p = 0 to n - 1 do
            a.(ids.(p)) <- sr.Semiring.add a.(ids.(p)) v.(p)
          done
      done);
  Obs.add c_scan_rows !kept;
  if ng = 0 && !ngroups = 0 then [ { gcodes = [||]; slots = Array.copy zeros } ]
  else
    List.rev !group_codes
    |> List.mapi (fun g gcodes -> { gcodes; slots = Array.map (fun a -> a.(g)) accs })
    |> List.sort (fun a b -> compare a.gcodes b.gcodes)

let pp_plan (lq : Logical.t) fmt root =
  let vname v = lq.Logical.vertices.(v).Logical.vname in
  let rec go indent (n : pnode) =
    Format.fprintf fmt "%sorder: [%s]%s cost: %g; rels: %s@," indent
      (String.concat ", " (List.map vname n.porder))
      (if n.prelaxed then " (relaxed)" else "")
      n.pcost
      (String.concat ", "
         (List.map (fun e -> lq.Logical.edges.(e).Logical.alias) n.pbag.Ghd.bag_edges));
    List.iter (go (indent ^ "  ")) n.pchildren
  in
  Format.fprintf fmt "@[<v>";
  go "" root;
  Format.fprintf fmt "@]"
