module T = Lh_storage.Table
module Schema = Lh_storage.Schema
module Obs = Lh_obs.Obs
open Lh_sql

let c_dispatch = Obs.counter "blas.dispatch"
let g_domains = Obs.gauge "exec.domains_used"
let fault_dispatch = Lh_fault.Fault.site "blas.dispatch"
let h_kernel = Lh_obs.Hist.histogram "phase.blas_kernel"

type dense_info = { dkey_cols : int list; dims : int array }

let dense_rect (table : T.t) =
  let keys = Schema.key_indices table.T.schema in
  match keys with
  | ([ _ ] | [ _; _ ]) when table.T.nrows > 0 ->
      let cols = List.map (T.icol table) keys in
      let dims =
        List.map (fun c -> 1 + Array.fold_left max 0 c) cols |> Array.of_list
      in
      let product = Array.fold_left ( * ) 1 dims in
      if product <> table.T.nrows then None
      else begin
        (* Every grid point must occur exactly once. *)
        let seen = Bytes.make product '\000' in
        let ok = ref true in
        (try
           for r = 0 to table.T.nrows - 1 do
             let idx =
               List.fold_left2 (fun acc c d -> (acc * d) + c.(r)) 0 cols (Array.to_list dims)
             in
             if Bytes.get seen idx <> '\000' then begin
               ok := false;
               raise Exit
             end;
             Bytes.set seen idx '\001'
           done
         with Exit -> ());
        if !ok then Some { dkey_cols = keys; dims } else None
      end
  | _ -> None

(* Extract the float annotation buffer of [edge] as a dense matrix with
   rows indexed by [row_v] and columns by [col_v] (vertex ids). *)
let to_dense (edge : Logical.edge) (info : dense_info) ~value_col ~row_v ~col_v =
  let table = edge.Logical.table in
  let values = T.fcol table value_col in
  let rcol = List.assoc row_v edge.Logical.vertex_cols in
  let ccol = List.assoc col_v edge.Logical.vertex_cols in
  let extent c =
    let rec go ks ds = match (ks, ds) with
      | k :: _, d :: _ when k = c -> d
      | _ :: ks, _ :: ds -> go ks ds
      | _ -> invalid_arg "Blas_bridge.to_dense: column not a key"
    in
    go info.dkey_cols (Array.to_list info.dims)
  in
  let rows = extent rcol and cols = extent ccol in
  (* When the table is already laid out row-major in (row, col) order the
     value buffer is BLAS-compatible as-is: no data transformation. *)
  let rs = T.icol table rcol and cs = T.icol table ccol in
  let row_major =
    info.dkey_cols = [ rcol; ccol ]
    && (let ok = ref true in
        (try
           for r = 0 to table.T.nrows - 1 do
             if (rs.(r) * cols) + cs.(r) <> r then begin
               ok := false;
               raise Exit
             end
           done
         with Exit -> ());
        !ok)
  in
  if row_major then Lh_blas.Dense.of_array ~rows ~cols values
  else begin
    let m = Lh_blas.Dense.create ~rows ~cols in
    for r = 0 to table.T.nrows - 1 do
      Lh_blas.Dense.set m rs.(r) cs.(r) values.(r)
    done;
    m
  end

let to_vector (edge : Logical.edge) ~value_col ~v =
  let table = edge.Logical.table in
  let values = T.fcol table value_col in
  let kcol = List.assoc v edge.Logical.vertex_cols in
  let ks = T.icol table kcol in
  let n = 1 + Array.fold_left max 0 ks in
  let out = Array.make n 0.0 in
  for r = 0 to table.T.nrows - 1 do
    out.(ks.(r)) <- values.(r)
  done;
  out

(* The value expression of one owner must be a plain float column. *)
let plain_float_col (edge : Logical.edge) = function
  | Ast.Col c -> (
      match Schema.find edge.Logical.table.T.schema c.Ast.column with
      | Some i
        when (Schema.col edge.Logical.table.T.schema i).Schema.dtype = Lh_storage.Dtype.Float
             && not (Schema.is_key edge.Logical.table.T.schema i) ->
          Some i
      | _ -> None)
  | _ -> None

type kernel =
  | Kmm of {
      e1 : Logical.edge; i1 : dense_info; c1 : int; i_v : int;
      e2 : Logical.edge; i2 : dense_info; c2 : int; j_v : int;
      k : int; first_is_i : bool;
    }
  | Kmv of { e1 : Logical.edge; i1 : dense_info; c1 : int; i_v : int; e2 : Logical.edge; c2 : int; k : int }
  | Kvm of { e1 : Logical.edge; c1 : int; e2 : Logical.edge; i2 : dense_info; c2 : int; j_v : int; k : int }

let describe kernel =
  let n (e : Logical.edge) = e.Logical.table.T.name in
  match kernel with
  | Kmm { e1; e2; _ } -> Printf.sprintf "gemm(%s, %s)" (n e1) (n e2)
  | Kmv { e1; e2; _ } -> Printf.sprintf "gemv(%s, %s)" (n e1) (n e2)
  | Kvm { e1; e2; _ } -> Printf.sprintf "gemv_t(%s, %s)" (n e1) (n e2)

let vertex_extent (edge : Logical.edge) (info : dense_info) v =
  match List.assoc_opt v edge.Logical.vertex_cols with
  | None -> None
  | Some c ->
      let rec go ks ds =
        match (ks, ds) with
        | k :: _, d :: _ when k = c -> Some d
        | _ :: ks, _ :: ds -> go ks ds
        | _ -> None
      in
      go info.dkey_cols (Array.to_list info.dims)

let match_kernel (lq : Logical.t) ~dense_of =
  let ( let* ) o f = Option.bind o f in
  let* () = if Array.length lq.Logical.edges = 2 then Some () else None in
  let e1 = lq.Logical.edges.(0) and e2 = lq.Logical.edges.(1) in
  let* () = if e1.Logical.filter = None && e2.Logical.filter = None then Some () else None in
  let* i1 = dense_of e1.Logical.table in
  let* i2 = dense_of e2.Logical.table in
  (* Exactly one SUM slot owned by both relations via plain float columns. *)
  let* slot = if Array.length lq.Logical.slots = 1 then Some lq.Logical.slots.(0) else None in
  let* () = if Semiring.is_sum_product slot.Logical.sr then Some () else None in
  let* c1 =
    let* e = List.assoc_opt e1.Logical.alias slot.Logical.owners in
    plain_float_col e1 e
  in
  let* c2 =
    let* e = List.assoc_opt e2.Logical.alias slot.Logical.owners in
    plain_float_col e2 e
  in
  let* () = if List.length slot.Logical.owners = 2 then Some () else None in
  (* All GROUP BY items are key vertices. *)
  let* gkeys =
    Array.to_list lq.Logical.group_by
    |> List.map (function Logical.Group_key v -> Some v | Logical.Group_ann _ -> None)
    |> fun l -> if List.for_all Option.is_some l then Some (List.map Option.get l) else None
  in
  let v1 = e1.Logical.vertices and v2 = e2.Logical.vertices in
  let shared = List.filter (fun v -> List.mem v v2) v1 in
  let* k = match shared with [ k ] -> Some k | _ -> None in
  let* () = if List.mem k gkeys then None else Some () in
  (* Both sides must be dense over the {e same} contraction range: a
     kernel contracts index-for-index, but the join semantics restrict to
     the intersection of the key ranges. Unequal extents fall back to the
     WCOJ path rather than compute the wrong (or no) answer. *)
  let* d1 = vertex_extent e1 i1 k in
  let* d2 = vertex_extent e2 i2 k in
  let* () = if d1 = d2 then Some () else None in
  match (List.length v1, List.length v2, gkeys) with
  | 2, 2, [ g1; g2 ] ->
      (* DMM: orientation by which edge owns which group key. *)
      let own1 = List.filter (fun v -> v <> k) v1 and own2 = List.filter (fun v -> v <> k) v2 in
      let* i_v = match own1 with [ v ] -> Some v | _ -> None in
      let* j_v = match own2 with [ v ] -> Some v | _ -> None in
      let* () =
        if List.sort compare [ g1; g2 ] = List.sort compare [ i_v; j_v ] then Some () else None
      in
      Some (Kmm { e1; i1; c1; i_v; e2; i2; c2; j_v; k; first_is_i = g1 = i_v })
  | 2, 1, [ g ] ->
      (* DMV: e1 is the matrix, e2 the vector over the shared vertex. *)
      let* i_v = match List.filter (fun v -> v <> k) v1 with [ v ] -> Some v | _ -> None in
      let* () = if g = i_v then Some () else None in
      Some (Kmv { e1; i1; c1; i_v; e2; c2; k })
  | 1, 2, [ g ] ->
      (* Vector on the left: x' = vec, matrix = e2; compute y_j = Σ_k x_k B_kj. *)
      let* j_v = match List.filter (fun v -> v <> k) v2 with [ v ] -> Some v | _ -> None in
      let* () = if g = j_v then Some () else None in
      Some (Kvm { e1; c1; e2; i2; c2; j_v; k })
  | _ -> None

let execute ?(domains = 1) ?(budget = Lh_util.Budget.unlimited) kernel =
  Obs.incr c_dispatch;
  Lh_fault.Fault.hit fault_dispatch;
  Obs.set_max g_domains domains;
  let kname = match kernel with Kmm _ -> "gemm" | Kmv _ -> "gemv" | Kvm _ -> "gemv_t" in
  Obs.span "blas.kernel" ~args:[ ("kernel", kname) ]
    ~record:(Lh_obs.Hist.observe_always h_kernel)
  @@ fun () ->
  match kernel with
  | Kmm { e1; i1; c1; i_v; e2; i2; c2; j_v; k; first_is_i } ->
      let a = to_dense e1 i1 ~value_col:c1 ~row_v:i_v ~col_v:k in
      let b = to_dense e2 i2 ~value_col:c2 ~row_v:k ~col_v:j_v in
      let c = Lh_blas.Dense.gemm ~domains ~budget a b in
      (* Key production (the paper's <2% overhead): emit group codes in
         GROUP BY lexicographic order. *)
      let rows = ref [] in
      let d1 = if first_is_i then a.Lh_blas.Dense.rows else c.Lh_blas.Dense.cols in
      let d2 = if first_is_i then c.Lh_blas.Dense.cols else a.Lh_blas.Dense.rows in
      for x = d1 - 1 downto 0 do
        for y = d2 - 1 downto 0 do
          let i, j = if first_is_i then (x, y) else (y, x) in
          rows := { Executor.gcodes = [| x; y |]; slots = [| Lh_blas.Dense.get c i j |] } :: !rows
        done
      done;
      !rows
  | Kmv { e1; i1; c1; i_v; e2; c2; k } ->
      let a = to_dense e1 i1 ~value_col:c1 ~row_v:i_v ~col_v:k in
      let x = to_vector e2 ~value_col:c2 ~v:k in
      if Array.length x <> a.Lh_blas.Dense.cols then
        failwith "Blas_bridge: vector/matrix dimension mismatch";
      let y = Lh_blas.Dense.gemv ~domains ~budget a x in
      List.init (Array.length y) (fun i -> { Executor.gcodes = [| i |]; slots = [| y.(i) |] })
  | Kvm { e1; c1; e2; i2; c2; j_v; k } ->
      let b = to_dense e2 i2 ~value_col:c2 ~row_v:k ~col_v:j_v in
      let x = to_vector e1 ~value_col:c1 ~v:k in
      if Array.length x <> b.Lh_blas.Dense.rows then
        failwith "Blas_bridge: vector/matrix dimension mismatch";
      let bt = Lh_blas.Dense.transpose b in
      let y = Lh_blas.Dense.gemv ~domains ~budget bt x in
      List.init (Array.length y) (fun j -> { Executor.gcodes = [| j |]; slots = [| y.(j) |] })
