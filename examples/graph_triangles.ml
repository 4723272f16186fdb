(* Graph queries: where worst-case optimal joins have an asymptotic edge.

   Triangle counting is the canonical cyclic query (fhw = 1.5): a pairwise
   plan must materialize the full wedge set (paths of length 2) before
   closing it, which can be |E|^2 in the worst case, while the generic
   WCOJ runs in O(|E|^1.5). LevelHeaded's EmptyHeaded ancestry is exactly
   this workload (§I, §II). This example counts triangles in a synthetic
   power-law-ish graph with both LevelHeaded and the pairwise baseline.

     dune exec examples/graph_triangles.exe -- [nvertices] [nedges]
*)

module L = Levelheaded
module Table = Lh_storage.Table
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype

let edge_schema =
  Schema.create
    [ ("src", Dtype.Int, Schema.Key); ("dst", Dtype.Int, Schema.Key);
      ("w", Dtype.Float, Schema.Annotation) ]

(* A skewed undirected graph: endpoint sampling ~ 1/sqrt(u), giving the
   heavy hubs that blow pairwise plans up. *)
let generate ~nv ~ne ~seed =
  let rng = Lh_util.Prng.create seed in
  let pick () =
    let u = Lh_util.Prng.float rng 1.0 in
    int_of_float (float_of_int nv *. u *. u)
  in
  let seen = Hashtbl.create (2 * ne) in
  while Hashtbl.length seen < ne do
    let a = pick () and b = pick () in
    if a <> b then begin
      let lo = min a b and hi = max a b in
      Hashtbl.replace seen (lo, hi) ()
    end
  done;
  (* store both directions so the SQL join expresses an undirected closure *)
  let rows = Lh_util.Vec.Int.create () and cols = Lh_util.Vec.Int.create () in
  Hashtbl.iter
    (fun (a, b) () ->
      Lh_util.Vec.Int.push rows a;
      Lh_util.Vec.Int.push cols b;
      Lh_util.Vec.Int.push rows b;
      Lh_util.Vec.Int.push cols a)
    seen;
  let n = Lh_util.Vec.Int.length rows in
  (Lh_util.Vec.Int.to_array rows, Lh_util.Vec.Int.to_array cols, Array.make n 1.0)

let triangle_sql =
  (* each undirected triangle is counted 6 times (3 rotations x 2
     orientations); the query returns the raw closed-walk count *)
  "select count(*) as closed from edges e1, edges e2, edges e3 where e1.dst = e2.src and e2.dst \
   = e3.src and e3.dst = e1.src"

let () =
  let nv = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3000 in
  let ne = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 15000 in
  let eng = L.Engine.create () in
  let src, dst, w = generate ~nv ~ne ~seed:5 in
  L.Engine.register eng
    (Table.create ~name:"edges" ~schema:edge_schema ~dict:(L.Engine.dict eng)
       [| Table.Icol src; Table.Icol dst; Table.Fcol w |]);
  Printf.printf "graph: %d vertices, %d undirected edges\n\n" nv ne;

  let ex = L.Engine.explain eng triangle_sql in
  let t, dt = Lh_util.Timing.time (fun () -> L.Engine.query eng triangle_sql) in
  let closed =
    match Table.value t ~row:0 ~col:0 with Dtype.VInt n -> n | _ -> assert false
  in
  Printf.printf "LevelHeaded (WCOJ):      %8s   triangles = %d\n"
    (Lh_util.Timing.duration_to_string dt)
    (closed / 6);
  (match ex.L.Engine.efhw with
  | Some w -> Printf.printf "  plan: single-bag GHD, fhw = %g (the AGM bound gives O(|E|^%g))\n" w w
  | None -> ());

  (* the pairwise baseline materializes the wedge set *)
  let lookup n = L.Catalog.find_exn (L.Engine.catalog eng) n in
  let ast = Lh_sql.Parser.parse triangle_sql in
  let budget = Lh_util.Budget.create ~max_seconds:120.0 () in
  (match
     Lh_util.Timing.time (fun () ->
         Lh_baseline.Pairwise.query ~lookup ~mode:Lh_baseline.Pairwise.Pipelined ~budget ast)
   with
  | rows, dt2 ->
      (match rows with
      | [ [ Dtype.VInt n ] ] when n = closed -> ()
      | _ -> failwith "pairwise disagrees");
      Printf.printf "pairwise hash join:      %8s   (%.1fx slower)\n"
        (Lh_util.Timing.duration_to_string dt2)
        (dt2 /. dt)
  | exception Lh_util.Budget.Timed_out ->
      Printf.printf "pairwise hash join:      timed out (wedge explosion)\n")
