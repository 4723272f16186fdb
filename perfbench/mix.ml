(* The operation streams. Each workload's stream is a pure function of
   the seed, so the untraced run and the traced replay see the same
   operations in the same order. *)

module Prng = Lh_util.Prng
module Q = Queries

(* ---- analytics: Table II through the served path ---- *)

type family = Bi | La

type kind = { k_name : string; family : family }

(* One executable form of a kind: the SQL as sent, the prepared-statement
   parameters (Q6 only), and the literal-inlined SQL the expected answer
   is computed from. *)
type variant = { sql : string; params : string list option; reference_sql : string }

let fixed sql = { sql; params = None; reference_sql = sql }

(* Candidate literals, chosen so every candidate costs about the same
   (same selectivity class); a seeded pool of [pool_size] is drawn from
   them and each round uses the next pool entry in turn, so every run
   sees its pool equally often. *)
let pool_size = 3

let segments = [| "BUILDING"; "AUTOMOBILE"; "MACHINERY"; "HOUSEHOLD"; "FURNITURE" |]
let regions = [| "ASIA"; "AMERICA"; "EUROPE"; "AFRICA"; "MIDDLE EAST" |]

let q1_candidates = List.map (fun d -> fixed (Q.q1 ~delta_days:d)) [ 60; 75; 90; 105; 120 ]

let q3_candidates =
  List.concat_map
    (fun seg -> List.map (fun day -> fixed (Q.q3 ~segment:seg ~date:day)) Q.q3_days)
    (Array.to_list segments)

let q5_candidates =
  List.concat_map
    (fun r -> List.map (fun y -> fixed (Q.q5 ~region:r ~year:y)) [ 1993; 1994; 1995; 1996 ])
    (Array.to_list regions)

let q6_candidates =
  List.concat_map
    (fun year ->
      List.map
        (fun (disc, qty) ->
          let params = Q.q6_params ~year ~discount:disc ~quantity:qty in
          { sql = Q.q6_prepared; params = Some params; reference_sql = Q.q6 ~year ~discount:disc ~quantity:qty })
        [ (0.05, 24); (0.06, 24); (0.06, 25); (0.07, 25) ])
    [ 1993; 1994; 1995; 1996 ]

let q10_candidates = List.map (fun q -> fixed (Q.q10 ~quarter:q)) Q.q10_quarters

let analytics_kinds =
  [
    ({ k_name = "Q1"; family = Bi }, `Pool q1_candidates);
    ({ k_name = "Q3"; family = Bi }, `Pool q3_candidates);
    ({ k_name = "Q5"; family = Bi }, `Pool q5_candidates);
    ({ k_name = "Q6"; family = Bi }, `Pool q6_candidates);
    ({ k_name = "Q8"; family = Bi }, `Fixed Q.q8);
    ({ k_name = "Q9"; family = Bi }, `Fixed Q.q9);
    ({ k_name = "Q10"; family = Bi }, `Pool q10_candidates);
    ({ k_name = "SMV"; family = La }, `Fixed (Q.smv ~matrix:"harbor" ~vector:"harbor_x"));
    ({ k_name = "SMM"; family = La }, `Fixed (Q.smm ~matrix:"band"));
    ({ k_name = "DMV"; family = La }, `Fixed (Q.smv ~matrix:"dense" ~vector:"dense_x"));
    ({ k_name = "DMM"; family = La }, `Fixed (Q.smm ~matrix:"dense"));
  ]

type analytics = { kinds : (kind * variant array) array; round_seed : int }

let analytics ~seed =
  let rng = Prng.create (seed * 31 + 5) in
  let kinds =
    Array.of_list
      (List.map
         (fun (k, v) ->
           match v with
           | `Fixed sql -> (k, [| fixed sql |])
           | `Pool cands ->
               let a = Array.of_list cands in
               Prng.shuffle rng a;
               (k, Array.sub a 0 pool_size))
         analytics_kinds)
  in
  { kinds; round_seed = seed }

(* Round [r]: every kind once, in a seeded shuffled order, each pooled
   kind on its pool entry [r mod pool_size]. Returns (kind index, variant
   index) pairs. *)
let round a r =
  let order = Array.init (Array.length a.kinds) Fun.id in
  Prng.shuffle (Prng.create ((a.round_seed * 1_000_003) + r)) order;
  Array.to_list
    (Array.map (fun k -> (k, r mod Array.length (snd a.kinds.(k)))) order)

(* ---- serving workloads (ingest, concurrent) ---- *)

type serving_query = Q3 | Smv | Side_join

let serving_query_name = function Q3 -> "Q3" | Smv -> "SMV" | Side_join -> "SIDE"
let serving_family = function Q3 | Side_join -> Bi | Smv -> La

let q3_fixed = Q.q3 ~segment:"BUILDING" ~date:"1995-03-15"
let q6_fixed = Q.q6 ~year:1994 ~discount:0.06 ~quantity:24
let smv_fixed = Q.smv ~matrix:"harbor" ~vector:"harbor_x"

(* Ingest workload, op [i] (after the four set-up ingests g = 0..3):
   ingest g = i + 4, then one query — even ops on the pinned report
   session, odd ops on the unpinned dashboard session. Query kinds come
   in seeded shuffled blocks of three, so each is a third of the mix. *)
let ingest_query ~seed i =
  let block = i / 3 in
  let order = [| Q3; Smv; Side_join |] in
  Prng.shuffle (Prng.create ((seed * 7_777) + block)) order;
  order.(i mod 3)

let repin_every = 16

(* Concurrent reader: Q3, Q6, SMV in seeded shuffled blocks. *)
type reader_query = R_q3 | R_q6 | R_smv

let reader_query_name = function R_q3 -> "Q3" | R_q6 -> "Q6" | R_smv -> "SMV"
let reader_family = function R_q3 | R_q6 -> Bi | R_smv -> La

let reader_sql = function R_q3 -> q3_fixed | R_q6 -> q6_fixed | R_smv -> smv_fixed

let reader_query ~seed i =
  let order = [| R_q3; R_q6; R_smv |] in
  Prng.shuffle (Prng.create ((seed * 9_973) + (i / 3))) order;
  order.(i mod 3)
