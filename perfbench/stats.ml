(* Order statistics and the result line. *)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile 0.5 xs

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ms s = s *. 1000.0

(* A named figure: value, unit, and the number of samples behind it. *)
type metric = { m_name : string; m_value : float; m_unit : string; m_samples : int }

let metric name unit ~samples value =
  { m_name = name; m_value = value; m_unit = unit; m_samples = samples }

let print_human ~workload metrics =
  List.iter
    (fun m ->
      Printf.printf "%s %-28s %14.6f %-6s (n=%d)\n" workload m.m_name m.m_value m.m_unit
        m.m_samples)
    metrics

(* The last stdout line: exactly correct/attempted/failed/metrics. *)
let print_result ~correct ~attempted ~failed metrics =
  let module J = Lh_obs.Json in
  List.iter
    (fun m -> if not (Float.is_finite m.m_value) then failwith (m.m_name ^ " is not a number"))
    metrics;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun m ->
                     (m.m_name, J.Obj [ ("value", J.Float m.m_value); ("unit", J.String m.m_unit) ]))
                   metrics) );
          ]))
