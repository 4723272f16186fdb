(* The paper's benchmark queries (§VI), with the literals Q1/Q3/Q5/Q6/Q10
   vary pulled out as parameters. Same shapes as bench/queries.ml:
   ORDER BY dropped, Q8/Q9 flattened. *)

let q1 ~delta_days =
  Printf.sprintf
    "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as \
     sum_base_price, sum(l_extendedprice*(1-l_discount)) as sum_disc_price, \
     sum(l_extendedprice*(1-l_discount)*(1+l_tax)) as sum_charge, avg(l_quantity) as avg_qty, \
     avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order \
     from lineitem where l_shipdate <= date '1998-12-01' - interval '%d' day group by \
     l_returnflag, l_linestatus"
    delta_days

let q3_days = [ "1995-03-05"; "1995-03-10"; "1995-03-15"; "1995-03-20"; "1995-03-25" ]

let q3 ~segment ~date =
  Printf.sprintf
    "select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue, o_orderdate, \
     o_shippriority from customer, orders, lineitem where c_mktsegment = '%s' and c_custkey = \
     o_custkey and l_orderkey = o_orderkey and o_orderdate < date '%s' and l_shipdate > date \
     '%s' group by l_orderkey, o_orderdate, o_shippriority"
    segment date date

let q5 ~region ~year =
  Printf.sprintf
    "select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue from customer, orders, \
     lineitem, supplier, nation, region where c_custkey = o_custkey and l_orderkey = o_orderkey \
     and l_suppkey = s_suppkey and c_nationkey = s_nationkey and s_nationkey = n_nationkey and \
     n_regionkey = r_regionkey and r_name = '%s' and o_orderdate >= date '%d-01-01' and \
     o_orderdate < date '%d-01-01' group by n_name"
    region year (year + 1)

let q6_text lo hi dlo dhi qty =
  Printf.sprintf
    "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= %s \
     and l_shipdate < %s and l_discount between %s and %s and l_quantity < %s"
    lo hi dlo dhi qty

(* The one shape served through prepare/exec, and its parameters as
   exec arguments (dates bare: lhserve reads them as dates). *)
let q6_prepared = q6_text "$1" "$2" "$3" "$4" "$5"

let q6_params ~year ~discount ~quantity =
  [
    Printf.sprintf "%d-01-01" year;
    Printf.sprintf "%d-01-01" (year + 1);
    Printf.sprintf "%.2f" (discount -. 0.01);
    Printf.sprintf "%.2f" (discount +. 0.01);
    Printf.sprintf "%d.0" quantity;
  ]

let q6 ~year ~discount ~quantity =
  match q6_params ~year ~discount ~quantity with
  | [ lo; hi; dlo; dhi; qty ] ->
      q6_text (Printf.sprintf "date '%s'" lo) (Printf.sprintf "date '%s'" hi) dlo dhi qty
  | _ -> assert false

let q8 =
  "select extract(year from o_orderdate) as o_year, sum(case when n2.n_name = 'BRAZIL' then \
   l_extendedprice * (1 - l_discount) else 0 end) as brazil_volume, sum(l_extendedprice * (1 - \
   l_discount)) as total_volume from part, supplier, lineitem, orders, customer, nation n1, \
   nation n2, region where p_partkey = l_partkey and s_suppkey = l_suppkey and l_orderkey = \
   o_orderkey and o_custkey = c_custkey and c_nationkey = n1.n_nationkey and n1.n_regionkey = \
   r_regionkey and r_name = 'AMERICA' and s_nationkey = n2.n_nationkey and o_orderdate between \
   date '1995-01-01' and date '1996-12-31' and p_type = 'ECONOMY ANODIZED STEEL' group by \
   extract(year from o_orderdate)"

let q9 =
  "select n_name as nation, extract(year from o_orderdate) as o_year, sum(l_extendedprice * (1 \
   - l_discount) - ps_supplycost * l_quantity) as sum_profit from part, supplier, lineitem, \
   partsupp, orders, nation where s_suppkey = l_suppkey and ps_suppkey = l_suppkey and \
   ps_partkey = l_partkey and p_partkey = l_partkey and o_orderkey = l_orderkey and s_nationkey \
   = n_nationkey and p_name like '%green%' group by n_name, extract(year from o_orderdate)"

let q10_quarters = [ ("1993-07-01", "1993-10-01"); ("1993-10-01", "1994-01-01");
                     ("1994-01-01", "1994-04-01"); ("1994-04-01", "1994-07-01") ]

let q10 ~quarter:(lo, hi) =
  Printf.sprintf
    "select c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) as revenue, c_acctbal, \
     n_name, c_address, c_phone from customer, orders, lineitem, nation where c_custkey = \
     o_custkey and l_orderkey = o_orderkey and o_orderdate >= date '%s' and o_orderdate < date \
     '%s' and l_returnflag = 'R' and c_nationkey = n_nationkey group by c_custkey, c_name, \
     c_acctbal, c_phone, n_name, c_address"
    lo hi

let smv ~matrix ~vector =
  Printf.sprintf
    "select m.row, sum(m.v * x.v) as y from %s m, %s x where m.col = x.idx group by m.row" matrix
    vector

let smm ~matrix =
  Printf.sprintf
    "select m1.row, m2.col, sum(m1.v * m2.v) as v from %s m1, %s m2 where m1.col = m2.row group \
     by m1.row, m2.col"
    matrix matrix
