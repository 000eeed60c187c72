(** TPC-H queries 1-11 as logical plans over {!Tpch_gen.catalog}'s scans,
    each with its plaintext reference twin (the role SQLite plays in the
    paper's §5.1). A plan fixes the operators; {!Orq_planner.Compile}
    decides which steps run as fused tracks, which columns each operator
    carries and each join's copy list. Floats are pre-scaled integers and
    LIKE-patterns are (in)equalities, exactly as the paper's own TPC-H
    port does. *)

open Orq_planner.Plan
open Tpch_util
open Tpch_params
module G = Tpch_gen

(* The rows of [t] whose nation column [key] lies in [region]. *)
let in_region tbl region key t =
  tbl "nation"
  |> filter E.(col "n_regionkey" ==. const region)
  |> select [ ("n_nationkey", key) ]
  |> fun nations -> semi_join t nations ~on:[ key ]

(* ------------------------------------------------------------------ *)
(* Q1: pricing summary report                                          *)
(* ------------------------------------------------------------------ *)

let q1_plan (db : G.mpc) =
  scan (G.catalog db) "lineitem"
  |> filter E.(col "l_shipdate" <=. const q1_delta_date)
  |> map "disc_price" disc_price
  |> map "charge" E.(Div_pub (col "disc_price" *! (const 100 +! col "l_tax"), 100))
  |> aggregate
       ~keys:[ "l_returnflag"; "l_linestatus" ]
       ~aggs:
         [
           sum "l_quantity" "sum_qty";
           sum "l_extendedprice" "sum_base";
           sum "disc_price" "sum_disc_price";
           sum "charge" "sum_charge";
           avg "l_quantity" "avg_qty";
           cnt "l_quantity" "count_order";
         ]

let q1_ref (db : G.plain) =
  let li =
    P.filter db.G.lineitem (fun g r -> g "l_shipdate" r <= q1_delta_date)
  in
  let li =
    P.map li ~dst:"disc_price" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  let li =
    P.map li ~dst:"charge" (fun g r ->
        g "disc_price" r * (100 + g "l_tax" r) / 100)
  in
  P.group_by li
    ~keys:[ "l_returnflag"; "l_linestatus" ]
    ~aggs:
      [
        psum "l_quantity" "sum_qty";
        psum "l_extendedprice" "sum_base";
        psum "disc_price" "sum_disc_price";
        psum "charge" "sum_charge";
        pavg "l_quantity" "avg_qty";
        pcnt "l_quantity" "count_order";
      ]

let q1_cols =
  [
    "l_returnflag";
    "l_linestatus";
    "sum_qty";
    "sum_base";
    "sum_disc_price";
    "sum_charge";
    "avg_qty";
    "count_order";
  ]

(* ------------------------------------------------------------------ *)
(* Q2: minimum-cost supplier                                           *)
(* ------------------------------------------------------------------ *)

let q2_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let supp = in_region tbl q2_region "s_nationkey" (tbl "supplier") in
  let ps =
    semi_join (tbl "partsupp") (select [ ("s_suppkey", "ps_suppkey") ] supp) ~on:[ "ps_suppkey" ]
  in
  let parts =
    tbl "part"
    |> filter E.(col "p_size" <=. const q2_size &&. (col "p_type" <=. const q2_type))
    |> select [ ("p_partkey", "ps_partkey") ]
  in
  let j = join parts ps ~on:[ "ps_partkey" ] in
  let mins = aggregate ~keys:[ "ps_partkey" ] ~aggs:[ mn "ps_supplycost" "min_cost" ] j in
  join mins j ~on:[ "ps_partkey" ] |> filter E.(col "ps_supplycost" ==. col "min_cost")

let q2_ref (db : G.plain) =
  let nation_r =
    P.filter db.G.nation (fun g r -> g "n_regionkey" r = q2_region)
  in
  let supp =
    P.semi_join db.G.supplier
      (pselect nation_r [ ("n_nationkey", "s_nationkey") ])
      ~on:[ "s_nationkey" ]
  in
  let ps =
    P.semi_join db.G.partsupp
      (pselect supp [ ("s_suppkey", "ps_suppkey") ])
      ~on:[ "ps_suppkey" ]
  in
  let parts =
    P.filter db.G.part (fun g r ->
        g "p_size" r <= q2_size && g "p_type" r <= q2_type)
  in
  let parts = pselect parts [ ("p_partkey", "ps_partkey") ] in
  let j = P.inner_join parts ps ~on:[ "ps_partkey" ] in
  let mins =
    P.group_by j ~keys:[ "ps_partkey" ] ~aggs:[ pmn "ps_supplycost" "min_cost" ]
  in
  let j2 = P.inner_join mins j ~on:[ "ps_partkey" ] in
  P.filter j2 (fun g r -> g "ps_supplycost" r = g "min_cost" r)

let q2_cols = [ "ps_partkey"; "ps_suppkey"; "min_cost" ]

(* ------------------------------------------------------------------ *)
(* Q3: shipping priority (Listing 1)                                   *)
(* ------------------------------------------------------------------ *)

let q3_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let co =
    join
      (tbl "customer"
      |> filter E.(col "c_mktsegment" ==. const q3_segment)
      |> select [ ("c_custkey", "o_custkey") ])
      (filter E.(col "o_orderdate" <. const q3_date) (tbl "orders"))
      ~on:[ "o_custkey" ]
  in
  let li =
    tbl "lineitem"
    |> filter E.(col "l_shipdate" >. const q3_date)
    |> map "revenue" disc_price
  in
  (* GROUP BY the join key and two columns of its unique side: the
     revenue sums run inside the join *)
  join
    (select
       [
         ("o_orderkey", "l_orderkey");
         ("o_orderdate", "o_orderdate");
         ("o_shippriority", "o_shippriority");
       ]
       co)
    li ~on:[ "l_orderkey" ]
  |> aggregate
       ~keys:[ "l_orderkey"; "o_orderdate"; "o_shippriority" ]
       ~aggs:[ sum "revenue" "total_revenue" ]
  |> top [ ("total_revenue", D.Desc); ("o_orderdate", D.Asc) ] 10

let q3_ref (db : G.plain) =
  let c = P.filter db.G.customer (fun g r -> g "c_mktsegment" r = q3_segment) in
  let o = P.filter db.G.orders (fun g r -> g "o_orderdate" r < q3_date) in
  let li = P.filter db.G.lineitem (fun g r -> g "l_shipdate" r > q3_date) in
  let li =
    P.map li ~dst:"revenue" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  let co =
    P.inner_join (pselect c [ ("c_custkey", "o_custkey") ]) o ~on:[ "o_custkey" ]
  in
  let j =
    P.inner_join
      (pselect co
         [
           ("o_orderkey", "l_orderkey");
           ("o_orderdate", "o_orderdate");
           ("o_shippriority", "o_shippriority");
         ])
      li
      ~on:[ "l_orderkey" ]
  in
  let agg =
    P.group_by j
      ~keys:[ "l_orderkey"; "o_orderdate"; "o_shippriority" ]
      ~aggs:[ psum "revenue" "total_revenue" ]
  in
  P.limit (P.sort agg [ ("total_revenue", -1); ("o_orderdate", 1) ]) 10

let q3_cols = [ "l_orderkey"; "o_orderdate"; "o_shippriority"; "total_revenue" ]

(* ------------------------------------------------------------------ *)
(* Q4: order priority checking (semi-join)                             *)
(* ------------------------------------------------------------------ *)

let q4_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  semi_join
    (filter
       E.(col "o_orderdate" >=. const q4_date &&. (col "o_orderdate" <. const (q4_date + 90)))
       (tbl "orders"))
    (tbl "lineitem"
    |> filter E.(col "l_commitdate" <. col "l_receiptdate")
    |> select [ ("l_orderkey", "o_orderkey") ])
    ~on:[ "o_orderkey" ]
  |> aggregate ~keys:[ "o_orderpriority" ] ~aggs:[ cnt "o_orderkey" "order_count" ]

let q4_ref (db : G.plain) =
  let o =
    P.filter db.G.orders (fun g r ->
        g "o_orderdate" r >= q4_date && g "o_orderdate" r < q4_date + 90)
  in
  let li =
    P.filter db.G.lineitem (fun g r -> g "l_commitdate" r < g "l_receiptdate" r)
  in
  let sem =
    P.semi_join o (pselect li [ ("l_orderkey", "o_orderkey") ]) ~on:[ "o_orderkey" ]
  in
  P.group_by sem ~keys:[ "o_orderpriority" ]
    ~aggs:[ pcnt "o_orderkey" "order_count" ]

let q4_cols = [ "o_orderpriority"; "order_count" ]

(* ------------------------------------------------------------------ *)
(* Q5: local supplier volume (5-way join)                              *)
(* ------------------------------------------------------------------ *)

let q5_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let supp = in_region tbl q5_region "s_nationkey" (tbl "supplier") in
  let li =
    join
      (select [ ("s_suppkey", "l_suppkey"); ("s_nationkey", "s_nationkey") ] supp)
      (tbl "lineitem") ~on:[ "l_suppkey" ]
  in
  let co =
    join
      (select [ ("c_custkey", "o_custkey"); ("c_nationkey", "c_nationkey") ] (tbl "customer"))
      (filter
         E.(col "o_orderdate" >=. const q5_date &&. (col "o_orderdate" <. const (q5_date + 365)))
         (tbl "orders"))
      ~on:[ "o_custkey" ]
  in
  join (select [ ("o_orderkey", "l_orderkey"); ("c_nationkey", "c_nationkey") ] co) li
    ~on:[ "l_orderkey" ]
  |> filter E.(col "c_nationkey" ==. col "s_nationkey")
  |> map "revenue" disc_price
  |> aggregate ~keys:[ "s_nationkey" ] ~aggs:[ sum "revenue" "revenue_sum" ]

let q5_ref (db : G.plain) =
  let nation_r =
    P.filter db.G.nation (fun g r -> g "n_regionkey" r = q5_region)
  in
  let supp =
    P.semi_join db.G.supplier
      (pselect nation_r [ ("n_nationkey", "s_nationkey") ])
      ~on:[ "s_nationkey" ]
  in
  let li =
    P.inner_join
      (pselect supp [ ("s_suppkey", "l_suppkey"); ("s_nationkey", "s_nationkey") ])
      db.G.lineitem ~on:[ "l_suppkey" ]
  in
  let o =
    P.filter db.G.orders (fun g r ->
        g "o_orderdate" r >= q5_date && g "o_orderdate" r < q5_date + 365)
  in
  let co =
    P.inner_join
      (pselect db.G.customer
         [ ("c_custkey", "o_custkey"); ("c_nationkey", "c_nationkey") ])
      o ~on:[ "o_custkey" ]
  in
  let j =
    P.inner_join
      (pselect co [ ("o_orderkey", "l_orderkey"); ("c_nationkey", "c_nationkey") ])
      li
      ~on:[ "l_orderkey" ]
  in
  let j = P.filter j (fun g r -> g "c_nationkey" r = g "s_nationkey" r) in
  let j =
    P.map j ~dst:"revenue" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  P.group_by j ~keys:[ "s_nationkey" ] ~aggs:[ psum "revenue" "revenue_sum" ]

let q5_cols = [ "s_nationkey"; "revenue_sum" ]

(* ------------------------------------------------------------------ *)
(* Q6: forecasting revenue change (no sorting at all)                  *)
(* ------------------------------------------------------------------ *)

let q6_plan (db : G.mpc) =
  scan (G.catalog db) "lineitem"
  |> filter
       E.(
         col "l_shipdate" >=. const q6_date
         &&. (col "l_shipdate" <. const (q6_date + 365))
         &&. (col "l_discount" >=. const (q6_discount - 1))
         &&. (col "l_discount" <=. const (q6_discount + 1))
         &&. (col "l_quantity" <. const q6_quantity))
  |> map "revenue" E.(Div_pub (col "l_extendedprice" *! col "l_discount", 100))
  |> global ~aggs:[ sum "revenue" "revenue_sum" ]

let q6_ref (db : G.plain) =
  let li =
    P.filter db.G.lineitem (fun g r ->
        g "l_shipdate" r >= q6_date
        && g "l_shipdate" r < q6_date + 365
        && g "l_discount" r >= q6_discount - 1
        && g "l_discount" r <= q6_discount + 1
        && g "l_quantity" r < q6_quantity)
  in
  let li =
    P.map li ~dst:"revenue" (fun g r ->
        g "l_extendedprice" r * g "l_discount" r / 100)
  in
  pglobal li ~aggs:[ psum "revenue" "revenue_sum" ]

let q6_cols = [ "revenue_sum" ]

(* ------------------------------------------------------------------ *)
(* Q7: volume shipping between two nations                             *)
(* ------------------------------------------------------------------ *)

let q7_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let li =
    join
      (select [ ("s_suppkey", "l_suppkey"); ("s_nationkey", "s_nationkey") ] (tbl "supplier"))
      (filter
         E.(col "l_shipdate" >=. const q7_date_lo &&. (col "l_shipdate" <=. const q7_date_hi))
         (tbl "lineitem"))
      ~on:[ "l_suppkey" ]
  in
  let co =
    join
      (select [ ("c_custkey", "o_custkey"); ("c_nationkey", "c_nationkey") ] (tbl "customer"))
      (tbl "orders") ~on:[ "o_custkey" ]
  in
  join (select [ ("o_orderkey", "l_orderkey"); ("c_nationkey", "c_nationkey") ] co) li
    ~on:[ "l_orderkey" ]
  |> filter
       E.(
         col "s_nationkey" ==. const q7_nation1
         &&. (col "c_nationkey" ==. const q7_nation2)
         ||. (col "s_nationkey" ==. const q7_nation2
             &&. (col "c_nationkey" ==. const q7_nation1)))
  |> map "l_year" E.(Div_pub (col "l_shipdate", 365))
  |> map "volume" disc_price
  |> aggregate
       ~keys:[ "s_nationkey"; "c_nationkey"; "l_year" ]
       ~aggs:[ sum "volume" "revenue_sum" ]

let q7_ref (db : G.plain) =
  let li =
    P.filter db.G.lineitem (fun g r ->
        g "l_shipdate" r >= q7_date_lo && g "l_shipdate" r <= q7_date_hi)
  in
  let li =
    P.inner_join
      (pselect db.G.supplier
         [ ("s_suppkey", "l_suppkey"); ("s_nationkey", "s_nationkey") ])
      li ~on:[ "l_suppkey" ]
  in
  let co =
    P.inner_join
      (pselect db.G.customer
         [ ("c_custkey", "o_custkey"); ("c_nationkey", "c_nationkey") ])
      db.G.orders ~on:[ "o_custkey" ]
  in
  let j =
    P.inner_join
      (pselect co [ ("o_orderkey", "l_orderkey"); ("c_nationkey", "c_nationkey") ])
      li
      ~on:[ "l_orderkey" ]
  in
  let j =
    P.filter j (fun g r ->
        (g "s_nationkey" r = q7_nation1 && g "c_nationkey" r = q7_nation2)
        || (g "s_nationkey" r = q7_nation2 && g "c_nationkey" r = q7_nation1))
  in
  let j = P.map j ~dst:"l_year" (fun g r -> g "l_shipdate" r / 365) in
  let j =
    P.map j ~dst:"volume" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  P.group_by j
    ~keys:[ "s_nationkey"; "c_nationkey"; "l_year" ]
    ~aggs:[ psum "volume" "revenue_sum" ]

let q7_cols = [ "s_nationkey"; "c_nationkey"; "l_year"; "revenue_sum" ]

(* ------------------------------------------------------------------ *)
(* Q8: national market share                                           *)
(* ------------------------------------------------------------------ *)

let q8_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let cust = in_region tbl q8_region "c_nationkey" (tbl "customer") in
  let co =
    join
      (select [ ("c_custkey", "o_custkey") ] cust)
      (filter
         E.(col "o_orderdate" >=. const q8_date_lo &&. (col "o_orderdate" <=. const q8_date_hi))
         (tbl "orders"))
      ~on:[ "o_custkey" ]
    |> map "o_year" E.(Div_pub (col "o_orderdate", 365))
  in
  let li =
    join
      (select [ ("s_suppkey", "l_suppkey"); ("s_nationkey", "s_nationkey") ] (tbl "supplier"))
      (join
         (tbl "part"
         |> filter E.(col "p_type" <=. const q8_type)
         |> select [ ("p_partkey", "l_partkey") ])
         (tbl "lineitem") ~on:[ "l_partkey" ])
      ~on:[ "l_suppkey" ]
  in
  join (select [ ("o_orderkey", "l_orderkey"); ("o_year", "o_year") ] co) li ~on:[ "l_orderkey" ]
  |> map "volume" disc_price
  |> map "nvolume" E.(If (col "s_nationkey" ==. const q8_nation, col "volume", const 0))
  |> aggregate ~keys:[ "o_year" ] ~aggs:[ sum "volume" "total"; sum "nvolume" "nation_total" ]
  |> map "share_pct" E.(Div (col "nation_total" *! const 100, col "total"))

let q8_ref (db : G.plain) =
  let nation_r = P.filter db.G.nation (fun g r -> g "n_regionkey" r = q8_region) in
  let cust =
    P.semi_join db.G.customer
      (pselect nation_r [ ("n_nationkey", "c_nationkey") ])
      ~on:[ "c_nationkey" ]
  in
  let o =
    P.filter db.G.orders (fun g r ->
        g "o_orderdate" r >= q8_date_lo && g "o_orderdate" r <= q8_date_hi)
  in
  let co =
    P.inner_join (pselect cust [ ("c_custkey", "o_custkey") ]) o ~on:[ "o_custkey" ]
  in
  let co = P.map co ~dst:"o_year" (fun g r -> g "o_orderdate" r / 365) in
  let parts = P.filter db.G.part (fun g r -> g "p_type" r <= q8_type) in
  let li =
    P.inner_join (pselect parts [ ("p_partkey", "l_partkey") ]) db.G.lineitem
      ~on:[ "l_partkey" ]
  in
  let li =
    P.inner_join
      (pselect db.G.supplier
         [ ("s_suppkey", "l_suppkey"); ("s_nationkey", "s_nationkey") ])
      li ~on:[ "l_suppkey" ]
  in
  let j =
    P.inner_join
      (pselect co [ ("o_orderkey", "l_orderkey"); ("o_year", "o_year") ])
      li
      ~on:[ "l_orderkey" ]
  in
  let j =
    P.map j ~dst:"volume" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  let j =
    P.map j ~dst:"nvolume" (fun g r ->
        if g "s_nationkey" r = q8_nation then g "volume" r else 0)
  in
  let agg =
    P.group_by j ~keys:[ "o_year" ]
      ~aggs:[ psum "volume" "total"; psum "nvolume" "nation_total" ]
  in
  P.map agg ~dst:"share_pct" (fun g r -> g "nation_total" r * 100 / g "total" r)

let q8_cols = [ "o_year"; "share_pct" ]

(* ------------------------------------------------------------------ *)
(* Q9: product-type profit (6-way join, composite key, signed sums)    *)
(* ------------------------------------------------------------------ *)

let q9_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let li =
    join
      (tbl "part"
      |> filter E.(col "p_type" <=. const q9_type)
      |> select [ ("p_partkey", "l_partkey") ])
      (tbl "lineitem") ~on:[ "l_partkey" ]
  in
  let li =
    join
      (select
         [
           ("ps_partkey", "l_partkey");
           ("ps_suppkey", "l_suppkey");
           ("ps_supplycost", "ps_supplycost");
         ]
         (tbl "partsupp"))
      li
      ~on:[ "l_partkey"; "l_suppkey" ]
  in
  let li =
    join
      (select [ ("s_suppkey", "l_suppkey"); ("s_nationkey", "s_nationkey") ] (tbl "supplier"))
      li ~on:[ "l_suppkey" ]
  in
  let o = map "o_year" E.(Div_pub (col "o_orderdate", 365)) (tbl "orders") in
  join (select [ ("o_orderkey", "l_orderkey"); ("o_year", "o_year") ] o) li ~on:[ "l_orderkey" ]
  |> map "profit" E.(disc_price -! Div_pub (col "ps_supplycost" *! col "l_quantity", 100))
  |> aggregate ~keys:[ "s_nationkey"; "o_year" ] ~aggs:[ sum "profit" "profit_sum" ]

let q9_ref (db : G.plain) =
  let parts = P.filter db.G.part (fun g r -> g "p_type" r <= q9_type) in
  let li =
    P.inner_join (pselect parts [ ("p_partkey", "l_partkey") ]) db.G.lineitem
      ~on:[ "l_partkey" ]
  in
  let li =
    P.inner_join
      (pselect db.G.partsupp
         [
           ("ps_partkey", "l_partkey");
           ("ps_suppkey", "l_suppkey");
           ("ps_supplycost", "ps_supplycost");
         ])
      li
      ~on:[ "l_partkey"; "l_suppkey" ]
  in
  let li =
    P.inner_join
      (pselect db.G.supplier
         [ ("s_suppkey", "l_suppkey"); ("s_nationkey", "s_nationkey") ])
      li ~on:[ "l_suppkey" ]
  in
  let o = P.map db.G.orders ~dst:"o_year" (fun g r -> g "o_orderdate" r / 365) in
  let j =
    P.inner_join
      (pselect o [ ("o_orderkey", "l_orderkey"); ("o_year", "o_year") ])
      li
      ~on:[ "l_orderkey" ]
  in
  let j =
    P.map j ~dst:"profit" (fun g r ->
        (g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
        - (g "ps_supplycost" r * g "l_quantity" r / 100))
  in
  P.group_by j ~keys:[ "s_nationkey"; "o_year" ] ~aggs:[ psum "profit" "profit_sum" ]

let q9_cols = [ "s_nationkey"; "o_year"; "profit_sum" ]

(* ------------------------------------------------------------------ *)
(* Q10: returned-item reporting                                        *)
(* ------------------------------------------------------------------ *)

let q10_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  join
    (tbl "orders"
    |> filter
         E.(col "o_orderdate" >=. const q10_date &&. (col "o_orderdate" <. const (q10_date + 90)))
    |> select [ ("o_orderkey", "l_orderkey"); ("o_custkey", "o_custkey") ])
    (tbl "lineitem"
    |> filter E.(col "l_returnflag" ==. const 2)
    |> map "revenue" disc_price)
    ~on:[ "l_orderkey" ]
  |> aggregate ~keys:[ "o_custkey" ] ~aggs:[ sum "revenue" "revenue_sum" ]
  |> top [ ("revenue_sum", D.Desc) ] 20

let q10_ref (db : G.plain) =
  let o =
    P.filter db.G.orders (fun g r ->
        g "o_orderdate" r >= q10_date && g "o_orderdate" r < q10_date + 90)
  in
  let li = P.filter db.G.lineitem (fun g r -> g "l_returnflag" r = 2) in
  let li =
    P.map li ~dst:"revenue" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  let j =
    P.inner_join
      (pselect o [ ("o_orderkey", "l_orderkey"); ("o_custkey", "o_custkey") ])
      li
      ~on:[ "l_orderkey" ]
  in
  let agg =
    P.group_by j ~keys:[ "o_custkey" ] ~aggs:[ psum "revenue" "revenue_sum" ]
  in
  P.limit (P.sort agg [ ("revenue_sum", -1) ]) 20

let q10_cols = [ "o_custkey"; "revenue_sum" ]

(* ------------------------------------------------------------------ *)
(* Q11: important stock identification (HAVING over a global sum)      *)
(* ------------------------------------------------------------------ *)

let q11_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let ps =
    semi_join (tbl "partsupp")
      (tbl "supplier"
      |> filter E.(col "s_nationkey" ==. const q11_nation)
      |> select [ ("s_suppkey", "ps_suppkey") ])
      ~on:[ "ps_suppkey" ]
    |> map "value" E.(col "ps_supplycost" *! col "ps_availqty")
  in
  with_scalar
    (aggregate ~keys:[ "ps_partkey" ] ~aggs:[ sum "value" "value_sum" ] ps)
    ~scalar:(global ~aggs:[ sum "value" "total_value" ] ps)
    ~src:"total_value" ~dst:"total_value"
  |> filter E.(col "value_sum" *! const q11_fraction_inv >. col "total_value")

let q11_ref (db : G.plain) =
  let supp = P.filter db.G.supplier (fun g r -> g "s_nationkey" r = q11_nation) in
  let ps =
    P.semi_join db.G.partsupp
      (pselect supp [ ("s_suppkey", "ps_suppkey") ])
      ~on:[ "ps_suppkey" ]
  in
  let ps = P.map ps ~dst:"value" (fun g r -> g "ps_supplycost" r * g "ps_availqty" r) in
  let total = pglobal ps ~aggs:[ psum "value" "total_value" ] in
  let agg = P.group_by ps ~keys:[ "ps_partkey" ] ~aggs:[ psum "value" "value_sum" ] in
  let agg = pwith_scalar agg ~scalar:total ~src:"total_value" ~dst:"total_value" in
  P.filter agg (fun g r -> g "value_sum" r * q11_fraction_inv > g "total_value" r)

let q11_cols = [ "ps_partkey"; "value_sum" ]
