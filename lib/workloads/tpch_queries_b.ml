(** TPC-H queries 12-22 as logical plans over {!Tpch_gen.catalog}'s scans
    (compiled like Q1-Q11's), with plaintext reference twins. Q13
    exercises the grouped outer join, Q16 anti-join + distinct, Q21 the
    heaviest plan in the benchmark (the paper reports it calls the sorting
    operator 12 times), Q22 anti-join plus a fully private average. *)

open Orq_planner.Plan
open Tpch_util
open Tpch_params
module G = Tpch_gen

(* ------------------------------------------------------------------ *)
(* Q12: shipping modes and order priority                              *)
(* ------------------------------------------------------------------ *)

let q12_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  join
    (select [ ("o_orderkey", "l_orderkey"); ("o_orderpriority", "o_orderpriority") ] (tbl "orders"))
    (filter
       E.(
         (col "l_shipmode" ==. const q12_mode1 ||. (col "l_shipmode" ==. const q12_mode2))
         &&. (col "l_receiptdate" >=. const q12_date)
         &&. (col "l_receiptdate" <. const (q12_date + 365))
         &&. (col "l_commitdate" <. col "l_receiptdate")
         &&. (col "l_shipdate" <. col "l_commitdate"))
       (tbl "lineitem"))
    ~on:[ "l_orderkey" ]
  |> map "high" E.(If (col "o_orderpriority" <=. const 2, const 1, const 0))
  |> map "low" E.(If (col "o_orderpriority" >. const 2, const 1, const 0))
  |> aggregate ~keys:[ "l_shipmode" ] ~aggs:[ sum "high" "high_count"; sum "low" "low_count" ]

let q12_ref (db : G.plain) =
  let li =
    P.filter db.G.lineitem (fun g r ->
        (g "l_shipmode" r = q12_mode1 || g "l_shipmode" r = q12_mode2)
        && g "l_receiptdate" r >= q12_date
        && g "l_receiptdate" r < q12_date + 365
        && g "l_commitdate" r < g "l_receiptdate" r
        && g "l_shipdate" r < g "l_commitdate" r)
  in
  let j =
    P.inner_join
      (pselect db.G.orders
         [ ("o_orderkey", "l_orderkey"); ("o_orderpriority", "o_orderpriority") ])
      li
      ~on:[ "l_orderkey" ]
  in
  let j = P.map j ~dst:"high" (fun g r -> if g "o_orderpriority" r <= 2 then 1 else 0) in
  let j = P.map j ~dst:"low" (fun g r -> if g "o_orderpriority" r > 2 then 1 else 0) in
  P.group_by j ~keys:[ "l_shipmode" ]
    ~aggs:[ psum "high" "high_count"; psum "low" "low_count" ]

let q12_cols = [ "l_shipmode"; "high_count"; "low_count" ]

(* ------------------------------------------------------------------ *)
(* Q13: customer order-count distribution (grouped outer join)         *)
(* ------------------------------------------------------------------ *)

let q13_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  (* per-customer order count inside the left outer join: COUNT counts
     each customer's matched order rows, 0 for a customer with none *)
  outer_join
    (select [ ("c_custkey", "o_custkey") ] (tbl "customer"))
    (filter E.(col "o_orderpriority" <>. const q13_priority_excluded) (tbl "orders"))
    ~on:[ "o_custkey" ]
  |> aggregate ~keys:[ "o_custkey" ] ~aggs:[ cnt "o_orderkey" "c_count" ]
  |> aggregate ~keys:[ "c_count" ] ~aggs:[ cnt "c_count" "custdist" ]

let q13_ref (db : G.plain) =
  let o =
    P.filter db.G.orders (fun g r -> g "o_orderpriority" r <> q13_priority_excluded)
  in
  let cnts =
    P.group_by o ~keys:[ "o_custkey" ] ~aggs:[ pcnt "o_orderkey" "c_count" ]
  in
  let zeros =
    P.anti_join
      (pselect db.G.customer [ ("c_custkey", "o_custkey") ])
      cnts ~on:[ "o_custkey" ]
  in
  let zeros = P.map zeros ~dst:"c_count" (fun _ _ -> 0) in
  let all = P.concat (P.project cnts [ "o_custkey"; "c_count" ]) zeros in
  P.group_by all ~keys:[ "c_count" ] ~aggs:[ pcnt "c_count" "custdist" ]

let q13_cols = [ "c_count"; "custdist" ]

(* ------------------------------------------------------------------ *)
(* Q14: promotion effect (private ratio of two global sums)            *)
(* ------------------------------------------------------------------ *)

let q14_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  join
    (select [ ("p_partkey", "l_partkey"); ("p_type", "p_type") ] (tbl "part"))
    (filter
       E.(col "l_shipdate" >=. const q14_date &&. (col "l_shipdate" <. const (q14_date + 30)))
       (tbl "lineitem"))
    ~on:[ "l_partkey" ]
  |> map "revenue" disc_price
  |> map "promo" E.(If (col "p_type" <=. const q14_type_promo_max, col "revenue", const 0))
  |> global ~aggs:[ sum "promo" "promo_sum"; sum "revenue" "rev_sum" ]
  |> map "promo_pct" E.(Div (col "promo_sum" *! const 100, col "rev_sum"))

let q14_ref (db : G.plain) =
  let li =
    P.filter db.G.lineitem (fun g r ->
        g "l_shipdate" r >= q14_date && g "l_shipdate" r < q14_date + 30)
  in
  let j =
    P.inner_join
      (pselect db.G.part [ ("p_partkey", "l_partkey"); ("p_type", "p_type") ])
      li ~on:[ "l_partkey" ]
  in
  let j =
    P.map j ~dst:"revenue" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  let j =
    P.map j ~dst:"promo" (fun g r ->
        if g "p_type" r <= q14_type_promo_max then g "revenue" r else 0)
  in
  let g = pglobal j ~aggs:[ psum "promo" "promo_sum"; psum "revenue" "rev_sum" ] in
  P.map g ~dst:"promo_pct" (fun g r -> g "promo_sum" r * 100 / g "rev_sum" r)

let q14_cols = [ "promo_pct" ]

(* ------------------------------------------------------------------ *)
(* Q15: top supplier (secret global max + equality)                    *)
(* ------------------------------------------------------------------ *)

let q15_plan (db : G.mpc) =
  let rev =
    scan (G.catalog db) "lineitem"
    |> filter
         E.(col "l_shipdate" >=. const q15_date &&. (col "l_shipdate" <. const (q15_date + 90)))
    |> map "revenue" disc_price
    |> aggregate ~keys:[ "l_suppkey" ] ~aggs:[ sum "revenue" "total_rev" ]
  in
  with_scalar rev
    ~scalar:(global ~aggs:[ mx "total_rev" "max_rev" ] rev)
    ~src:"max_rev" ~dst:"max_rev"
  |> filter E.(col "total_rev" ==. col "max_rev")

let q15_ref (db : G.plain) =
  let li =
    P.filter db.G.lineitem (fun g r ->
        g "l_shipdate" r >= q15_date && g "l_shipdate" r < q15_date + 90)
  in
  let li =
    P.map li ~dst:"revenue" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  let rev =
    P.group_by li ~keys:[ "l_suppkey" ] ~aggs:[ psum "revenue" "total_rev" ]
  in
  let top = pglobal rev ~aggs:[ pmx "total_rev" "max_rev" ] in
  let rev = pwith_scalar rev ~scalar:top ~src:"max_rev" ~dst:"max_rev" in
  P.filter rev (fun g r -> g "total_rev" r = g "max_rev" r)

let q15_cols = [ "l_suppkey"; "total_rev" ]

(* ------------------------------------------------------------------ *)
(* Q16: parts/supplier relationship (anti-join + distinct count)       *)
(* ------------------------------------------------------------------ *)

let q16_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let ps =
    anti_join (tbl "partsupp")
      (tbl "supplier"
      |> filter E.(col "s_acctbal" <. const q16_bad_balance)
      |> select [ ("s_suppkey", "ps_suppkey") ])
      ~on:[ "ps_suppkey" ]
  in
  let parts =
    tbl "part"
    |> filter
         E.(
           col "p_brand" <>. const q16_brand
           &&. (col "p_type" <>. const q16_type)
           &&. (col "p_size" <=. const q16_max_size))
    |> select
         [
           ("p_partkey", "ps_partkey");
           ("p_brand", "p_brand");
           ("p_type", "p_type");
           ("p_size", "p_size");
         ]
  in
  join parts ps ~on:[ "ps_partkey" ]
  |> distinct [ "p_brand"; "p_type"; "p_size"; "ps_suppkey" ]
  |> aggregate
       ~keys:[ "p_brand"; "p_type"; "p_size" ]
       ~aggs:[ cnt "ps_suppkey" "supplier_cnt" ]

let q16_ref (db : G.plain) =
  let bad = P.filter db.G.supplier (fun g r -> g "s_acctbal" r < q16_bad_balance) in
  let ps =
    P.anti_join db.G.partsupp
      (pselect bad [ ("s_suppkey", "ps_suppkey") ])
      ~on:[ "ps_suppkey" ]
  in
  let parts =
    P.filter db.G.part (fun g r ->
        g "p_brand" r <> q16_brand
        && g "p_type" r <> q16_type
        && g "p_size" r <= q16_max_size)
  in
  let j =
    P.inner_join
      (pselect parts
         [
           ("p_partkey", "ps_partkey");
           ("p_brand", "p_brand");
           ("p_type", "p_type");
           ("p_size", "p_size");
         ])
      ps
      ~on:[ "ps_partkey" ]
  in
  let d = P.distinct j [ "p_brand"; "p_type"; "p_size"; "ps_suppkey" ] in
  P.group_by d
    ~keys:[ "p_brand"; "p_type"; "p_size" ]
    ~aggs:[ pcnt "ps_suppkey" "supplier_cnt" ]

let q16_cols = [ "p_brand"; "p_type"; "p_size"; "supplier_cnt" ]

(* ------------------------------------------------------------------ *)
(* Q17: small-quantity-order revenue (correlated average)              *)
(* ------------------------------------------------------------------ *)

let q17_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let li =
    join
      (tbl "part"
      |> filter
           E.(col "p_brand" <=. const q17_brand &&. (col "p_container" <=. const q17_container))
      |> select [ ("p_partkey", "l_partkey") ])
      (tbl "lineitem") ~on:[ "l_partkey" ]
  in
  join (aggregate ~keys:[ "l_partkey" ] ~aggs:[ avg "l_quantity" "avg_qty" ] li) li
    ~on:[ "l_partkey" ]
  |> filter E.(col "l_quantity" *! const 5 <. col "avg_qty")
  |> global ~aggs:[ sum "l_extendedprice" "total" ]
  |> map "avg_yearly" E.(Div_pub (col "total", 7))

let q17_ref (db : G.plain) =
  let parts =
    P.filter db.G.part (fun g r ->
        g "p_brand" r <= q17_brand && g "p_container" r <= q17_container)
  in
  let li =
    P.inner_join (pselect parts [ ("p_partkey", "l_partkey") ]) db.G.lineitem
      ~on:[ "l_partkey" ]
  in
  let avgq =
    P.group_by li ~keys:[ "l_partkey" ] ~aggs:[ pavg "l_quantity" "avg_qty" ]
  in
  let j = P.inner_join avgq li ~on:[ "l_partkey" ] in
  let j = P.filter j (fun g r -> g "l_quantity" r * 5 < g "avg_qty" r) in
  let g = pglobal j ~aggs:[ psum "l_extendedprice" "total" ] in
  P.map g ~dst:"avg_yearly" (fun g r -> g "total" r / 7)

let q17_cols = [ "avg_yearly" ]

(* ------------------------------------------------------------------ *)
(* Q18: large-volume customers                                         *)
(* ------------------------------------------------------------------ *)

let q18_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  join
    (tbl "lineitem"
    |> aggregate ~keys:[ "l_orderkey" ] ~aggs:[ sum "l_quantity" "sum_qty" ]
    |> filter E.(col "sum_qty" >. const q18_quantity)
    |> select [ ("l_orderkey", "o_orderkey"); ("sum_qty", "sum_qty") ])
    (tbl "orders") ~on:[ "o_orderkey" ]
  |> top [ ("o_totalprice", D.Desc); ("o_orderdate", D.Asc) ] 100

let q18_ref (db : G.plain) =
  let agg =
    P.group_by db.G.lineitem ~keys:[ "l_orderkey" ]
      ~aggs:[ psum "l_quantity" "sum_qty" ]
  in
  let big = P.filter agg (fun g r -> g "sum_qty" r > q18_quantity) in
  let big = pselect big [ ("l_orderkey", "o_orderkey"); ("sum_qty", "sum_qty") ] in
  let j = P.inner_join big db.G.orders ~on:[ "o_orderkey" ] in
  P.limit (P.sort j [ ("o_totalprice", -1); ("o_orderdate", 1) ]) 100

let q18_cols = [ "o_orderkey"; "o_custkey"; "o_totalprice"; "sum_qty" ]

(* ------------------------------------------------------------------ *)
(* Q19: discounted revenue (disjunctive theta filters)                 *)
(* ------------------------------------------------------------------ *)

let q19_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let branch brand qty csize psize =
    E.(
      col "p_brand" ==. const brand
      &&. (col "p_container" <=. const csize)
      &&. (col "l_quantity" >=. const qty)
      &&. (col "l_quantity" <=. const (qty + 10))
      &&. (col "p_size" <=. const psize))
  in
  join
    (select
       [
         ("p_partkey", "l_partkey");
         ("p_brand", "p_brand");
         ("p_container", "p_container");
         ("p_size", "p_size");
       ]
       (tbl "part"))
    (tbl "lineitem") ~on:[ "l_partkey" ]
  |> filter
       E.(
         branch q19_brand1 q19_qty1 10 5
         ||. branch q19_brand2 q19_qty2 20 10
         ||. branch q19_brand3 q19_qty3 30 15)
  |> map "revenue" disc_price
  |> global ~aggs:[ sum "revenue" "revenue_sum" ]

let q19_ref (db : G.plain) =
  let j =
    P.inner_join
      (pselect db.G.part
         [
           ("p_partkey", "l_partkey");
           ("p_brand", "p_brand");
           ("p_container", "p_container");
           ("p_size", "p_size");
         ])
      db.G.lineitem
      ~on:[ "l_partkey" ]
  in
  let branch g r brand qty csize psize =
    g "p_brand" r = brand
    && g "p_container" r <= csize
    && g "l_quantity" r >= qty
    && g "l_quantity" r <= qty + 10
    && g "p_size" r <= psize
  in
  let j =
    P.filter j (fun g r ->
        branch g r q19_brand1 q19_qty1 10 5
        || branch g r q19_brand2 q19_qty2 20 10
        || branch g r q19_brand3 q19_qty3 30 15)
  in
  let j =
    P.map j ~dst:"revenue" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  pglobal j ~aggs:[ psum "revenue" "revenue_sum" ]

let q19_cols = [ "revenue_sum" ]

(* ------------------------------------------------------------------ *)
(* Q20: potential part promotion (nested semi-joins)                   *)
(* ------------------------------------------------------------------ *)

let q20_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let li =
    semi_join
      (filter
         E.(col "l_shipdate" >=. const q20_date &&. (col "l_shipdate" <. const (q20_date + 365)))
         (tbl "lineitem"))
      (tbl "part"
      |> filter E.(col "p_type" <=. const q20_type)
      |> select [ ("p_partkey", "l_partkey") ])
      ~on:[ "l_partkey" ]
  in
  let sq =
    aggregate ~keys:[ "l_partkey"; "l_suppkey" ] ~aggs:[ sum "l_quantity" "sq" ] li
    |> select [ ("l_partkey", "ps_partkey"); ("l_suppkey", "ps_suppkey"); ("sq", "sq") ]
  in
  let j =
    join sq (tbl "partsupp") ~on:[ "ps_partkey"; "ps_suppkey" ]
    |> filter E.(col "ps_availqty" *! const 2 >. col "sq")
  in
  semi_join (tbl "supplier") (select [ ("ps_suppkey", "s_suppkey") ] j) ~on:[ "s_suppkey" ]
  |> filter E.(col "s_nationkey" ==. const q20_nation)

let q20_ref (db : G.plain) =
  let parts = P.filter db.G.part (fun g r -> g "p_type" r <= q20_type) in
  let li =
    P.filter db.G.lineitem (fun g r ->
        g "l_shipdate" r >= q20_date && g "l_shipdate" r < q20_date + 365)
  in
  let li =
    P.semi_join li (pselect parts [ ("p_partkey", "l_partkey") ]) ~on:[ "l_partkey" ]
  in
  let sq =
    P.group_by li ~keys:[ "l_partkey"; "l_suppkey" ] ~aggs:[ psum "l_quantity" "sq" ]
  in
  let sq =
    pselect sq
      [ ("l_partkey", "ps_partkey"); ("l_suppkey", "ps_suppkey"); ("sq", "sq") ]
  in
  let j =
    P.inner_join sq db.G.partsupp ~on:[ "ps_partkey"; "ps_suppkey" ]
  in
  let j = P.filter j (fun g r -> g "ps_availqty" r * 2 > g "sq" r) in
  let supp =
    P.semi_join db.G.supplier
      (pselect j [ ("ps_suppkey", "s_suppkey") ])
      ~on:[ "s_suppkey" ]
  in
  P.filter supp (fun g r -> g "s_nationkey" r = q20_nation)

let q20_cols = [ "s_suppkey" ]

(* ------------------------------------------------------------------ *)
(* Q21: suppliers who kept orders waiting (self-joins via counts)      *)
(* ------------------------------------------------------------------ *)

let q21_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let li =
    semi_join (tbl "lineitem")
      (tbl "orders"
      |> filter E.(col "o_orderstatus" ==. const 0)
      |> select [ ("o_orderkey", "l_orderkey") ])
      ~on:[ "l_orderkey" ]
  in
  let pairs = [ "l_orderkey"; "l_suppkey" ] in
  let ns = aggregate ~keys:[ "l_orderkey" ] ~aggs:[ cnt "l_suppkey" "ns" ] (distinct pairs li) in
  let late =
    li |> filter E.(col "l_receiptdate" >. col "l_commitdate") |> distinct pairs
  in
  let nl = aggregate ~keys:[ "l_orderkey" ] ~aggs:[ cnt "l_suppkey" "nl" ] late in
  (* the late pairs with their order's counts: the [ns] branch and the
     [late] one run as tracks after [li] *)
  semi_join
    (join ns (join nl late ~on:[ "l_orderkey" ]) ~on:[ "l_orderkey" ]
    |> filter E.(col "ns" >=. const 2 &&. (col "nl" ==. const 1)))
    (tbl "supplier"
    |> filter E.(col "s_nationkey" ==. const q21_nation)
    |> select [ ("s_suppkey", "l_suppkey") ])
    ~on:[ "l_suppkey" ]
  |> aggregate ~keys:[ "l_suppkey" ] ~aggs:[ cnt "l_orderkey" "numwait" ]
  |> top [ ("numwait", D.Desc); ("l_suppkey", D.Asc) ] 100

let q21_ref (db : G.plain) =
  let o_f = P.filter db.G.orders (fun g r -> g "o_orderstatus" r = 0) in
  let li =
    P.semi_join db.G.lineitem
      (pselect o_f [ ("o_orderkey", "l_orderkey") ])
      ~on:[ "l_orderkey" ]
  in
  let d_all = P.distinct (P.project li [ "l_orderkey"; "l_suppkey" ]) [ "l_orderkey"; "l_suppkey" ] in
  let ns = P.group_by d_all ~keys:[ "l_orderkey" ] ~aggs:[ pcnt "l_suppkey" "ns" ] in
  let li_late = P.filter li (fun g r -> g "l_receiptdate" r > g "l_commitdate" r) in
  let d_late =
    P.distinct (P.project li_late [ "l_orderkey"; "l_suppkey" ]) [ "l_orderkey"; "l_suppkey" ]
  in
  let nl = P.group_by d_late ~keys:[ "l_orderkey" ] ~aggs:[ pcnt "l_suppkey" "nl" ] in
  let j1 = P.inner_join ns d_late ~on:[ "l_orderkey" ] in
  let j2 = P.inner_join nl j1 ~on:[ "l_orderkey" ] in
  let j2 = P.filter j2 (fun g r -> g "ns" r >= 2 && g "nl" r = 1) in
  let supp_n = P.filter db.G.supplier (fun g r -> g "s_nationkey" r = q21_nation) in
  let j2 =
    P.semi_join j2 (pselect supp_n [ ("s_suppkey", "l_suppkey") ]) ~on:[ "l_suppkey" ]
  in
  let agg = P.group_by j2 ~keys:[ "l_suppkey" ] ~aggs:[ pcnt "l_orderkey" "numwait" ] in
  P.limit (P.sort agg [ ("numwait", -1); ("l_suppkey", 1) ]) 100

let q21_cols = [ "l_suppkey"; "numwait" ]

(* ------------------------------------------------------------------ *)
(* Q22: global sales opportunity (anti-join + private average)         *)
(* ------------------------------------------------------------------ *)

let q22_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  let cc_pred =
    List.fold_left
      (fun acc code -> E.(acc ||. (col "c_phone_cc" ==. const code)))
      E.(col "c_phone_cc" ==. const (List.hd q22_codes))
      (List.tl q22_codes)
  in
  let c1 = filter cc_pred (tbl "customer") in
  let avg_t =
    c1 |> filter E.(col "c_acctbal" >. const 0) |> global ~aggs:[ avg "c_acctbal" "avg_bal" ]
  in
  let c2 =
    with_scalar c1 ~scalar:avg_t ~src:"avg_bal" ~dst:"avg_bal"
    |> filter E.(col "c_acctbal" >. col "avg_bal")
  in
  anti_join c2 (select [ ("o_custkey", "c_custkey") ] (tbl "orders")) ~on:[ "c_custkey" ]
  |> aggregate ~keys:[ "c_phone_cc" ]
       ~aggs:[ cnt "c_custkey" "numcust"; sum "c_acctbal" "totacctbal" ]

let q22_ref (db : G.plain) =
  let c1 =
    P.filter db.G.customer (fun g r -> List.mem (g "c_phone_cc" r) q22_codes)
  in
  let pos = P.filter c1 (fun g r -> g "c_acctbal" r > 0) in
  let avg_t = pglobal pos ~aggs:[ pavg "c_acctbal" "avg_bal" ] in
  let c2 = pwith_scalar c1 ~scalar:avg_t ~src:"avg_bal" ~dst:"avg_bal" in
  let c2 = P.filter c2 (fun g r -> g "c_acctbal" r > g "avg_bal" r) in
  let c3 =
    P.anti_join c2
      (pselect db.G.orders [ ("o_custkey", "c_custkey") ])
      ~on:[ "c_custkey" ]
  in
  P.group_by c3 ~keys:[ "c_phone_cc" ]
    ~aggs:[ pcnt "c_custkey" "numcust"; psum "c_acctbal" "totacctbal" ]

let q22_cols = [ "c_phone_cc"; "numcust"; "totacctbal" ]
