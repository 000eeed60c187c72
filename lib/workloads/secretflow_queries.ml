(** The five peer-to-peer TPC-H variations used by SecretFlow-SCQL, as in
    the paper's Figure 5 (right): S1/S2 are single-table filter-aggregate
    queries (no joins), S3/S4 add a PK-FK join with aggregation, and S5 an
    oblivious group-by. Each is a logical plan over {!Tpch_gen.catalog}'s
    scans; {!Tpch.all} registers them after Q1-Q22. *)

open Orq_planner.Plan
open Tpch_util
open Tpch_params
module G = Tpch_gen

(* S1: filtered global revenue (no join, no sort) *)
let s1_plan (db : G.mpc) =
  scan (G.catalog db) "lineitem"
  |> filter E.(col "l_shipdate" >=. const q6_date)
  |> map "revenue" disc_price
  |> global ~aggs:[ sum "revenue" "total" ]

let s1_ref (db : G.plain) =
  let li = P.filter db.G.lineitem (fun g r -> g "l_shipdate" r >= q6_date) in
  let li =
    P.map li ~dst:"revenue" (fun g r ->
        g "l_extendedprice" r * (100 - g "l_discount" r) / 100)
  in
  pglobal li ~aggs:[ psum "revenue" "total" ]

(* S2: filtered global count + min/max (no join) *)
let s2_plan (db : G.mpc) =
  scan (G.catalog db) "lineitem"
  |> filter E.(col "l_quantity" >=. const 25)
  |> global ~aggs:[ cnt "l_quantity" "n"; mx "l_extendedprice" "hi"; mn "l_extendedprice" "lo" ]

let s2_ref (db : G.plain) =
  let li = P.filter db.G.lineitem (fun g r -> g "l_quantity" r >= 25) in
  pglobal li
    ~aggs:
      [
        pcnt "l_quantity" "n";
        pmx "l_extendedprice" "hi";
        pmn "l_extendedprice" "lo";
      ]

(* S3: PK-FK join + global aggregate *)
let s3_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  join
    (tbl "orders"
    |> filter E.(col "o_orderdate" >=. const q3_date)
    |> select [ ("o_orderkey", "l_orderkey") ])
    (tbl "lineitem") ~on:[ "l_orderkey" ]
  |> global ~aggs:[ sum "l_extendedprice" "total" ]

let s3_ref (db : G.plain) =
  let o = P.filter db.G.orders (fun g r -> g "o_orderdate" r >= q3_date) in
  let j =
    P.inner_join (pselect o [ ("o_orderkey", "l_orderkey") ]) db.G.lineitem
      ~on:[ "l_orderkey" ]
  in
  pglobal j ~aggs:[ psum "l_extendedprice" "total" ]

(* S4: join + per-key aggregation *)
let s4_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  join
    (select [ ("o_orderkey", "l_orderkey"); ("o_orderpriority", "o_orderpriority") ] (tbl "orders"))
    (tbl "lineitem") ~on:[ "l_orderkey" ]
  |> aggregate ~keys:[ "o_orderpriority" ] ~aggs:[ sum "l_quantity" "qty" ]

let s4_ref (db : G.plain) =
  let j =
    P.inner_join
      (pselect db.G.orders
         [ ("o_orderkey", "l_orderkey"); ("o_orderpriority", "o_orderpriority") ])
      db.G.lineitem
      ~on:[ "l_orderkey" ]
  in
  P.group_by j ~keys:[ "o_orderpriority" ] ~aggs:[ psum "l_quantity" "qty" ]

(* S5: oblivious group-by over a composite key *)
let s5_plan (db : G.mpc) =
  scan (G.catalog db) "lineitem"
  |> aggregate
       ~keys:[ "l_returnflag"; "l_shipmode" ]
       ~aggs:[ sum "l_extendedprice" "total"; cnt "l_extendedprice" "n" ]

let s5_ref (db : G.plain) =
  P.group_by db.G.lineitem
    ~keys:[ "l_returnflag"; "l_shipmode" ]
    ~aggs:[ psum "l_extendedprice" "total"; pcnt "l_extendedprice" "n" ]
