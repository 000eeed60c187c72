(* Quickstart: TPC-H Q3 in the ORQ dataflow API — the paper's Listing 1.

   Three data owners (a retailer's customer list, an order-management
   system, and a logistics provider's line items) secret-share their
   tables; the computing parties evaluate the query without ever seeing a
   row; the analyst opens only the aggregated result.

   Run with:  dune exec examples/quickstart.exe *)

open Orq_proto
open Orq_core
open Orq_workloads

let () =
  (* 1. pick an MPC protocol: 3-party semi-honest honest-majority *)
  let ctx = Ctx.create Ctx.Sh_hm in

  (* 2. data owners secret-share their tables (here: generated TPC-H data
        at a micro scale factor; each column is (name, bit-width, values)) *)
  let db = Tpch_gen.share ctx (Tpch_gen.generate 0.0005) in
  let customers = db.Tpch_gen.m_customer in
  let orders = db.Tpch_gen.m_orders in
  let lineitem = db.Tpch_gen.m_lineitem in
  Printf.printf "shared inputs: %d customers, %d orders, %d line items\n%!"
    (Table.nrows customers) (Table.nrows orders) (Table.nrows lineitem);

  (* 3. the query — filters, two joins, a grouped aggregation, order-by
        and limit, exactly as in Listing 1 of the paper *)
  let segment = Tpch_params.q3_segment and date = Tpch_params.q3_date in
  let c = Dataflow.filter customers Expr.(col "c_mktsegment" ==. const segment) in
  let o = Dataflow.filter orders Expr.(col "o_orderdate" <. const date) in
  let li = Dataflow.filter lineitem Expr.(col "l_shipdate" >. const date) in
  let li =
    Dataflow.map li ~dst:"revenue"
      Expr.(Div_pub (col "l_extendedprice" *! (const 100 -! col "l_discount"), 100))
  in
  let co =
    Dataflow.inner_join
      (Table.rename_col (Table.project c [ "c_custkey" ]) ~from:"c_custkey" ~into:"o_custkey")
      o ~on:[ "o_custkey" ]
  in
  let res =
    Dataflow.inner_join
      (Table.rename_col
         (Table.project co [ "o_orderkey"; "o_orderdate"; "o_shippriority" ])
         ~from:"o_orderkey" ~into:"l_orderkey")
      li
      ~on:[ "l_orderkey" ]
      ~copy:[ "o_orderdate"; "o_shippriority" ]
  in
  let res =
    Dataflow.aggregate res
      ~keys:[ "l_orderkey"; "o_orderdate"; "o_shippriority" ]
      ~aggs:[ { Dataflow.src = "revenue"; dst = "total_revenue"; fn = Dataflow.Sum } ]
  in
  let res =
    Dataflow.limit
      (Dataflow.order_by res
         [ ("total_revenue", Dataflow.Desc); ("o_orderdate", Dataflow.Asc) ])
      10
  in

  (* 4. open the result to the analyst (invalid rows are masked and
        shuffled away before anything is revealed) *)
  let opened = Table.reveal res in
  let getcol n = List.assoc n opened in
  let k = Array.length (getcol "l_orderkey") in
  (* opening shuffles physical row order (masked invalid rows must not be
     identifiable), so the analyst re-sorts the plaintext locally *)
  let rows =
    List.sort
      (fun (_, _, _, r1) (_, _, _, r2) -> compare r2 r1)
      (List.init k (fun i ->
           ( (getcol "l_orderkey").(i),
             (getcol "o_orderdate").(i),
             (getcol "o_shippriority").(i),
             (getcol "total_revenue").(i) )))
  in
  Printf.printf "\nQ3 top-%d orders by revenue:\n" k;
  Printf.printf "%-10s %-10s %-9s %s\n" "orderkey" "orderdate" "priority"
    "revenue";
  List.iter
    (fun (ok, od, pr, rev) -> Printf.printf "%-10d %-10d %-9d %d\n" ok od pr rev)
    rows;

  (* 5. what did obliviousness cost? *)
  let tally = Orq_net.Comm.snapshot ctx.Ctx.comm in
  Printf.printf
    "\nMPC cost: %d communication rounds, %.1f MiB total traffic\n"
    tally.Orq_net.Comm.t_rounds
    (float_of_int tally.Orq_net.Comm.t_bits /. 8. /. 1024. /. 1024.);
  Printf.printf "estimated end-to-end: LAN %.1fs | WAN %.1fs\n"
    (Orq_net.Netsim.network_time Orq_net.Netsim.lan tally)
    (Orq_net.Netsim.network_time Orq_net.Netsim.wan tally)
