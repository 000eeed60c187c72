(* Tests for the automatic query planner (the paper's named future work):
   schema/candidate-key inference, filter pushdown, join orientation,
   automatic §3.6 pre-aggregation, the §2.1 quadratic fallback, and
   end-to-end equivalence with hand-written dataflow plans. *)

open Orq_proto
open Orq_core
open Orq_planner

let rows_t = Alcotest.(list (list int))
let hm () = Ctx.create ~seed:61 Ctx.Sh_hm

let customers ctx =
  Table.create ctx "customers"
    [ ("cust", 8, [| 1; 2; 3; 4 |]); ("seg", 4, [| 1; 2; 1; 2 |]) ]

let orders ctx =
  Table.create ctx "orders"
    [
      ("cust", 8, [| 2; 1; 2; 3; 2; 9 |]);
      ("oid", 8, [| 1; 2; 3; 4; 5; 6 |]);
      ("price", 10, [| 10; 20; 30; 40; 50; 60 |]);
    ]

(* ---------------- inference ---------------- *)

let test_inference () =
  let ctx = hm () in
  let c = Plan.scan ~keys:[ [ "cust" ] ] (customers ctx) in
  let o = Plan.scan ~keys:[ [ "oid" ] ] (orders ctx) in
  let j = Plan.join c o ~on:[ "cust" ] in
  let i = Plan.infer j in
  Alcotest.(check bool) "join keeps many-side key" true
    (List.mem [ "oid" ] i.Plan.i_keys);
  Alcotest.(check bool) "join output not unique on cust" false
    (Plan.unique_on j [ "cust" ]);
  let a =
    Plan.aggregate ~keys:[ "cust" ]
      ~aggs:[ { Dataflow.src = "price"; dst = "s"; fn = Dataflow.Sum } ]
      j
  in
  Alcotest.(check bool) "aggregate keys become unique" true
    (Plan.unique_on a [ "cust" ]);
  let p = Plan.select [ ("price", "price") ] j in
  Alcotest.(check bool) "projection drops keys" false
    (Plan.unique_on p [ "oid" ])

(* ---------------- pushdown ---------------- *)

let test_pushdown () =
  let ctx = hm () in
  let c = Plan.scan ~keys:[ [ "cust" ] ] (customers ctx) in
  let o = Plan.scan ~keys:[ [ "oid" ] ] (orders ctx) in
  let plan =
    Plan.filter
      Expr.(col "seg" ==. const 1 &&. (col "price" >. const 15))
      (Plan.join c o ~on:[ "cust" ])
  in
  let opt = Optimize.run plan in
  (* both conjuncts must sit below the join after pushdown *)
  (match opt with
  | Plan.Join { j_left = Plan.Filter _; j_right = Plan.Filter _; _ } -> ()
  | _ -> Alcotest.failf "filters not pushed: %s" (Plan.explain opt));
  let t, fb = Compile.run (Optimize.run plan) in
  Alcotest.(check int) "no fallback" 0 fb;
  Alcotest.(check rows_t) "pushed-down plan correct"
    [ [ 1; 20 ]; [ 3; 40 ] ]
    (Table.valid_rows_sorted t [ "cust"; "price" ])

let test_pushdown_saves_bytes () =
  let run optimize =
    let ctx = hm () in
    let c = Plan.scan ~keys:[ [ "cust" ] ] (customers ctx) in
    let o = Plan.scan ~keys:[ [ "oid" ] ] (orders ctx) in
    let plan =
      Plan.filter
        Expr.(col "price" >. const 15)
        (Plan.join c o ~on:[ "cust" ])
    in
    ignore (Compile.run (if optimize then Optimize.run plan else plan));
    (Orq_net.Comm.snapshot ctx.Ctx.comm).Orq_net.Comm.t_bits
  in
  (* at these tiny sizes pushdown mostly trades where the filter runs;
     the optimized plan must never be more expensive *)
  Alcotest.(check bool) "optimized plan not costlier" true
    (run true <= run false)

(* ---------------- orientation ---------------- *)

let test_orientation () =
  let ctx = hm () in
  (* unique side given on the right: the optimizer must swap it to the
     left so the one-to-many operator applies *)
  let plan =
    Plan.join
      (Plan.scan ~keys:[ [ "oid" ] ] (orders ctx))
      (Plan.scan ~keys:[ [ "cust" ] ] (customers ctx))
      ~on:[ "cust" ]
  in
  let opt = Optimize.run plan in
  (match opt with
  | Plan.Join { j_left; _ } ->
      Alcotest.(check bool) "left is unique side" true
        (Plan.unique_on j_left [ "cust" ])
  | _ -> Alcotest.fail "not a join");
  let t, fb = Compile.run (Optimize.run plan) in
  Alcotest.(check int) "no fallback" 0 fb;
  Alcotest.(check rows_t) "swapped join correct"
    [ [ 1; 20 ]; [ 2; 10 ]; [ 2; 30 ]; [ 2; 50 ]; [ 3; 40 ] ]
    (Table.valid_rows_sorted t [ "cust"; "price" ])

(* ---------------- automatic §3.6 pre-aggregation ---------------- *)

let dup_tables ctx =
  (* duplicates on BOTH sides of key k *)
  let l = Table.create ctx "L" [ ("k", 4, [| 1; 1; 2; 2; 2 |]) ] in
  let r =
    Table.create ctx "R"
      [ ("k", 4, [| 1; 2; 2; 7 |]); ("v", 8, [| 5; 10; 20; 99 |]) ]
  in
  (l, r)

let test_auto_preagg_count () =
  let ctx = hm () in
  let l, r = dup_tables ctx in
  let plan =
    Plan.aggregate ~keys:[ "k" ]
      ~aggs:[ { Dataflow.src = "k"; dst = "n"; fn = Dataflow.Count } ]
      (Plan.join (Plan.scan l) (Plan.scan r) ~on:[ "k" ])
  in
  let t, fb = Compile.run (Optimize.run plan) in
  Alcotest.(check int) "no quadratic fallback (rewritten)" 0 fb;
  (* |join| per k: k=1 -> 2x1=2; k=2 -> 3x2=6 *)
  Alcotest.(check rows_t) "many-to-many count" [ [ 1; 2 ]; [ 2; 6 ] ]
    (Table.valid_rows_sorted t [ "k"; "n" ])

let test_auto_preagg_sum () =
  let ctx = hm () in
  let l, r = dup_tables ctx in
  let plan =
    Plan.aggregate ~keys:[ "k" ]
      ~aggs:[ { Dataflow.src = "v"; dst = "s"; fn = Dataflow.Sum } ]
      (Plan.join (Plan.scan l) (Plan.scan r) ~on:[ "k" ])
  in
  let t, fb = Compile.run (Optimize.run plan) in
  Alcotest.(check int) "no quadratic fallback (rewritten)" 0 fb;
  (* SUM(v) over the join: k=1 -> 2*5=10; k=2 -> 3*(10+20)=90 *)
  Alcotest.(check rows_t) "many-to-many sum" [ [ 1; 10 ]; [ 2; 90 ] ]
    (Table.valid_rows_sorted t [ "k"; "s" ])

(* ---------------- quadratic fallback ---------------- *)

let test_quadratic_fallback () =
  let ctx = hm () in
  let l, r = dup_tables ctx in
  (* a raw many-to-many join with no decomposable aggregation above it:
     outside the tractable class, must fall back and stay correct *)
  let plan = Plan.join (Plan.scan l) (Plan.scan r) ~on:[ "k" ] in
  let t, fb = Compile.run (Optimize.run plan) in
  Alcotest.(check int) "fallback used" 1 fb;
  Alcotest.(check rows_t) "quadratic join correct"
    [ [ 1; 5 ]; [ 1; 5 ]; [ 2; 10 ]; [ 2; 10 ]; [ 2; 10 ];
      [ 2; 20 ]; [ 2; 20 ]; [ 2; 20 ] ]
    (Table.valid_rows_sorted t [ "k"; "v" ])

(* ---------------- end-to-end Q3-shaped plan ---------------- *)

let test_q3_shaped_plan () =
  let ctx = Ctx.create ~seed:63 Ctx.Sh_hm in
  let db = Orq_workloads.Tpch_gen.share ctx (Orq_workloads.Tpch_gen.generate ~seed:5 0.0002) in
  let cust =
    Table.rename_col
      (Table.project db.Orq_workloads.Tpch_gen.m_customer [ "c_custkey"; "c_mktsegment" ])
      ~from:"c_custkey" ~into:"o_custkey"
  in
  let orders = db.Orq_workloads.Tpch_gen.m_orders in
  let c = Plan.scan ~keys:[ [ "c_custkey" ] ] cust in
  let o = Plan.scan ~keys:[ [ "o_orderkey" ] ] orders in
  let plan =
    Plan.top [ ("total", Tablesort.Desc) ] 5
      (Plan.aggregate ~keys:[ "o_custkey" ]
         ~aggs:[ { Dataflow.src = "o_totalprice"; dst = "total"; fn = Dataflow.Sum } ]
         (Plan.filter
            Expr.(col "c_mktsegment" ==. const 1 &&. (col "o_orderdate" <. const 1000))
            (Plan.join c o ~on:[ "o_custkey" ])))
  in
  (* reseeded, so every run draws the same shuffles *)
  let tally f =
    Ctx.reseed ctx 64;
    let c0 = Orq_net.Comm.snapshot ctx.Ctx.comm in
    let r = f () in
    (r, Orq_net.Comm.since ctx.Ctx.comm c0)
  in
  let (t, fb), planned = tally (fun () -> Compile.run (Optimize.run plan)) in
  Alcotest.(check int) "no fallback" 0 fb;
  (* hand-written dataflow equivalent *)
  let c2 = Dataflow.filter cust Expr.(col "c_mktsegment" ==. const 1) in
  let o2 = Dataflow.filter orders Expr.(col "o_orderdate" <. const 1000) in
  let j2 = Dataflow.inner_join c2 o2 ~on:[ "o_custkey" ] in
  let a2 =
    Dataflow.aggregate j2 ~keys:[ "o_custkey" ]
      ~aggs:[ { Dataflow.src = "o_totalprice"; dst = "total"; fn = Dataflow.Sum } ]
  in
  let h = Dataflow.limit (Dataflow.order_by a2 [ ("total", Dataflow.Desc) ]) 5 in
  Alcotest.(check rows_t) "planned = hand-written"
    (Table.valid_rows_sorted h [ "o_custkey"; "total" ])
    (Table.valid_rows_sorted t [ "o_custkey"; "total" ]);
  (* the compiled operator sequence written by hand, every step in
     sequence: filters pushed down, the customer side (whose declared key
     the rename hides) pre-aggregated to multiplicities (§3.6), every
     step's output pruned to the columns the steps above read. The
     compiled plan runs the join's two inputs as fused round tracks: same
     bits and messages, fewer rounds. *)
  let m, seq =
    tally (fun () ->
        let c2 = Dataflow.filter cust Expr.(col "c_mktsegment" ==. const 1) in
        let c2 =
          Dataflow.aggregate (Table.project c2 [ "o_custkey" ]) ~keys:[ "o_custkey" ]
            ~aggs:[ { Dataflow.src = "o_custkey"; dst = "__mult"; fn = Dataflow.Count } ]
        in
        let o2 =
          Dataflow.filter
            (Table.project orders [ "o_custkey"; "o_orderdate"; "o_totalprice" ])
            Expr.(col "o_orderdate" <. const 1000)
        in
        let j2 =
          Dataflow.inner_join (Table.project c2 [ "o_custkey"; "__mult" ])
            (Table.project o2 [ "o_custkey"; "o_totalprice" ])
            ~on:[ "o_custkey" ] ~copy:[ "__mult" ]
        in
        let j2 = Dataflow.map j2 ~dst:"__w" Expr.(col "o_totalprice" *! col "__mult") in
        let a2 =
          Dataflow.aggregate (Table.project j2 [ "o_custkey"; "__w" ]) ~keys:[ "o_custkey" ]
            ~aggs:[ { Dataflow.src = "__w"; dst = "total"; fn = Dataflow.Sum } ]
        in
        Dataflow.limit
          (Dataflow.order_by (Table.project a2 [ "o_custkey"; "total" ])
             [ ("total", Dataflow.Desc) ])
          5)
  in
  Alcotest.(check rows_t) "planned = its operator sequence"
    (Table.valid_rows_sorted m [ "o_custkey"; "total" ])
    (Table.valid_rows_sorted t [ "o_custkey"; "total" ]);
  Alcotest.(check int) "same bits" seq.Orq_net.Comm.t_bits planned.Orq_net.Comm.t_bits;
  Alcotest.(check int) "same messages" seq.Orq_net.Comm.t_messages
    planned.Orq_net.Comm.t_messages;
  Alcotest.(check bool)
    (Printf.sprintf "fewer rounds (%d < %d)" planned.Orq_net.Comm.t_rounds
       seq.Orq_net.Comm.t_rounds)
    true
    (planned.Orq_net.Comm.t_rounds < seq.Orq_net.Comm.t_rounds)

(* ---------------- grouped join rule ---------------- *)

(* A TPC-H-shaped catalog: orders unique on o_orderkey, customer on
   c_custkey; lineitem carries an order with no lineitem (3), lineitem
   rows with no order (7) and an invalid row. *)
let tpch_catalog ctx : Sql.catalog =
  let orders =
    Table.create ctx "orders"
      [
        ("o_orderkey", 8, [| 1; 2; 3; 4; 5 |]);
        ("o_custkey", 8, [| 1; 2; 1; 3; 2 |]);
        ("o_totalprice", 10, [| 100; 200; 300; 400; 500 |]);
      ]
  in
  let lineitem =
    Table.create ctx "lineitem"
      ~valid:[| 1; 1; 1; 1; 1; 0; 1; 1 |]
      [
        ("l_orderkey", 8, [| 1; 1; 2; 4; 4; 4; 7; 5 |]);
        ("l_quantity", 6, [| 5; 6; 7; 8; 9; 10; 11; 12 |]);
      ]
  in
  let customer =
    Table.create ctx "customer"
      [ ("c_custkey", 8, [| 1; 2; 3; 4 |]); ("c_mktsegment", 3, [| 1; 2; 1; 3 |]) ]
  in
  function
  | "orders" -> (orders, [ [ "o_orderkey" ] ])
  | "lineitem" -> (lineitem, [])
  | "customer" -> (customer, [ [ "c_custkey" ] ])
  | _ -> raise Not_found

(* Run [sql] on a fresh catalog: result rows, tally, and how many of the
   logged join decisions were grouped. *)
let run_grouped_sql sql =
  let ctx = Ctx.create ~seed:63 Ctx.Sh_hm in
  let cat = tpch_catalog ctx in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let (t, cols, _), log = Joincost.recording (fun () -> Sql.run cat sql) in
  let tal = Orq_net.Comm.since ctx.Ctx.comm before in
  let grouped =
    List.length (List.filter (fun d -> d.Joincost.jd_shape.Joincost.j_group <> None) log)
  in
  (Table.valid_rows_sorted t cols, tal, grouped)

(* The same query compiled as its join followed by Dataflow.aggregate —
   what the planner does when the grouped rule does not apply. *)
let run_join_then_aggregate sql =
  let ctx = Ctx.create ~seed:63 Ctx.Sh_hm in
  let cat = tpch_catalog ctx in
  let plan, cols = Sql.parse_query cat sql in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let t =
    match Optimize.run plan with
    | Plan.Aggregate a ->
        let srcs =
          List.filter_map
            (fun (g : Dataflow.agg) ->
              match g.Dataflow.fn with Dataflow.Count -> None | _ -> Some g.Dataflow.src)
            a.Plan.a_aggs
        in
        let need = a.Plan.a_keys @ List.filter (fun c -> not (List.mem c a.Plan.a_keys)) srcs in
        let j, _ = Compile.run ~need a.Plan.a_input in
        let aggs =
          List.map
            (fun (g : Dataflow.agg) ->
              match g.Dataflow.fn with
              | Dataflow.Count -> { g with Dataflow.src = List.hd (Table.col_names j) }
              | _ -> g)
            a.Plan.a_aggs
        in
        Dataflow.aggregate j ~keys:a.Plan.a_keys ~aggs
    | _ -> Alcotest.fail "expected an aggregate plan"
  in
  let tal = Orq_net.Comm.since ctx.Ctx.comm before in
  (Table.valid_rows_sorted (Table.project t cols) cols, tal)

let test_grouped_join_rule () =
  let fires =
    "SELECT o_orderkey, SUM(l_quantity) AS q FROM orders JOIN lineitem ON \
     o_orderkey = l_orderkey GROUP BY o_orderkey"
  in
  let rows, _, grouped = run_grouped_sql fires in
  Alcotest.(check int) "one grouped decision" 1 grouped;
  (* plaintext: orders 1, 2, 4, 5 have valid lineitems *)
  let p_orders =
    Orq_plaintext.Ptable.create [ "o_orderkey" ] [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ] ]
  in
  let p_li =
    Orq_plaintext.Ptable.create [ "o_orderkey"; "l_quantity" ]
      [ [ 1; 5 ]; [ 1; 6 ]; [ 2; 7 ]; [ 4; 8 ]; [ 4; 9 ]; [ 7; 11 ]; [ 5; 12 ] ]
  in
  let want =
    Orq_plaintext.Ptable.rows_sorted
      (Orq_plaintext.Ptable.group_by
         (Orq_plaintext.Ptable.inner_join p_orders p_li ~on:[ "o_orderkey" ])
         ~keys:[ "o_orderkey" ]
         ~aggs:[ { Orq_plaintext.Ptable.src = "l_quantity"; dst = "q"; fn = Orq_plaintext.Ptable.Sum } ])
      [ "o_orderkey"; "q" ]
  in
  Alcotest.(check rows_t) "grouped values = plaintext" want rows;
  List.iter
    (fun (label, sql, want) ->
      let rows, tal, grouped = run_grouped_sql sql in
      Alcotest.(check int) (label ^ ": no grouped decision") 0 grouped;
      Alcotest.(check rows_t) (label ^ ": values") want rows;
      let rows', tal' = run_join_then_aggregate sql in
      Alcotest.(check rows_t) (label ^ ": = join then aggregate") rows' rows;
      Alcotest.(check (triple int int int)) (label ^ ": tally = join then aggregate")
        Orq_net.Comm.(tal'.t_rounds, tal'.t_bits, tal'.t_messages)
        Orq_net.Comm.(tal.t_rounds, tal.t_bits, tal.t_messages))
    [
      ( "join key not in the group",
        "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS total FROM \
         orders JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment",
        (* segment 1: orders 1, 3, 4; segment 2: orders 2, 5 *)
        [ [ 1; 3; 800 ]; [ 2; 2; 700 ] ] );
      ( "SUM of a unique-side column",
        "SELECT o_orderkey, SUM(o_totalprice) AS t FROM orders JOIN lineitem \
         ON o_orderkey = l_orderkey GROUP BY o_orderkey",
        (* each order's price once per valid lineitem *)
        [ [ 1; 200 ]; [ 2; 200 ]; [ 4; 800 ]; [ 5; 500 ] ] );
    ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_explain () =
  let ctx = hm () in
  let plan =
    Plan.filter
      Expr.(col "seg" ==. const 1)
      (Plan.scan ~keys:[ [ "cust" ] ] (customers ctx))
  in
  let s = Plan.explain plan in
  Alcotest.(check bool) "explain shows structure" true
    (contains s "Filter" && contains s "Scan(customers");
  Alcotest.(check bool) "explain shows keys" true (contains s "keys: cust")

(* Q3's plan as orq_cli prints it at SF 0.0005: each input on a line of
   its own, indented under its parent, a node that fits kept on one. *)
let test_explain_q3 () =
  let module Tpch_gen = Orq_workloads.Tpch_gen in
  let db = Tpch_gen.share (hm ()) (Tpch_gen.generate 0.0005) in
  let plan = (List.assoc "Q3" Orq_workloads.Tpch.plans) db in
  Alcotest.(check string) "Q3 explain"
    (String.concat "\n"
       [
         "OrderLimit(total_revenue,o_orderdate limit 10,";
         "  Aggregate(by l_orderkey,o_orderdate,o_shippriority,";
         "    Join(on l_orderkey,";
         "      Project(o_orderkey AS l_orderkey,o_orderdate,o_shippriority,";
         "        Join(on o_custkey,";
         "          Project(c_custkey AS o_custkey,";
         "            Filter(Scan(customer, 75 rows, keys: c_custkey))),";
         "          Filter(Scan(orders, 750 rows, keys: o_orderkey)))),";
         "      Map(revenue, Filter(Scan(lineitem, 3023 rows))))))";
       ])
    (Plan.explain plan)

(* ---------------- row-local fusion ---------------- *)

(* A WHERE clause and a computed SELECT column over one scan: the filter
   runs as one track beside the map, so the query takes the deeper leg's
   rounds, not the two legs' sum. *)
let test_row_local_fusion () =
  let rounds f =
    let ctx = Ctx.create ~seed:63 Ctx.Sh_hm in
    let cat = tpch_catalog ctx in
    let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
    let r = f (fst (cat "orders")) cat in
    (r, (Orq_net.Comm.since ctx.Ctx.comm before).Orq_net.Comm.t_rounds)
  in
  let (t, cols, _), fused =
    rounds (fun _ cat ->
        Sql.run cat "SELECT o_orderkey, o_totalprice / 7 AS w FROM orders WHERE o_custkey < 3")
  in
  let _, filter_leg = rounds (fun o _ -> Dataflow.filter o Expr.(col "o_custkey" <. const 3)) in
  let _, map_leg =
    rounds (fun o _ -> Dataflow.map o ~dst:"w" Expr.(Div_pub (col "o_totalprice", 7)))
  in
  Alcotest.(check bool) "both legs meter rounds" true (filter_leg > 0 && map_leg > 0);
  Alcotest.(check int) "rounds = the deeper leg" (max filter_leg map_leg) fused;
  (* plaintext: customers 1 and 2 placed orders 1, 2, 3 and 5 *)
  let want =
    List.filter_map
      (fun (k, c, p) -> if c < 3 then Some [ k; p / 7 ] else None)
      [ (1, 1, 100); (2, 2, 200); (3, 1, 300); (4, 3, 400); (5, 2, 500) ]
  in
  Alcotest.(check rows_t) "values = plaintext" want (Table.valid_rows_sorted t cols)

let suite =
  [
    Alcotest.test_case "schema/key inference" `Quick test_inference;
    Alcotest.test_case "filter pushdown" `Quick test_pushdown;
    Alcotest.test_case "pushdown not costlier" `Quick test_pushdown_saves_bytes;
    Alcotest.test_case "join orientation" `Quick test_orientation;
    Alcotest.test_case "auto pre-aggregation (count)" `Quick
      test_auto_preagg_count;
    Alcotest.test_case "auto pre-aggregation (sum)" `Quick test_auto_preagg_sum;
    Alcotest.test_case "quadratic fallback (outside class)" `Quick
      test_quadratic_fallback;
    Alcotest.test_case "Q3-shaped plan = hand-written" `Quick
      test_q3_shaped_plan;
    Alcotest.test_case "explain" `Quick test_explain;
    Alcotest.test_case "explain indents Q3's inputs" `Quick test_explain_q3;
    Alcotest.test_case "grouped join rule" `Quick test_grouped_join_rule;
    Alcotest.test_case "row-local fusion" `Quick test_row_local_fusion;
  ]

let () = Alcotest.run "orq_planner" [ ("planner", suite) ]
