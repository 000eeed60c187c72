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
  let p = Plan.project [ "price" ] j in
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
  let t, fb = Compile.run plan in
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
    ignore (Compile.run ~optimize plan);
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
  let t, fb = Compile.run plan in
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
  let t, fb = Compile.run plan in
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
  let t, fb = Compile.run plan in
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
  let t, fb = Compile.run plan in
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
    Orq_workloads.Tpch_util.select db.Orq_workloads.Tpch_gen.m_customer
      [ ("c_custkey", "o_custkey"); ("c_mktsegment", "c_mktsegment") ]
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
  let (t, fb), planned = tally (fun () -> Compile.run plan) in
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
     the rename hides) pre-aggregated to multiplicities (§3.6), scans
     pruned to the needed columns. The compiled plan runs the join's two
     inputs as fused round tracks: same bits and messages, fewer rounds. *)
  let m, seq =
    tally (fun () ->
        let c2 = Dataflow.filter cust Expr.(col "c_mktsegment" ==. const 1) in
        let c2 =
          Dataflow.aggregate c2 ~keys:[ "o_custkey" ]
            ~aggs:[ { Dataflow.src = "o_custkey"; dst = "__mult"; fn = Dataflow.Count } ]
        in
        let o2 =
          Dataflow.filter
            (Table.project orders [ "o_custkey"; "o_orderdate"; "o_totalprice" ])
            Expr.(col "o_orderdate" <. const 1000)
        in
        let j2 = Dataflow.inner_join c2 o2 ~on:[ "o_custkey" ] ~copy:[ "__mult" ] in
        let j2 = Dataflow.map j2 ~dst:"__w" Expr.(col "o_totalprice" *! col "__mult") in
        let a2 =
          Dataflow.aggregate j2 ~keys:[ "o_custkey" ]
            ~aggs:[ { Dataflow.src = "__w"; dst = "total"; fn = Dataflow.Sum } ]
        in
        Dataflow.limit (Dataflow.order_by a2 [ ("total", Dataflow.Desc) ]) 5)
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
  ]

let () = Alcotest.run "orq_planner" [ ("planner", suite) ]
