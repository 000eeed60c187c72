(* Public column domains: every derived interval contains every value,
   ingress refuses out-of-domain plaintext, over-wide expressions are
   refused before any share moves, and the SQL suites bound within the
   ring at SF 10. *)

open Orq_proto
open Orq_core
module Ptable = Orq_plaintext.Ptable
module Ingress = Orq_workloads.Ingress
module Tpch_gen = Orq_workloads.Tpch_gen
module Other_gen = Orq_workloads.Other_gen
module Comm = Orq_net.Comm
module Sql = Orq_planner.Sql
module Plan = Orq_planner.Plan

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* A column's opened value, read under its domain's signedness. *)
let decode (c : Column.t) v =
  let v = v land Orq_util.Ring.mask c.Column.width in
  if c.Column.signed && (v lsr (c.Column.width - 1)) land 1 = 1 then v - (1 lsl c.Column.width)
  else v

(* ------------------------------------------------------------------ *)
(* Interval soundness, by brute force                                  *)
(* ------------------------------------------------------------------ *)

let da = Dom.v 2 7
let db = Dom.v 1 5
let dc = Dom.v 0 3

(* Every (a, b, c) of the three small domains, one row each. *)
let rows =
  List.concat_map
    (fun a ->
      List.concat_map (fun b -> List.map (fun c -> [ a; b; c ]) [ 0; 1; 2; 3 ]) [ 1; 2; 3; 4; 5 ])
    [ 2; 3; 4; 5; 6; 7 ]

let table ctx =
  Ingress.share_table ctx "t"
    [ ("a", da); ("b", db); ("c", dc) ]
    (Ptable.create [ "a"; "b"; "c" ] rows)

let exprs : (string * Expr.num * (int -> int -> int -> int)) list =
  let open Expr in
  [
    ("const 5", Const 5, fun _ _ _ -> 5);
    ("const -3", Const (-3), fun _ _ _ -> -3);
    ("const 0", Const 0, fun _ _ _ -> 0);
    ("a + b", col "a" +! col "b", fun a b _ -> a + b);
    ("b - a (signed)", col "b" -! col "a", fun a b _ -> b - a);
    ("a - 1 (unsigned)", col "a" -! const 1, fun a _ _ -> a - 1);
    ("a * b", col "a" *! col "b", fun a b _ -> a * b);
    ("(b - a) * c", (col "b" -! col "a") *! col "c", fun a b c -> (b - a) * c);
    ("(c - a) * (b - a)", (col "c" -! col "a") *! (col "b" -! col "a"), fun a b c -> (c - a) * (b - a));
    ("a / b", Div (col "a", col "b"), fun a b _ -> a / b);
    ("a * b / 3", Div_pub (col "a" *! col "b", 3), fun a b _ -> a * b / 3);
    ("(a + c) / 1", Div_pub (col "a" +! col "c", 1), fun a _ c -> a + c);
    ("(a + c) / 4", Div_pub (col "a" +! col "c", 4), fun a _ c -> (a + c) / 4);
    ( "if a < b then a else c - a",
      If (col "a" <. col "b", col "a", col "c" -! col "a"),
      fun a b c -> if a < b then a else c - a );
    ( "if c = 0 then 100 else b",
      If (col "c" ==. const 0, const 100, col "b"),
      fun _ b c -> if c = 0 then 100 else b );
  ]

let test_expr_intervals () =
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:5 kind in
      let t = table ctx in
      List.iter
        (fun (name, e, f) ->
          let lbl = Ctx.kind_label kind ^ " " ^ name in
          let c = Expr.eval_col t e in
          let got = Column.reconstruct c in
          List.iteri
            (fun i row ->
              match row with
              | [ a; b; c' ] ->
                  let want = f a b c' in
                  let v = decode c got.(i) in
                  Alcotest.(check int) (lbl ^ " value") want v;
                  if not (Dom.mem v c.Column.dom) then
                    Alcotest.failf "%s: %d outside %s" lbl v (Dom.to_string c.Column.dom)
              | _ -> assert false)
            rows;
          (* the bound pass derives the same domain *)
          let col n = (Table.find t n).Column.dom in
          Alcotest.(check (pair int int)) (lbl ^ " bound")
            (c.Column.dom.lo, c.Column.dom.hi)
            (let d = Expr.bound ~col ~le:(fun _ _ -> false) e in
             (d.lo, d.hi)))
        exprs)
    Ctx.all_kinds

let test_agg_intervals () =
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:6 kind in
      let t = table ctx in
      let t = Dataflow.map t ~dst:"d" Expr.(col "c" -! col "a") in
      let agg src dst fn = { Dataflow.src; dst; fn } in
      let check_col lbl (c : Column.t) want =
        let v = decode c (Column.reconstruct c).(0) in
        Alcotest.(check int) lbl want v;
        if not (Dom.mem v c.Column.dom) then
          Alcotest.failf "%s: %d outside %s" lbl v (Dom.to_string c.Column.dom)
      in
      let g =
        Dataflow.global_aggregate t
          ~aggs:
            [
              agg "a" "sa" Dataflow.Sum;
              agg "d" "sd" Dataflow.Sum;
              agg "a" "n" Dataflow.Count;
              agg "b" "avg" Dataflow.Avg;
              agg "a" "lo" Dataflow.Min;
              agg "c" "hi" Dataflow.Max;
            ]
      in
      let sum f = List.fold_left (fun s r -> s + f r) 0 rows in
      let lbl s = Ctx.kind_label kind ^ " " ^ s in
      check_col (lbl "SUM(a)") (Table.find g "sa") (sum List.hd);
      check_col (lbl "SUM(c - a)") (Table.find g "sd")
        (sum (fun r -> List.nth r 2 - List.hd r));
      check_col (lbl "COUNT") (Table.find g "n") (List.length rows);
      check_col (lbl "AVG(b)") (Table.find g "avg") (sum (fun r -> List.nth r 1) / List.length rows);
      check_col (lbl "MIN(a)") (Table.find g "lo") 2;
      check_col (lbl "MAX(c)") (Table.find g "hi") 3;
      Alcotest.(check (pair int int)) (lbl "SUM ≤ rows·hi")
        (0, List.length rows * 7)
        ((Table.find g "sa").Column.dom.lo, (Table.find g "sa").Column.dom.hi))
    Ctx.all_kinds

(* ------------------------------------------------------------------ *)
(* Ingress                                                             *)
(* ------------------------------------------------------------------ *)

let expect_ingress_error what f parts =
  match f () with
  | _ -> Alcotest.failf "%s: shared an out-of-domain value" what
  | exception Invalid_argument msg ->
      List.iter
        (fun p ->
          if not (contains msg p) then Alcotest.failf "%s: %S does not name %S" what msg p)
        parts

let test_ingress_rejects () =
  let plain = Tpch_gen.generate ~seed:3 0.0005 in
  let bump col v (p : Ptable.t) =
    let i = Ptable.col_idx p col in
    match p.Ptable.rows with
    | r :: rest -> { p with Ptable.rows = List.mapi (fun j x -> if j = i then v else x) r :: rest }
    | [] -> p
  in
  let ctx = Ctx.create Ctx.Sh_hm in
  expect_ingress_error "lineitem discount"
    (fun () ->
      Tpch_gen.share ctx { plain with Tpch_gen.lineitem = bump "l_discount" 11 plain.Tpch_gen.lineitem })
    [ "lineitem"; "l_discount"; "11"; "[0, 10]" ];
  let orders = Ptable.nrows plain.Tpch_gen.orders in
  expect_ingress_error "order key past the cardinality"
    (fun () ->
      Tpch_gen.share ctx
        { plain with Tpch_gen.lineitem = bump "l_orderkey" (orders + 1) plain.Tpch_gen.lineitem })
    [ "lineitem"; "l_orderkey"; string_of_int (orders + 1); Printf.sprintf "[1, %d]" orders ];
  let other = Other_gen.generate ~seed:3 40 in
  expect_ingress_error "credit score"
    (fun () -> Other_gen.share ctx { other with Other_gen.credit = bump "score" 900 other.Other_gen.credit })
    [ "credit"; "score"; "900"; "[300, 849]" ];
  (* the generators' own data is inside its domains *)
  ignore (Tpch_gen.share ctx plain);
  ignore (Other_gen.share ctx other)

(* ------------------------------------------------------------------ *)
(* Refusal before any share moves                                      *)
(* ------------------------------------------------------------------ *)

let wide_sql =
  "SELECT l_orderkey, l_extendedprice, l_extendedprice * l_extendedprice * \
   l_extendedprice * l_extendedprice AS c FROM lineitem WHERE l_orderkey < 2"

let test_refused_before_shares_move () =
  let plain = Tpch_gen.generate ~seed:3 0.0005 in
  List.iter
    (fun kind ->
      let lbl s = Ctx.kind_label kind ^ " " ^ s in
      let ctx = Ctx.create ~seed:9 kind in
      let db = Tpch_gen.share ctx plain in
      let c0 = Comm.snapshot ctx.Ctx.comm and p0 = Comm.snapshot ctx.Ctx.preproc in
      let untouched what =
        let on = Comm.since ctx.Ctx.comm c0 and pre = Comm.since ctx.Ctx.preproc p0 in
        Alcotest.(check (pair int int)) (lbl (what ^ ": online rounds, bits")) (0, 0)
          (on.Comm.t_rounds, on.Comm.t_bits);
        Alcotest.(check int) (lbl (what ^ ": preprocessing bits")) 0 pre.Comm.t_bits
      in
      (match Sql.run (Tpch_gen.catalog db) wide_sql with
      | _ -> Alcotest.fail (lbl "Sql.run: over-wide query ran")
      | exception Dom.Refused msg ->
          if not (contains msg "l_extendedprice * l_extendedprice") then
            Alcotest.failf "%s: %S does not name the expression" (lbl "Sql.run") msg);
      untouched "Sql.run";
      (match Orq_service.Service.execute_sql ~ctx ~db ~qseed:1 ~max_rows:100 wide_sql with
      | Orq_net.Wire.Error_r { code = Orq_net.Wire.Bad_request; msg } ->
          if not (contains msg "refused") then
            Alcotest.failf "%s: %S is not a refusal" (lbl "service") msg
      | _ -> Alcotest.fail (lbl "service: expected a bad-request reply"));
      untouched "service";
      (* a hand plan raises at the operator, before its first event *)
      (match
         Dataflow.map db.Tpch_gen.m_lineitem ~dst:"c"
           Expr.(col "l_extendedprice" *! col "l_extendedprice" *! col "l_extendedprice"
                 *! col "l_extendedprice")
       with
      | _ -> Alcotest.fail (lbl "hand plan: over-wide map ran")
      | exception Dom.Refused _ -> ());
      (match
         Dataflow.aggregate db.Tpch_gen.m_lineitem ~keys:[ "l_returnflag" ]
           ~aggs:[ { Dataflow.src = "l_extendedprice"; dst = "s"; fn = Dataflow.Sum } ]
       with
      | _ -> ()
      | exception Dom.Refused msg -> Alcotest.failf "%s: refused a narrow SUM: %s" (lbl "") msg);
      ignore (Dom.check ~what:"narrow" (Dom.v 0 (1 lsl (Dom.max_width - 1)))))
    Ctx.all_kinds

(* ------------------------------------------------------------------ *)
(* Bounds at SF 10 from public sizes alone                             *)
(* ------------------------------------------------------------------ *)

(* The SQL the tests and the benchmark send: test_party's cluster suite
   and the service-mix templates (their literals do not move a bound). *)
let bench_sql =
  [
    "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem GROUP BY l_returnflag";
    "SELECT l_shipmode, SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_discount > 2 GROUP \
     BY l_shipmode";
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderpriority";
    "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 10";
    "SELECT c_mktsegment, COUNT(*) AS n, SUM(c_acctbal) AS bal FROM customer GROUP BY c_mktsegment";
    "SELECT p_brand, COUNT(*) AS n FROM part GROUP BY p_brand";
    "SELECT s_nationkey, COUNT(*) AS n FROM supplier GROUP BY s_nationkey";
    "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey";
    "SELECT o_orderpriority, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders WHERE \
     o_orderdate < 1000 GROUP BY o_orderpriority";
    "SELECT c_mktsegment, COUNT(*) AS n, SUM(c_acctbal) AS bal FROM customer WHERE c_acctbal > \
     31250 GROUP BY c_mktsegment";
    "SELECT p_brand, COUNT(*) AS n FROM part WHERE p_size > 20 GROUP BY p_brand";
    "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders JOIN customer ON \
     o_custkey = c_custkey WHERE o_orderdate < 1000 GROUP BY c_mktsegment";
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderdate < 1000 ORDER BY o_totalprice \
     DESC, o_orderkey LIMIT 10";
    "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem WHERE l_shipdate < \
     1000 GROUP BY l_returnflag";
  ]

let test_sf10_bounds () =
  let shapes = Tpch_gen.shapes 10.0 in
  (* a column a join renamed ([ON o_custkey = c_custkey]) takes the
     domain its new name has elsewhere in the schema: the same key *)
  let scan (t : Table.t) =
    let rows, schema = List.assoc t.Table.name shapes in
    let dom c =
      match List.assoc_opt c schema with
      | Some d -> d
      | None -> List.assoc c (List.concat_map (fun (_, (_, s)) -> s) shapes)
    in
    { Plan.sh_rows = rows; sh_doms = List.map (fun c -> (c, dom c)) (Table.col_names t) }
  in
  (* keys reach today's 24 bits at SF 10 *)
  let _, orders = List.assoc "orders" shapes in
  Alcotest.(check int) "o_orderkey width at SF 10" 24
    (Dom.width (List.assoc "o_orderkey" orders));
  let ctx = Ctx.create Ctx.Sh_dm in
  let db = Tpch_gen.share ctx (Tpch_gen.generate ~seed:3 0.0005) in
  let cat = Tpch_gen.catalog db in
  let bound sql =
    let plan, _ = Sql.parse_query cat sql in
    Plan.bounds ~scan (Orq_planner.Optimize.run plan)
  in
  List.iter
    (fun sql ->
      match bound sql with
      | _ -> ()
      | exception Dom.Refused msg -> Alcotest.failf "refused at SF 10: %s (%s)" sql msg)
    bench_sql;
  (match bound wide_sql with
  | _ -> Alcotest.fail "over-wide query bounded at SF 10"
  | exception Dom.Refused _ -> ());
  (* Q1's and Q18's sums, as plans over lineitem *)
  let li = Plan.scan db.Tpch_gen.m_lineitem in
  let sum src dst = { Dataflow.src; dst; fn = Dataflow.Sum } in
  let q1 =
    Plan.aggregate ~keys:[ "l_returnflag"; "l_linestatus" ]
      ~aggs:
        [
          sum "l_quantity" "sum_qty";
          sum "l_extendedprice" "sum_base";
          sum "disc_price" "sum_disc_price";
          sum "charge" "sum_charge";
          { Dataflow.src = "l_quantity"; dst = "avg_qty"; fn = Dataflow.Avg };
        ]
      (Plan.map "charge"
         Expr.(Div_pub (col "disc_price" *! (const 100 +! col "l_tax"), 100))
         (Plan.map "disc_price"
            Expr.(Div_pub (col "l_extendedprice" *! (const 100 -! col "l_discount"), 100))
            li))
  in
  let q18 =
    Plan.aggregate ~keys:[ "l_orderkey" ] ~aggs:[ sum "l_quantity" "sum_qty" ] li
  in
  List.iter
    (fun (name, plan) ->
      match Plan.bounds ~scan plan with
      | sh ->
          List.iter
            (fun (c, d) ->
              if Dom.width d > Dom.max_width then Alcotest.failf "%s.%s too wide" name c)
            sh.Plan.sh_doms
      | exception Dom.Refused msg -> Alcotest.failf "%s refused at SF 10: %s" name msg)
    [ ("Q1", q1); ("Q18", q18) ]

let () =
  Alcotest.run "domains"
    [
      ( "domains",
        [
          Alcotest.test_case "expression intervals contain every value" `Quick
            test_expr_intervals;
          Alcotest.test_case "aggregate intervals contain every value" `Quick
            test_agg_intervals;
          Alcotest.test_case "ingress rejects out-of-domain values" `Quick
            test_ingress_rejects;
          Alcotest.test_case "over-wide query refused before shares move" `Quick
            test_refused_before_shares_move;
          Alcotest.test_case "SF 10 bounds fit the ring" `Quick test_sf10_bounds;
        ] );
    ]
