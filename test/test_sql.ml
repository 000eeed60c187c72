(* Tests for the SQL front-end: lexing/parsing, lowering to logical plans,
   execution against the plaintext reference, aggregates, joins (incl.
   the automatic many-to-many rewrite reached from SQL), ORDER BY/LIMIT,
   and parse-error reporting. *)

open Orq_proto
open Orq_core
open Orq_planner

let rows_t = Alcotest.(list (list int))
let hm () = Ctx.create ~seed:71 Ctx.Sh_hm

let catalog ctx : Sql.catalog =
  let customers =
    Table.create ctx "customers"
      [ ("cust", 8, [| 1; 2; 3; 4 |]); ("seg", 4, [| 1; 2; 1; 2 |]) ]
  in
  let orders =
    Table.create ctx "orders"
      [
        ("cust", 8, [| 2; 1; 2; 3; 2; 9 |]);
        ("oid", 8, [| 1; 2; 3; 4; 5; 6 |]);
        ("price", 10, [| 10; 20; 30; 40; 50; 60 |]);
        ("disc", 7, [| 0; 50; 10; 25; 0; 0 |]);
      ]
  in
  let visits_a = Table.create ctx "va" [ ("pid", 4, [| 1; 1; 2 |]) ] in
  let visits_b =
    Table.create ctx "vb" [ ("pid", 4, [| 1; 2; 2 |]); ("cost", 8, [| 5; 7; 9 |]) ]
  in
  fun name ->
    match name with
    | "customers" -> (customers, [ [ "cust" ] ])
    | "orders" -> (orders, [ [ "oid" ] ])
    | "va" -> (visits_a, [])
    | "vb" -> (visits_b, [])
    | _ -> raise Not_found

let run sql =
  let ctx = hm () in
  let t, cols, fb = Sql.run (catalog ctx) sql in
  (Table.valid_rows_sorted t cols, fb)

let test_select_where () =
  let rows, fb = run "SELECT oid, price FROM orders WHERE price >= 30 AND disc < 25" in
  Alcotest.(check int) "no fallback" 0 fb;
  Alcotest.(check rows_t) "filtered rows" [ [ 3; 30 ]; [ 5; 50 ]; [ 6; 60 ] ] rows

let test_derived_column () =
  let rows, _ =
    run "SELECT oid, price * (100 - disc) / 100 AS net FROM orders WHERE disc > 0"
  in
  Alcotest.(check rows_t) "net prices" [ [ 2; 10 ]; [ 3; 27 ]; [ 4; 30 ] ] rows

(* GROUP BY without aggregates is DISTINCT on the keys *)
let test_group_by_no_aggregate () =
  let rows, _ = run "SELECT cust FROM orders WHERE price > 10 GROUP BY cust" in
  Alcotest.(check rows_t) "one row per key" [ [ 1 ]; [ 2 ]; [ 3 ]; [ 9 ] ] rows

let test_join_group () =
  let rows, fb =
    run
      "SELECT cust, SUM(price) AS total, COUNT(*) AS n FROM customers JOIN \
       orders USING (cust) WHERE seg = 2 GROUP BY cust"
  in
  Alcotest.(check int) "no fallback" 0 fb;
  Alcotest.(check rows_t) "per-customer totals" [ [ 2; 90; 3 ] ] rows

let test_join_on_syntax () =
  let rows, _ =
    run "SELECT cust, oid FROM customers JOIN orders ON cust = cust WHERE seg = 1"
  in
  Alcotest.(check rows_t) "ON join" [ [ 1; 2 ]; [ 3; 4 ] ] rows

let test_join_on_rename () =
  (* ON with distinct names renames the right column into the left's:
     cust(1..4) against vb.pid(1,2,2) — TPC-H-style prefixed schemas
     join without a rename view *)
  let rows, fb = run "SELECT cust, cost FROM customers JOIN vb ON cust = pid" in
  Alcotest.(check int) "no fallback" 0 fb;
  Alcotest.(check rows_t) "renamed ON join"
    [ [ 1; 5 ]; [ 2; 7 ]; [ 2; 9 ] ]
    rows;
  (* renaming onto a name the right table already carries is ambiguous *)
  match run "SELECT cust FROM customers JOIN orders ON cust = oid" with
  | exception Sql.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected ambiguity error for ON cust = oid"

let test_order_limit () =
  let ctx = hm () in
  let t, _, _ =
    Sql.run (catalog ctx)
      "SELECT oid, price FROM orders ORDER BY price DESC LIMIT 2"
  in
  let cols, _ = Table.peek t in
  Alcotest.(check (array int)) "top-2 by price" [| 60; 50 |]
    (List.assoc "price" cols)

(* The analyst receives ORDER BY ... LIMIT rows in order, under every
   protocol: the reveal's shuffle hides which physical rows were valid,
   then the opened rows are sorted by the public spec. A signed key
   orders as two's complement. *)
let test_order_reaches_analyst () =
  List.iter
    (fun kind ->
      let lbl = Ctx.kind_label kind in
      let opened sql =
        let ctx = Ctx.create ~seed:71 kind in
        let t, cols, _ = Sql.run (catalog ctx) sql in
        let r = Table.reveal t in
        let n = Array.length (List.assoc (List.hd cols) r) in
        List.init n (fun i -> List.map (fun c -> (List.assoc c r).(i)) cols)
      in
      Alcotest.(check rows_t) (lbl ^ " cust desc, oid")
        [ [ 9; 6 ]; [ 3; 4 ]; [ 2; 3 ]; [ 2; 5 ] ]
        (opened
           "SELECT cust, oid FROM orders WHERE oid > 1 ORDER BY cust DESC, oid \
            LIMIT 4");
      Alcotest.(check (list int)) (lbl ^ " signed key")
        [ 1; 2; 3; 4 ]
        (List.map List.hd
           (opened "SELECT oid, price - 35 AS d FROM orders ORDER BY d LIMIT 4")))
    Ctx.all_kinds

let test_min_max_avg () =
  let rows, _ =
    run
      "SELECT seg, MIN(price) AS lo, MAX(price) AS hi, AVG(price) AS mean \
       FROM customers JOIN orders USING (cust) GROUP BY seg"
  in
  (* seg 1: cust 1,3 -> prices 20,40 ; seg 2: cust 2 -> 10,30,50 *)
  Alcotest.(check rows_t) "min/max/avg"
    [ [ 1; 20; 40; 30 ]; [ 2; 10; 50; 30 ] ]
    rows

let test_many_to_many_from_sql () =
  (* duplicates on both sides: the planner must auto pre-aggregate *)
  let rows, fb =
    run "SELECT pid, SUM(cost) AS s FROM va JOIN vb USING (pid) GROUP BY pid"
  in
  Alcotest.(check int) "rewritten, no quadratic fallback" 0 fb;
  (* pid 1: 2 left rows x cost 5 = 10; pid 2: 1 x (7 + 9) = 16 *)
  Alcotest.(check rows_t) "m2m sum via SQL" [ [ 1; 10 ]; [ 2; 16 ] ] rows

let test_parse_errors () =
  let expect_err sql =
    match run sql with
    | exception Sql.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" sql
  in
  expect_err "SELECT";
  expect_err "SELECT x FROM";
  expect_err "SELECT x FROM t LIMIT 3";
  expect_err "SELECT SUM(x) AS s FROM orders";
  expect_err "SELECT x FROM orders WHERE price !";
  expect_err "SELECT cust FROM customers JOIN orders ON zzz = qqq"

let test_unknown_table () =
  (* a catalog miss (raw [Not_found]) must surface as a clean
     [Parse_error] so servers can return an error frame *)
  match run "SELECT x FROM nosuch" with
  | exception Sql.Parse_error msg ->
      Alcotest.(check string) "message" "unknown table: nosuch" msg
  | exception e ->
      Alcotest.failf "expected Parse_error, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Parse_error"

let test_vs_plaintext () =
  (* cross-check the SQL path against the plaintext engine *)
  let module P = Orq_plaintext.Ptable in
  let rows, _ =
    run
      "SELECT seg, SUM(price) AS total FROM customers JOIN orders USING \
       (cust) WHERE price < 50 GROUP BY seg"
  in
  let pc = P.of_cols [ ("cust", [| 1; 2; 3; 4 |]); ("seg", [| 1; 2; 1; 2 |]) ] in
  let po =
    P.of_cols
      [
        ("cust", [| 2; 1; 2; 3; 2; 9 |]);
        ("oid", [| 1; 2; 3; 4; 5; 6 |]);
        ("price", [| 10; 20; 30; 40; 50; 60 |]);
      ]
  in
  let j = P.inner_join pc po ~on:[ "cust" ] in
  let j = P.filter j (fun g r -> g "price" r < 50) in
  let g = P.group_by j ~keys:[ "seg" ] ~aggs:[ { P.src = "price"; dst = "total"; fn = P.Sum } ] in
  Alcotest.(check rows_t) "sql = plaintext" (P.rows_sorted g [ "seg"; "total" ]) rows

let suite =
  [
    Alcotest.test_case "select + where" `Quick test_select_where;
    Alcotest.test_case "derived columns (AS)" `Quick test_derived_column;
    Alcotest.test_case "join + group by" `Quick test_join_group;
    Alcotest.test_case "group by without aggregates" `Quick test_group_by_no_aggregate;
    Alcotest.test_case "ON join syntax" `Quick test_join_on_syntax;
    Alcotest.test_case "ON join rename" `Quick test_join_on_rename;
    Alcotest.test_case "order by + limit" `Quick test_order_limit;
    Alcotest.test_case "order by reaches the analyst" `Quick
      test_order_reaches_analyst;
    Alcotest.test_case "min/max/avg" `Quick test_min_max_avg;
    Alcotest.test_case "many-to-many via SQL" `Quick test_many_to_many_from_sql;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "unknown table" `Quick test_unknown_table;
    Alcotest.test_case "sql vs plaintext" `Quick test_vs_plaintext;
  ]

let () = Alcotest.run "orq_sql" [ ("sql", suite) ]
