(* Tests for the relational core: tables, expressions/filters, TableSort,
   the aggregation network, group-by, DISTINCT, ORDER BY / LIMIT, and every
   variant of the composite join-aggregation operator — validated against
   the plaintext reference engine. *)

open Orq_proto
open Orq_core
open Orq_plaintext

let kinds = Ctx.all_kinds
let vec = Alcotest.(array int)
let rows_t = Alcotest.(list (list int))
let for_all_kinds f = List.iter (fun k -> f (Ctx.create ~seed:51 k)) kinds
let hm () = Ctx.create ~seed:77 Ctx.Sh_hm

(* ---------------- tables + reveal ---------------- *)

let mk_customers ctx =
  Table.create ctx "customers"
    [
      ("CustKey", 8, [| 1; 2; 3; 4; 5 |]);
      ("Segment", 4, [| 1; 2; 1; 3; 1 |]);
      ("Balance", 16, [| 100; 250; 50; 999; 0 |]);
    ]

let test_create_peek () =
  for_all_kinds (fun ctx ->
      let t = mk_customers ctx in
      let cols, valid = Table.peek t in
      Alcotest.(check vec) "col" [| 1; 2; 3; 4; 5 |] (List.assoc "CustKey" cols);
      Alcotest.(check vec) "valid" [| 1; 1; 1; 1; 1 |] valid)

let test_reveal_masks_invalid () =
  for_all_kinds (fun ctx ->
      let t = mk_customers ctx in
      let t = Dataflow.filter t Expr.(col "Segment" ==. const 1) in
      let out = Table.reveal t in
      let keys = List.assoc "CustKey" out in
      Array.sort compare keys;
      Alcotest.(check vec) "only matching rows revealed" [| 1; 3; 5 |] keys;
      (* physical size unchanged before reveal: obliviousness *)
      Alcotest.(check int) "physical rows" 5 (Table.nrows t))

(* The masking AND and the opening are each one fused round over every
   column, so the reveal label's own rounds (its shuffle is labelled
   apart) are exactly two under SH-DM and Mal-HM. Under SH-HM the opening
   rides the shuffle's last round, leaving the AND alone. *)
let test_reveal_two_rounds () =
  List.iter
    (fun k ->
      let ctx = Ctx.create ~seed:51 k in
      let t =
        Dataflow.filter (mk_customers ctx) Expr.(col "Segment" ==. const 1)
      in
      Orq_net.Comm.start_recording ctx.Ctx.comm;
      let out = Table.reveal t in
      let rounds =
        Array.fold_left
          (fun acc (e : Orq_net.Comm.event) ->
            if e.ev_label = "reveal" then acc + e.ev_rounds else acc)
          0
          (Orq_net.Comm.transcript ctx.Ctx.comm)
      in
      Orq_net.Comm.stop_recording ctx.Ctx.comm;
      let tag = Ctx.kind_label k in
      Alcotest.(check int) (tag ^ " reveal rounds")
        (if k = Ctx.Sh_hm then 1 else 2)
        rounds;
      let sorted name =
        let v = Array.copy (List.assoc name out) in
        Array.sort compare v;
        v
      in
      Alcotest.(check vec) (tag ^ " keys") [| 1; 3; 5 |] (sorted "CustKey");
      Alcotest.(check vec) (tag ^ " balances") [| 0; 50; 100 |]
        (sorted "Balance"))
    kinds

(* Under Mal-HM a party corrupting its share of the fused opening is
   caught. *)
let test_reveal_tamper_aborts () =
  let ctx = Ctx.create ~seed:51 Ctx.Mal_hm in
  let t = mk_customers ctx in
  let tampered ~party ~op = if party = 0 && op = "open" then Some 1 else None in
  Alcotest.check_raises "tampered reveal aborts"
    (Ctx.Abort "open: share/hash mismatch detected") (fun () ->
      Ctx.with_tamper ctx tampered (fun () -> ignore (Table.reveal t)))

(* ---------------- expressions / filters ---------------- *)

let test_filter_exprs () =
  for_all_kinds (fun ctx ->
      let t = mk_customers ctx in
      let t' =
        Dataflow.filter t
          Expr.(col "Balance" >=. const 100 &&. (col "Segment" <>. const 3))
      in
      Alcotest.(check rows_t) "compound filter"
        [ [ 1 ]; [ 2 ] ]
        (Table.valid_rows_sorted t' [ "CustKey" ]))

let test_filter_or_not () =
  for_all_kinds (fun ctx ->
      let t = mk_customers ctx in
      let t' =
        Dataflow.filter t
          Expr.(col "Segment" ==. const 3 ||. Not (col "Balance" >. const 0))
      in
      Alcotest.(check rows_t) "or/not" [ [ 4 ]; [ 5 ] ]
        (Table.valid_rows_sorted t' [ "CustKey" ]))

let test_map_arith () =
  for_all_kinds (fun ctx ->
      let t =
        Table.create ctx "li"
          [ ("Price", 16, [| 1000; 200 |]); ("Disc", 8, [| 10; 25 |]) ]
      in
      (* Revenue = Price * (100 - Disc) / 100, the Q3 expression *)
      let t =
        Dataflow.map t ~dst:"Revenue"
          Expr.(Div_pub (col "Price" *! (const 100 -! col "Disc"), 100))
      in
      Alcotest.(check rows_t) "revenue" [ [ 150 ]; [ 900 ] ]
        (Table.valid_rows_sorted t [ "Revenue" ]))

let test_private_division_expr () =
  let ctx = hm () in
  let t =
    Table.create ctx "d" [ ("A", 16, [| 100; 81 |]); ("B", 8, [| 7; 9 |]) ]
  in
  let t = Dataflow.map t ~dst:"Q" Expr.(Div (col "A", col "B")) in
  Alcotest.(check rows_t) "private division" [ [ 9 ]; [ 14 ] ]
    (Table.valid_rows_sorted t [ "Q" ])

(* ---------------- TableSort ---------------- *)

let test_tablesort_multikey () =
  for_all_kinds (fun ctx ->
      let t =
        Table.create ctx "s"
          [
            ("A", 8, [| 2; 1; 2; 1; 1 |]);
            ("B", 8, [| 5; 9; 3; 9; 1 |]);
            ("C", 8, [| 0; 1; 2; 3; 4 |]);
          ]
      in
      let t = Tablesort.sort t [ ("A", Tablesort.Asc); ("B", Tablesort.Desc) ] in
      let cols, _ = Table.peek t in
      Alcotest.(check vec) "A" [| 1; 1; 1; 2; 2 |] (List.assoc "A" cols);
      Alcotest.(check vec) "B desc in group" [| 9; 9; 1; 5; 3 |]
        (List.assoc "B" cols);
      (* stability: the two (1, 9) rows keep original order (C = 1 then 3) *)
      Alcotest.(check vec) "C moved consistently" [| 1; 3; 4; 0; 2 |]
        (List.assoc "C" cols))

(* Every column moves at its declared width: a TableSort over 1-, 8- and
   24-bit columns (plus the 1-bit validity) costs exactly the closed-form
   online bits of the radix path the rule takes ({!Radix_cost.chosen}:
   carry every column through the digits, or rank the packed key with a
   [Ring.index_bits 8] = 3-bit index, invert it and apply sigma), and the
   values still sort. *)
let test_tablesort_width_tally () =
  List.iter
    (fun k ->
      let ctx = Ctx.create ~seed:51 k in
      let t =
        Table.create ctx "w"
          [
            ("F", 1, [| 1; 0; 1; 1; 0; 0; 1; 0 |]);
            ("M", 8, [| 200; 3; 77; 3; 150; 12; 0; 255 |]);
            ("W", 24, [| 1; 70_000; 3; 16_000_000; 5; 6; 7; 8 |]);
          ]
      in
      let bits specs =
        let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
        let t' = Tablesort.sort t specs in
        (t', (Orq_net.Comm.since ctx.Ctx.comm before).Orq_net.Comm.t_bits)
      in
      let bits_of keys payload =
        (Radix_cost.chosen k ~n:8 ~keys ~payload).Orq_net.Comm.t_bits
      in
      let single = bits_of [ 8 ] [ 1; 24; 1 ] and multi = bits_of [ 1; 8 ] [ 24; 1 ] in
      let tag = Ctx.kind_label k in
      let t1, b1 = bits [ ("M", Tablesort.Asc) ] in
      let cols, _ = Table.peek t1 in
      Alcotest.(check vec) (tag ^ " M sorted")
        [| 0; 3; 3; 12; 77; 150; 200; 255 |]
        (List.assoc "M" cols);
      Alcotest.(check vec) (tag ^ " W follows")
        [| 7; 70_000; 16_000_000; 6; 3; 5; 1; 8 |]
        (List.assoc "W" cols);
      Alcotest.(check int) (tag ^ " single-key bits") single b1;
      let t2, b2 = bits [ ("F", Tablesort.Desc); ("M", Tablesort.Asc) ] in
      let cols, _ = Table.peek t2 in
      Alcotest.(check vec) (tag ^ " F desc") [| 1; 1; 1; 1; 0; 0; 0; 0 |]
        (List.assoc "F" cols);
      Alcotest.(check vec) (tag ^ " M within F")
        [| 0; 3; 77; 200; 3; 12; 150; 255 |]
        (List.assoc "M" cols);
      Alcotest.(check int) (tag ^ " multi-key bits") multi b2)
    Ctx.all_kinds

(* A value with bits at or above its column's width is refused at
   ingress. *)
let test_create_rejects_out_of_width () =
  for_all_kinds (fun ctx ->
      match Table.create ctx "bad" [ ("K", 4, [| 3; 16; 5 |]) ] with
      | _ -> Alcotest.fail "16 accepted as a 4-bit value"
      | exception Invalid_argument msg ->
          Alcotest.(check string) "names value and width"
            "Column.of_plaintext: value 16 does not fit width 4" msg)

(* ---------------- AggNet ---------------- *)

let test_aggnet_sum_copy () =
  for_all_kinds (fun ctx ->
      (* sorted keys: groups (1, 1), (2), (3, 3, 3) -- plus valid column 1s *)
      let keys =
        [
          (Share.public ctx Share.Bool 6 1, 1);
          (Share.share ctx Share.Bool [| 1; 1; 2; 3; 3; 3 |], 4);
        ]
      in
      let vals = Share.share ctx Share.Arith [| 10; 20; 5; 1; 2; 3 |] in
      let tags = Share.share ctx Share.Bool [| 7; 0; 9; 4; 0; 0 |] in
      match
        Aggnet.run ctx ~keys
          [
            { Aggnet.col = vals; func = Aggnet.Sum; keys = Aggnet.Group; width = 16 };
            { Aggnet.col = tags; func = Aggnet.Copy; keys = Aggnet.Group; width = 8 };
          ]
      with
      | [ sums; copies ] ->
          let s = Share.reconstruct sums in
          (* group totals land in the last row of each group *)
          Alcotest.(check int) "group1 total" 30 s.(1);
          Alcotest.(check int) "group2 total" 5 s.(2);
          Alcotest.(check int) "group3 total" 6 s.(5);
          Alcotest.(check vec) "copy propagates first row down"
            [| 7; 7; 9; 4; 4; 4 |] (Share.reconstruct copies)
      | _ -> Alcotest.fail "arity")

let test_aggnet_minmax () =
  for_all_kinds (fun ctx ->
      let keys =
        [
          (Share.public ctx Share.Bool 5 1, 1);
          (Share.share ctx Share.Bool [| 1; 1; 1; 2; 2 |], 4);
        ]
      in
      let vals = Share.share ctx Share.Bool [| 9; 2; 5; 7; 8 |] in
      match
        Aggnet.run ctx ~keys
          [
            { Aggnet.col = vals; func = Aggnet.Min 8; keys = Aggnet.Group; width = 8 };
            { Aggnet.col = vals; func = Aggnet.Max 8; keys = Aggnet.Group; width = 8 };
          ]
      with
      | [ mins; maxs ] ->
          Alcotest.(check int) "min" 2 (Share.reconstruct mins).(2);
          Alcotest.(check int) "max" 9 (Share.reconstruct maxs).(2);
          Alcotest.(check int) "min g2" 7 (Share.reconstruct mins).(4);
          Alcotest.(check int) "max g2" 8 (Share.reconstruct maxs).(4)
      | _ -> Alcotest.fail "arity")

let test_aggnet_non_pow2_padding () =
  (* 6 rows pad to 8; padded rows must not contaminate real groups *)
  let ctx = hm () in
  let keys =
    [
      (Share.public ctx Share.Bool 6 1, 1);
      (Share.share ctx Share.Bool [| 0; 0; 0; 0; 0; 0 |], 4);
    ]
  in
  (* all six rows in ONE group with key 0 (same as padding!) but valid=1 *)
  let vals = Share.share ctx Share.Arith [| 1; 1; 1; 1; 1; 1 |] in
  match
    Aggnet.run ctx ~keys
      [ { Aggnet.col = vals; func = Aggnet.Sum; keys = Aggnet.Group; width = 8 } ]
  with
  | [ sums ] ->
      Alcotest.(check int) "sum unharmed by padding" 6
        (Share.reconstruct sums).(5)
  | _ -> Alcotest.fail "arity"

(* ---------------- group-by / distinct / order-by ---------------- *)

let test_group_by () =
  for_all_kinds (fun ctx ->
      let t =
        Table.create ctx "sales"
          [
            ("Region", 4, [| 1; 2; 1; 2; 1; 3 |]);
            ("Amount", 10, [| 10; 20; 30; 40; 50; 60 |]);
          ]
      in
      let t' =
        Dataflow.aggregate t ~keys:[ "Region" ]
          ~aggs:
            [
              { Dataflow.src = "Amount"; dst = "Total"; fn = Dataflow.Sum };
              { Dataflow.src = "Amount"; dst = "N"; fn = Dataflow.Count };
              { Dataflow.src = "Amount"; dst = "Lo"; fn = Dataflow.Min };
              { Dataflow.src = "Amount"; dst = "Hi"; fn = Dataflow.Max };
            ]
      in
      Alcotest.(check rows_t) "group-by"
        [ [ 1; 90; 3; 10; 50 ]; [ 2; 60; 2; 20; 40 ]; [ 3; 60; 1; 60; 60 ] ]
        (Table.valid_rows_sorted t' [ "Region"; "Total"; "N"; "Lo"; "Hi" ]))

let test_group_by_avg () =
  let ctx = hm () in
  let t =
    Table.create ctx "m"
      [ ("G", 4, [| 1; 1; 2 |]); ("X", 8, [| 10; 21; 5 |]) ]
  in
  let t' =
    Dataflow.aggregate t ~keys:[ "G" ]
      ~aggs:[ { Dataflow.src = "X"; dst = "A"; fn = Dataflow.Avg } ]
  in
  Alcotest.(check rows_t) "avg" [ [ 1; 15 ]; [ 2; 5 ] ]
    (Table.valid_rows_sorted t' [ "G"; "A" ])

(* AVG bounds its quotient by the source width: groups whose every value
   is the source maximum, single-row groups and a zero group stay exact,
   grouped and global, and the result takes the source width. *)
let test_avg_at_source_max () =
  for_all_kinds (fun ctx ->
      let t =
        Table.create ctx "m"
          [
            ("G", 4, [| 1; 1; 1; 2; 3; 4; 4 |]);
            ("X", 8, [| 255; 255; 255; 255; 0; 7; 255 |]);
          ]
      in
      let avg = [ { Dataflow.src = "X"; dst = "A"; fn = Dataflow.Avg } ] in
      let g = Dataflow.aggregate t ~keys:[ "G" ] ~aggs:avg in
      Alcotest.(check rows_t) "grouped"
        [ [ 1; 255 ]; [ 2; 255 ]; [ 3; 0 ]; [ 4; 131 ] ]
        (Table.valid_rows_sorted g [ "G"; "A" ]);
      Alcotest.(check int) "grouped width" 8 (Table.width g "A");
      let t = Dataflow.filter t Expr.(col "G" <=. const 2) in
      let g = Dataflow.global_aggregate t ~aggs:avg in
      Alcotest.(check rows_t) "global" [ [ 255 ] ] (Table.valid_rows_sorted g [ "A" ]);
      Alcotest.(check int) "global width" 8 (Table.width g "A"))

let rounds_of ctx f =
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let r = f () in
  (r, (Orq_net.Comm.since ctx.Ctx.comm before).Orq_net.Comm.t_rounds)

(* Ratio shapes 100·ΣIf(p, x, 0) / Σx: grouped (Q8), global (Q14) and a
   grouped sum over the global one (market share). The dominance facts
   bound each quotient to 7 bits; the ratio is exact at its extremes (all
   rows, no row, single rows), and the plan shape alone decides. *)
let ratio_table ctx =
  Table.create ctx "r"
    [
      ("G", 4, [| 1; 1; 2; 2; 3; 4; 4 |]);
      ("P", 1, [| 1; 1; 0; 0; 1; 1; 0 |]);
      ("X", 20, [| 1048575; 1048575; 9; 1; 1; 3; 997 |]);
    ]

let test_ratio_dominance () =
  for_all_kinds (fun ctx ->
      let t = ratio_table ctx in
      let t = Dataflow.map t ~dst:"PX" Expr.(If (col "P" ==. const 1, col "X", const 0)) in
      Alcotest.(check bool) "If(p, x, 0) <= x" true (Table.le t "PX" "X");
      let sums =
        [
          { Dataflow.src = "PX"; dst = "num"; fn = Dataflow.Sum };
          { Dataflow.src = "X"; dst = "den"; fn = Dataflow.Sum };
        ]
      in
      let ratio t = Dataflow.map t ~dst:"pct" Expr.(Div (col "num" *! const 100, col "den")) in
      let g = Dataflow.aggregate t ~keys:[ "G" ] ~aggs:sums in
      Alcotest.(check bool) "sums keep the fact" true (Table.le g "num" "den");
      let g = ratio g in
      Alcotest.(check rows_t) "grouped ratio"
        [ [ 1; 100 ]; [ 2; 0 ]; [ 3; 100 ]; [ 4; 0 ] ]
        (Table.valid_rows_sorted g [ "G"; "pct" ]);
      Alcotest.(check int) "grouped quotient width" 7 (Table.width g "pct");
      let gl = ratio (Dataflow.global_aggregate t ~aggs:sums) in
      Alcotest.(check rows_t) "global ratio"
        [ [ 2097154 * 100 / 2098161 ] ]
        (Table.valid_rows_sorted gl [ "pct" ]);
      Alcotest.(check int) "global quotient width" 7 (Table.width gl "pct");
      let total =
        Dataflow.global_aggregate t ~aggs:[ { Dataflow.src = "X"; dst = "tot"; fn = Dataflow.Sum } ]
      in
      let per =
        Dataflow.aggregate t ~keys:[ "G" ]
          ~aggs:[ { Dataflow.src = "X"; dst = "vol"; fn = Dataflow.Sum } ]
      in
      let per = Dataflow.with_scalar per ~scalar:total ~src:"tot" ~dst:"tot" in
      Alcotest.(check bool) "group sum <= global sum" true (Table.le per "vol" "tot");
      let share = Dataflow.map per ~dst:"pct" Expr.(Div (col "vol" *! const 100, col "tot")) in
      Alcotest.(check rows_t) "market share"
        [ [ 1; 99 ]; [ 2; 0 ]; [ 3; 0 ]; [ 4; 0 ] ]
        (Table.valid_rows_sorted share [ "G"; "pct" ]);
      Alcotest.(check int) "market share width" 7 (Table.width share "pct");
      (* overwriting or projecting away a column drops its facts *)
      let over = Dataflow.map g ~dst:"num" Expr.(col "den" +! const 1) in
      Alcotest.(check bool) "overwrite drops" false (Table.le over "num" "den");
      let proj = Table.project g [ "G"; "num" ] in
      Alcotest.(check bool) "projection drops" false (Table.le proj "num" "den");
      let other = Table.create ctx "o" [ ("X", 20, [| 1 |]) ] in
      let foreign =
        Dataflow.with_scalar per
          ~scalar:(Dataflow.global_aggregate other ~aggs:[ { Dataflow.src = "X"; dst = "tot"; fn = Dataflow.Sum } ])
          ~src:"tot" ~dst:"tot"
      in
      Alcotest.(check bool) "a sum over another table is no bound" false
        (Table.le foreign "vol" "tot"))

(* Without a dominance fact the divisor may be the smaller side:
   Div (b·100, a) over a <= b keeps all w iterations and stays exact, at
   the rounds of the same division on a table with no facts. *)
let test_ratio_without_fact () =
  for_all_kinds (fun ctx ->
      let t = ratio_table ctx in
      let t = Dataflow.map t ~dst:"PX" Expr.(If (col "P" ==. const 1, col "X", const 1)) in
      let t = Dataflow.map t ~dst:"A" Expr.(If (col "P" ==. const 1, col "X", const 0)) in
      Alcotest.(check bool) "fact made" true (Table.le t "A" "X");
      let inv = Expr.(Div (col "X" *! const 100, col "PX")) in
      let with_fact, r1 = rounds_of ctx (fun () -> Dataflow.map t ~dst:"Q" inv) in
      let bare = Table.of_columns ctx "bare" ~valid:t.Table.valid t.Table.cols in
      let _, r0 = rounds_of ctx (fun () -> Dataflow.map bare ~dst:"Q" inv) in
      Alcotest.(check int) "no fact, full width" r0 r1;
      Alcotest.(check rows_t) "exact"
        [ [ 100 ]; [ 100 ]; [ 100 ]; [ 100 ]; [ 100 ]; [ 900 ]; [ 99700 ] ]
        (Table.valid_rows_sorted with_fact [ "Q" ]);
      let _, bounded =
        rounds_of ctx (fun () ->
            Dataflow.map t ~dst:"Q" Expr.(Div (col "A" *! const 100, col "X")))
      in
      Alcotest.(check bool) "the bounded direction is cheaper" true (bounded < r0))

let test_group_by_respects_filter () =
  let ctx = hm () in
  let t =
    Table.create ctx "s"
      [ ("G", 4, [| 1; 1; 1; 2 |]); ("X", 8, [| 5; 7; 100; 3 |]) ]
  in
  let t = Dataflow.filter t Expr.(col "X" <. const 50) in
  let t' =
    Dataflow.aggregate t ~keys:[ "G" ]
      ~aggs:[ { Dataflow.src = "X"; dst = "S"; fn = Dataflow.Sum } ]
  in
  Alcotest.(check rows_t) "invalid rows excluded from groups"
    [ [ 1; 12 ]; [ 2; 3 ] ]
    (Table.valid_rows_sorted t' [ "G"; "S" ])

let test_distinct () =
  for_all_kinds (fun ctx ->
      let t =
        Table.create ctx "d" [ ("X", 8, [| 3; 1; 3; 2; 1; 3 |]) ]
      in
      let t' = Dataflow.distinct t [ "X" ] in
      Alcotest.(check rows_t) "distinct" [ [ 1 ]; [ 2 ]; [ 3 ] ]
        (Table.valid_rows_sorted t' [ "X" ]))

let test_order_by_limit () =
  for_all_kinds (fun ctx ->
      let t =
        Table.create ctx "o"
          [ ("K", 8, [| 5; 9; 1; 7; 3 |]); ("V", 8, [| 50; 90; 10; 70; 30 |]) ]
      in
      let t = Dataflow.filter t Expr.(col "K" <>. const 7) in
      let t' = Dataflow.limit (Dataflow.order_by t [ ("K", Dataflow.Desc) ]) 2 in
      let cols, valid = Table.peek t' in
      Alcotest.(check int) "limit size" 2 (Table.nrows t');
      Alcotest.(check vec) "top-2 keys desc" [| 9; 5 |] (List.assoc "K" cols);
      Alcotest.(check vec) "values follow" [| 90; 50 |] (List.assoc "V" cols);
      Alcotest.(check vec) "all valid" [| 1; 1 |] valid)

(* ---------------- joins ---------------- *)

let customers_orders ctx =
  let c =
    Table.create ctx "C"
      [ ("CustKey", 8, [| 1; 2; 3; 4 |]); ("Nation", 5, [| 10; 20; 10; 30 |]) ]
  in
  let o =
    Table.create ctx "O"
      [
        ("CustKey", 8, [| 2; 1; 2; 5; 2; 3 |]);
        ("Price", 10, [| 100; 50; 30; 999; 20; 70 |]);
      ]
  in
  (c, o)

let p_customers_orders () =
  let c =
    Ptable.of_cols [ ("CustKey", [| 1; 2; 3; 4 |]); ("Nation", [| 10; 20; 10; 30 |]) ]
  in
  let o =
    Ptable.of_cols
      [ ("CustKey", [| 2; 1; 2; 5; 2; 3 |]); ("Price", [| 100; 50; 30; 999; 20; 70 |]) ]
  in
  (c, o)

let test_inner_join () =
  for_all_kinds (fun ctx ->
      let c, o = customers_orders ctx in
      let j = Dataflow.inner_join c o ~on:[ "CustKey" ] ~copy:[ "Nation" ] in
      let pc, po = p_customers_orders () in
      let pj = Ptable.inner_join pc po ~on:[ "CustKey" ] in
      Alcotest.(check rows_t) "inner join vs plaintext"
        (Ptable.rows_sorted pj [ "CustKey"; "Nation"; "Price" ])
        (Table.valid_rows_sorted j [ "CustKey"; "Nation"; "Price" ]))

let test_inner_join_trim () =
  for_all_kinds (fun ctx ->
      let c, o = customers_orders ctx in
      let j =
        Dataflow.inner_join ~trim:`Always c o ~on:[ "CustKey" ]
          ~copy:[ "Nation" ]
      in
      Alcotest.(check int) "trimmed to |R|" 6 (Table.nrows j);
      let pc, po = p_customers_orders () in
      let pj = Ptable.inner_join pc po ~on:[ "CustKey" ] in
      Alcotest.(check rows_t) "trim preserves result"
        (Ptable.rows_sorted pj [ "CustKey"; "Nation"; "Price" ])
        (Table.valid_rows_sorted j [ "CustKey"; "Nation"; "Price" ]))

let test_join_respects_validity () =
  let ctx = hm () in
  let c, o = customers_orders ctx in
  (* filter out customer 2 before joining: its orders must disappear *)
  let c = Dataflow.filter c Expr.(col "CustKey" <>. const 2) in
  let j = Dataflow.inner_join c o ~on:[ "CustKey" ] ~copy:[ "Nation" ] in
  Alcotest.(check rows_t) "invalidated left rows do not match"
    [ [ 1; 50 ]; [ 3; 70 ] ]
    (Table.valid_rows_sorted j [ "CustKey"; "Price" ])

let test_semi_join () =
  for_all_kinds (fun ctx ->
      let c, o = customers_orders ctx in
      let s = Dataflow.semi_join c o ~on:[ "CustKey" ] in
      Alcotest.(check rows_t) "semi join"
        [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 10 ] ]
        (Table.valid_rows_sorted s [ "CustKey"; "Nation" ]))

let test_anti_join () =
  for_all_kinds (fun ctx ->
      let c, o = customers_orders ctx in
      let a = Dataflow.anti_join c o ~on:[ "CustKey" ] in
      Alcotest.(check rows_t) "anti join" [ [ 4; 30 ] ]
        (Table.valid_rows_sorted a [ "CustKey"; "Nation" ]))

let test_semi_join_duplicates_both_sides () =
  let ctx = hm () in
  let l =
    Table.create ctx "L" [ ("K", 8, [| 1; 1; 2; 3; 3 |]); ("V", 8, [| 1; 2; 3; 4; 5 |]) ]
  in
  let r = Table.create ctx "R" [ ("K", 8, [| 1; 1; 3; 9 |]) ] in
  let s = Dataflow.semi_join l r ~on:[ "K" ] in
  Alcotest.(check rows_t) "semi with dups"
    [ [ 1; 1 ]; [ 1; 2 ]; [ 3; 4 ]; [ 3; 5 ] ]
    (Table.valid_rows_sorted s [ "K"; "V" ]);
  let a = Dataflow.anti_join l r ~on:[ "K" ] in
  Alcotest.(check rows_t) "anti with dups" [ [ 2; 3 ] ]
    (Table.valid_rows_sorted a [ "K"; "V" ])

let test_join_with_aggregation () =
  (* the fused join-aggregation: sum of order prices per customer, computed
     inside the join's control flow; one row per customer group *)
  let ctx = hm () in
  let c, o = customers_orders ctx in
  let t' =
    Dataflow.group_join c o ~on:[ "CustKey" ] ~keys:[ "CustKey" ]
      ~aggs:[ { Dataflow.src = "Price"; dst = "T"; fn = Dataflow.Sum } ]
  in
  Alcotest.(check rows_t) "join-fused sums"
    [ [ 1; 50 ]; [ 2; 150 ]; [ 3; 70 ] ]
    (Table.valid_rows_sorted t' [ "CustKey"; "T" ])

(* The network's pre-pass marks each sorted table's group boundaries
   once: its first/last-of-group bits equal the standalone equality
   ladders, with and without padding to a power of two and with and
   without a tid column in the pre-pass. *)
let test_boundaries_match_ladders () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          List.iter
            (fun with_tid ->
              let lbl =
                Printf.sprintf "%s n=%d tid=%b" (Ctx.kind_label kind) n with_tid
              in
              let ctx = Ctx.create ~seed:(60 + n) kind in
              let st = Random.State.make [| n; 3 |] in
              let rows =
                List.sort compare
                  (List.init n (fun _ ->
                       (Random.State.int st 2, Random.State.int st 4)))
              in
              let v = Array.of_list (List.map fst rows)
              and k = Array.of_list (List.map snd rows) in
              let keys = [ (Mpc.share_b ctx v, 1); (Mpc.share_b ctx k, 3) ] in
              let tid =
                if with_tid then
                  Some (Mpc.share_b ctx (Array.init n (fun _ -> Random.State.int st 2)))
                else None
              in
              let b = Aggnet.boundaries ctx ~keys ?tid () in
              let bits f = Orq_util.Bits.unpack (Share.reconstruct_flags f) in
              let same i j = v.(i) = v.(j) && k.(i) = k.(j) in
              Alcotest.(check vec) (lbl ^ " first = distinct_bits")
                (bits (Aggnet.distinct_bits ctx ~keys))
                (bits (Aggnet.first_of_group ctx b));
              Alcotest.(check vec) (lbl ^ " last = last_of_group_bits")
                (bits (Aggnet.last_of_group_bits ctx ~keys))
                (bits (Aggnet.last_of_group ctx b));
              Alcotest.(check vec) (lbl ^ " first vs plaintext")
                (Array.init n (fun i -> if i = 0 || not (same (i - 1) i) then 1 else 0))
                (bits (Aggnet.first_of_group ctx b));
              Alcotest.(check vec) (lbl ^ " last vs plaintext")
                (Array.init n (fun i -> if i = n - 1 || not (same i (i + 1)) then 1 else 0))
                (bits (Aggnet.last_of_group ctx b)))
            [ false; true ])
        [ 1; 2; 3; 63; 64; 65 ])
    kinds

(* GROUP BY over a one-to-many join, aggregated inside the join, against
   the plaintext engine: a left row with no match, right rows with no
   left match and invalid rows on both sides. *)
let grouped_aggs =
  [
    { Dataflow.src = "X"; dst = "cnt"; fn = Dataflow.Count };
    { Dataflow.src = "X"; dst = "sum"; fn = Dataflow.Sum };
    { Dataflow.src = "X"; dst = "mn"; fn = Dataflow.Min };
    { Dataflow.src = "X"; dst = "mx"; fn = Dataflow.Max };
    { Dataflow.src = "X"; dst = "avg"; fn = Dataflow.Avg };
  ]

let grouped_cases =
  [
    (* (left K, G, valid), (right K, X, valid) *)
    ( "mixed",
      ([| 1; 2; 3; 4; 5 |], [| 7; 8; 9; 10; 11 |], [| 1; 1; 1; 0; 1 |]),
      ( [| 2; 1; 2; 5; 4; 2; 9; 1; 3 |],
        [| 10; 50; 20; 99; 70; 30; 40; 5; 60 |],
        [| 1; 1; 1; 1; 1; 1; 1; 1; 0 |] ) );
    ("n = 1", ([| 2 |], [| 7 |], [| 1 |]), ([| 2; 1; 2 |], [| 3; 4; 5 |], [| 1; 1; 1 |]));
    ("m = 1", ([| 1; 2; 3 |], [| 4; 5; 6 |], [| 1; 1; 1 |]), ([| 2 |], [| 9 |], [| 1 |]));
  ]

let grouped_ref ~outer (lk, lg, lv) (rk, rx, rv) =
  let keep ks v = List.filter (fun i -> v.(i) = 1) (List.init (Array.length ks) Fun.id) in
  let l = Ptable.create [ "K"; "G" ] (List.map (fun i -> [ lk.(i); lg.(i) ]) (keep lk lv)) in
  let r = Ptable.create [ "K"; "X" ] (List.map (fun i -> [ rk.(i); rx.(i) ]) (keep rk rv)) in
  let matched =
    Ptable.group_by (Ptable.inner_join l r ~on:[ "K" ]) ~keys:[ "K"; "G" ]
      ~aggs:
        (List.map
           (fun (a : Dataflow.agg) ->
             let fn =
               match a.Dataflow.fn with
               | Dataflow.Count -> Ptable.Count
               | Dataflow.Sum -> Ptable.Sum
               | Dataflow.Min -> Ptable.Min
               | Dataflow.Max -> Ptable.Max
               | _ -> Ptable.Avg
             in
             { Ptable.src = "X"; dst = a.Dataflow.dst; fn })
           grouped_aggs)
  in
  let rows = Ptable.rows_sorted matched [ "K"; "G"; "cnt"; "sum"; "mn"; "mx"; "avg" ] in
  if not outer then rows
  else
    (* an unmatched left row's group reads zero; its AVG is left out *)
    let unmatched =
      Ptable.rows_sorted (Ptable.anti_join l r ~on:[ "K" ]) [ "K"; "G" ]
    in
    List.sort compare (rows @ List.map (fun kg -> kg @ [ 0; 0; 0; 0; -1 ]) unmatched)

let grouped_run ctx ~outer (lk, lg, lv) (rk, rx, rv) =
  let l = Table.create ctx "L" ~valid:lv [ ("K", 8, lk); ("G", 5, lg) ] in
  let r = Table.create ctx "R" ~valid:rv [ ("K", 8, rk); ("X", 8, rx) ] in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let t = Dataflow.group_join ~outer l r ~on:[ "K" ] ~keys:[ "K"; "G" ] ~aggs:grouped_aggs in
  let rows = Table.valid_rows_sorted t [ "K"; "G"; "cnt"; "sum"; "mn"; "mx"; "avg" ] in
  let rows =
    List.map (fun row -> if List.nth row 2 = 0 then List.filteri (fun i _ -> i < 6) row @ [ -1 ] else row) rows
  in
  (rows, Orq_net.Comm.since ctx.Ctx.comm before)

let with_join_mode m f =
  let old = Joincost.mode () in
  Joincost.set_mode m;
  Fun.protect ~finally:(fun () -> Joincost.set_mode old) f

let streamed f =
  let module C = Orq_util.Chunkvec in
  let rows0 = C.chunk_rows () and budget0 = C.budget () and on0 = C.streaming_enabled () in
  C.set_chunk_rows 3;
  C.set_budget (16 * 1024);
  Fun.protect
    ~finally:(fun () ->
      C.set_chunk_rows rows0;
      C.set_budget budget0;
      C.set_streaming on0)
    f

let test_group_join () =
  List.iter
    (fun kind ->
      List.iter
        (fun (case, l, r) ->
          List.iter
            (fun (outer, mode) ->
              let lbl =
                Printf.sprintf "%s %s %s %s" (Ctx.kind_label kind) case
                  (if outer then "left-outer" else "inner")
                  (Joincost.mode_label mode)
              in
              with_join_mode mode @@ fun () ->
              let whole, t_whole = grouped_run (Ctx.create ~seed:9 kind) ~outer l r in
              Alcotest.(check rows_t) (lbl ^ " vs plaintext") (grouped_ref ~outer l r) whole;
              let chunked, t_chunked =
                streamed (fun () -> grouped_run (Ctx.create ~seed:9 kind) ~outer l r)
              in
              Alcotest.(check rows_t) (lbl ^ " chunked rows") whole chunked;
              Alcotest.(check (triple int int int)) (lbl ^ " chunked tally")
                Orq_net.Comm.(t_whole.t_rounds, t_whole.t_bits, t_whole.t_messages)
                Orq_net.Comm.(t_chunked.t_rounds, t_chunked.t_bits, t_chunked.t_messages))
            [
              (false, Joincost.Force Joincost.Sort);
              (false, Joincost.Force Joincost.Linear);
              (true, Joincost.Auto);
            ])
        grouped_cases)
    kinds

let test_many_to_many_preaggregation () =
  (* Section 3.6: COUNT over a many-to-many join via pre-aggregation of
     multiplicities and post-multiplication *)
  let ctx = hm () in
  let l = Table.create ctx "L" [ ("K", 8, [| 1; 1; 2; 2; 2 |]) ] in
  let r = Table.create ctx "R" [ ("K", 8, [| 1; 2; 2; 7 |]); ("Rid", 8, [| 1; 2; 3; 4 |]) ] in
  (* pre-aggregate: multiplicity of each key in L *)
  let lm =
    Dataflow.aggregate l ~keys:[ "K" ]
      ~aggs:[ { Dataflow.src = "K"; dst = "M"; fn = Dataflow.Count } ]
  in
  let j = Dataflow.inner_join lm r ~on:[ "K" ] ~copy:[ "M" ] in
  let total =
    Dataflow.aggregate
      (Dataflow.map j ~dst:"One" Expr.(const 1))
      ~keys:[ "One" ]
      ~aggs:[ { Dataflow.src = "M"; dst = "Cnt"; fn = Dataflow.Sum } ]
  in
  (* |L x_K R| = 1*1 + 2*3... keys: k=1: 2 L-rows x 1 R-row = 2;
     k=2: 3 L x 2 R = 6; total 8 *)
  Alcotest.(check rows_t) "many-to-many count" [ [ 8 ] ]
    (Table.valid_rows_sorted total [ "Cnt" ])

let test_concat_tables () =
  let ctx = hm () in
  let a = Table.create ctx "A" [ ("X", 8, [| 1; 2 |]) ] in
  let b = Table.create ctx "A" [ ("X", 8, [| 3 |]) ] in
  let u = Dataflow.concat_tables a b in
  Alcotest.(check rows_t) "union all" [ [ 1 ]; [ 2 ]; [ 3 ] ]
    (Table.valid_rows_sorted u [ "X" ])

(* ---------------- qcheck: joins vs plaintext ---------------- *)

let qcheck_join_vs_plaintext =
  QCheck.Test.make ~name:"random PK-FK joins match plaintext" ~count:12
    QCheck.(pair (int_bound 10000) (int_bound 3))
    (fun (seed, _) ->
      let prg = Orq_util.Prg.create (seed + 101) in
      let nl = 1 + Orq_util.Prg.int_below prg 8 in
      let nr = 1 + Orq_util.Prg.int_below prg 12 in
      (* unique left keys, arbitrary right keys *)
      let lk =
        Array.map (fun i -> i + 1) (Orq_shuffle.Localperm.random prg nl)
      in
      let lv = Array.init nl (fun _ -> Orq_util.Prg.int_below prg 50) in
      let rk = Array.init nr (fun _ -> 1 + Orq_util.Prg.int_below prg (nl + 3)) in
      let rv = Array.init nr (fun _ -> Orq_util.Prg.int_below prg 50) in
      let ctx = Ctx.create ~seed:(seed + 7) Ctx.Sh_hm in
      let l =
        Table.create ctx "L" [ ("K", 8, lk); ("LV", 8, lv) ]
      in
      let r = Table.create ctx "R" [ ("K", 8, rk); ("RV", 8, rv) ] in
      let j = Dataflow.inner_join l r ~on:[ "K" ] ~copy:[ "LV" ] in
      let pl = Ptable.of_cols [ ("K", lk); ("LV", lv) ] in
      let pr = Ptable.of_cols [ ("K", rk); ("RV", rv) ] in
      let pj = Ptable.inner_join pl pr ~on:[ "K" ] in
      Table.valid_rows_sorted j [ "K"; "LV"; "RV" ]
      = Ptable.rows_sorted pj [ "K"; "LV"; "RV" ])

let qcheck_groupby_vs_plaintext =
  QCheck.Test.make ~name:"random group-bys match plaintext" ~count:12
    QCheck.(int_bound 10000)
    (fun seed ->
      let prg = Orq_util.Prg.create (seed + 303) in
      let n = 1 + Orq_util.Prg.int_below prg 15 in
      let g = Array.init n (fun _ -> Orq_util.Prg.int_below prg 4) in
      let x = Array.init n (fun _ -> Orq_util.Prg.int_below prg 30) in
      let ctx = Ctx.create ~seed Ctx.Sh_hm in
      let t = Table.create ctx "T" [ ("G", 4, g); ("X", 8, x) ] in
      let t' =
        Dataflow.aggregate t ~keys:[ "G" ]
          ~aggs:
            [
              { Dataflow.src = "X"; dst = "S"; fn = Dataflow.Sum };
              { Dataflow.src = "X"; dst = "C"; fn = Dataflow.Count };
            ]
      in
      let p = Ptable.of_cols [ ("G", g); ("X", x) ] in
      let pg =
        Ptable.group_by p ~keys:[ "G" ]
          ~aggs:
            [
              { Ptable.src = "X"; dst = "S"; fn = Ptable.Sum };
              { Ptable.src = "X"; dst = "C"; fn = Ptable.Count };
            ]
      in
      Table.valid_rows_sorted t' [ "G"; "S"; "C" ]
      = Ptable.rows_sorted pg [ "G"; "S"; "C" ])

(* ---------------- GROUP BY: both physical paths ---------------- *)

(* A random GROUP BY table of 1..300 rows: two keys over one group, all
   singleton groups or a random number of groups, interleaved invalid
   rows, an unsigned source x and a signed one d = a - b. Returns the
   plaintext columns and validity. *)
let gen_groupby prg =
  let n = 1 + Orq_util.Prg.int_below prg 300 in
  let gid =
    match Orq_util.Prg.int_below prg 3 with
    | 0 -> Array.make n 0
    | 1 -> Orq_shuffle.Localperm.random prg n
    | _ ->
        let g = 1 + Orq_util.Prg.int_below prg n in
        Array.init n (fun _ -> Orq_util.Prg.int_below prg g)
  in
  let cols =
    [
      ("k1", 7, Array.map (fun g -> g / 4) gid);
      ("k2", 2, Array.map (fun g -> g land 3) gid);
      ("x", 12, Array.init n (fun _ -> Orq_util.Prg.int_below prg 4096));
      ("a", 8, Array.init n (fun _ -> Orq_util.Prg.int_below prg 256));
      ("b", 8, Array.init n (fun _ -> Orq_util.Prg.int_below prg 256));
    ]
  in
  let valid = Array.init n (fun _ -> if Orq_util.Prg.int_below prg 4 = 0 then 0 else 1) in
  (cols, valid)

let groupby_aggs =
  [
    { Dataflow.src = "x"; dst = "s"; fn = Dataflow.Sum };
    { Dataflow.src = "d"; dst = "sd"; fn = Dataflow.Sum };
    { Dataflow.src = "x"; dst = "c"; fn = Dataflow.Count };
    { Dataflow.src = "x"; dst = "avg"; fn = Dataflow.Avg };
  ]

(* [aggregate_by path] against Ptable.group_by under every protocol: the
   signed sum compared as its two's-complement bit pattern. *)
let groupby_path_matches path seed =
  let prg = Orq_util.Prg.create (seed + 909) in
  let cols, valid = gen_groupby prg in
  let get c = List.assoc c (List.map (fun (n, _, v) -> (n, v)) cols) in
  let d = Array.map2 ( - ) (get "a") (get "b") in
  let live = List.filter (fun i -> valid.(i) = 1) (List.init (Array.length valid) Fun.id) in
  let p =
    Ptable.of_cols
      (List.map
         (fun (n, v) -> (n, Array.of_list (List.map (fun i -> v.(i)) live)))
         [ ("k1", get "k1"); ("k2", get "k2"); ("x", get "x"); ("d", d) ])
  in
  let pg =
    Ptable.group_by p ~keys:[ "k1"; "k2" ]
      ~aggs:
        [
          { Ptable.src = "x"; dst = "s"; fn = Ptable.Sum };
          { Ptable.src = "d"; dst = "sd"; fn = Ptable.Sum };
          { Ptable.src = "x"; dst = "c"; fn = Ptable.Count };
          { Ptable.src = "x"; dst = "avg"; fn = Ptable.Avg };
        ]
  in
  List.for_all
    (fun kind ->
      let ctx = Ctx.create ~seed kind in
      let t = Table.create ctx "T" ~valid cols in
      let t = Dataflow.map t ~dst:"d" Expr.(col "a" -! col "b") in
      let g = Dataflow.aggregate_by path t ~keys:[ "k1"; "k2" ] ~aggs:groupby_aggs in
      let m = Orq_util.Ring.mask (Table.width g "sd") in
      Table.col_names g = [ "k1"; "k2"; "s"; "sd"; "c"; "avg" ]
      && Table.valid_rows_sorted g [ "k1"; "k2"; "s"; "sd"; "c"; "avg" ]
         = List.sort compare
             (List.map
                (function [ k1; k2; s; sd; c; a ] -> [ k1; k2; s; sd land m; c; a ] | r -> r)
                (Ptable.rows_sorted pg [ "k1"; "k2"; "s"; "sd"; "c"; "avg" ])))
    kinds

let qcheck_groupby_network =
  QCheck.Test.make ~name:"GROUP BY by the network matches plaintext" ~count:8
    QCheck.(int_bound 10000)
    (groupby_path_matches Dataflow.Network)

let qcheck_groupby_compaction =
  QCheck.Test.make ~name:"GROUP BY by compaction matches plaintext" ~count:8
    QCheck.(int_bound 10000)
    (groupby_path_matches Dataflow.Compaction)

(* The chooser at the tiny-n crossover: the 5-row region and the 25-row
   nation keep the network under Mal-HM, whose compaction costs more
   rounds than their few levels; region keeps it under every protocol,
   while nation and lineitem compact where that is cheaper. MIN/MAX
   always take the network. *)
let test_agg_path_crossover () =
  let plain = Orq_workloads.Tpch_gen.generate ~seed:99 0.0002 in
  let path kind table key aggs =
    let ctx = Ctx.create ~seed:5 kind in
    let t, _ = Orq_workloads.Tpch_gen.catalog (Orq_workloads.Tpch_gen.share ctx plain) table in
    Dataflow.agg_path t ~keys:[ key ] ~aggs
  in
  let count src = [ { Dataflow.src; dst = "n"; fn = Dataflow.Count } ] in
  let show = function Dataflow.Network -> "network" | Dataflow.Compaction -> "compaction" in
  let path_t = Alcotest.testable (Fmt.of_to_string show) ( = ) in
  List.iter
    (fun (kind, region, nation, lineitem) ->
      let tag s = Printf.sprintf "%s [%s]" s (Ctx.kind_label kind) in
      Alcotest.check path_t (tag "region") region
        (path kind "region" "r_regionkey" (count "r_regionkey"));
      Alcotest.check path_t (tag "nation") nation
        (path kind "nation" "n_regionkey" (count "n_nationkey"));
      Alcotest.check path_t (tag "lineitem") lineitem
        (path kind "lineitem" "l_returnflag" (count "l_orderkey"));
      Alcotest.check path_t (tag "lineitem MIN") Dataflow.Network
        (path kind "lineitem" "l_returnflag"
           [ { Dataflow.src = "l_quantity"; dst = "lo"; fn = Dataflow.Min } ]))
    [
      (Ctx.Sh_dm, Dataflow.Network, Dataflow.Compaction, Dataflow.Compaction);
      (Ctx.Sh_hm, Dataflow.Network, Dataflow.Compaction, Dataflow.Compaction);
      (Ctx.Mal_hm, Dataflow.Network, Dataflow.Network, Dataflow.Compaction);
    ]

(* Both paths' values and tallies (online and preprocessing) do not move
   with the domain count or the chunk size: whole vectors on one domain,
   on three domains with a low split threshold, and parked in 7- and
   64-row chunks with streaming on. *)
let test_groupby_paths_invariant () =
  let module Parallel = Orq_util.Parallel in
  let module Chunkvec = Orq_util.Chunkvec in
  let module Comm = Orq_net.Comm in
  let cols, valid = gen_groupby (Orq_util.Prg.create 17) in
  let run path =
    let ctx = Ctx.create ~seed:23 Ctx.Sh_hm in
    let t = Dataflow.map (Table.create ctx "T" ~valid cols) ~dst:"d" Expr.(col "a" -! col "b") in
    let on = Comm.snapshot ctx.Ctx.comm and pre = Comm.snapshot ctx.Ctx.preproc in
    let g = Dataflow.aggregate_by path t ~keys:[ "k1"; "k2" ] ~aggs:groupby_aggs in
    ( Table.valid_rows_sorted g [ "k1"; "k2"; "s"; "sd"; "c"; "avg" ],
      Comm.since ctx.Ctx.comm on,
      Comm.since ctx.Ctx.preproc pre )
  in
  let d0 = Parallel.get_num_domains () and mc0 = Parallel.get_min_chunk () in
  let rows0 = Chunkvec.chunk_rows () and on0 = Chunkvec.streaming_enabled () in
  let configs =
    [
      ("whole, 1 domain", fun () -> ());
      ( "whole, 3 domains",
        fun () ->
          Parallel.set_num_domains 3;
          Parallel.set_min_chunk 16 );
      ( "7-row chunks",
        fun () ->
          Chunkvec.set_streaming true;
          Chunkvec.set_chunk_rows 7 );
      ( "64-row chunks",
        fun () ->
          Chunkvec.set_streaming true;
          Chunkvec.set_chunk_rows 64 );
    ]
  in
  List.iter
    (fun path ->
      let runs =
        List.map
          (fun (label, set) ->
            set ();
            Fun.protect
              ~finally:(fun () ->
                Parallel.set_num_domains d0;
                Parallel.set_min_chunk mc0;
                Chunkvec.set_chunk_rows rows0;
                Chunkvec.set_streaming on0)
              (fun () -> (label, run path)))
          configs
      in
      let _, (rows1, on1, pre1) = List.hd runs in
      List.iter
        (fun (label, (rows, on, pre)) ->
          Alcotest.(check rows_t) (label ^ ": rows") rows1 rows;
          Alcotest.(check (list int)) (label ^ ": online")
            [ on1.Comm.t_rounds; on1.t_bits; on1.t_messages ]
            [ on.Comm.t_rounds; on.t_bits; on.t_messages ];
          Alcotest.(check (list int)) (label ^ ": preprocessing")
            [ pre1.Comm.t_rounds; pre1.t_bits; pre1.t_messages ]
            [ pre.Comm.t_rounds; pre.t_bits; pre.t_messages ])
        (List.tl runs))
    [ Dataflow.Network; Dataflow.Compaction ]

(* ---------------- trimming heuristic ---------------- *)

let test_trim_heuristic_values () =
  (* the C.3 table: for 3PC and omega = 128, trim while alpha is below
     lg(L) lg(omega) / 9 — e.g. L = 10k -> threshold about 10.3 *)
  let ctx = Ctx.create Ctx.Sh_hm in
  Alcotest.(check bool) "L=10k, R=100k trims" true
    (Joinagg.should_trim ctx ~left_n:10_000 ~right_m:100_000);
  Alcotest.(check bool) "L=10k, R=110k does not" false
    (Joinagg.should_trim ctx ~left_n:10_000 ~right_m:110_000);
  Alcotest.(check bool) "L=100, R=510 trims" true
    (Joinagg.should_trim ctx ~left_n:100 ~right_m:510);
  Alcotest.(check bool) "L=100, R=600 does not" false
    (Joinagg.should_trim ctx ~left_n:100 ~right_m:600)

(* ---------------- signedness ---------------- *)

let test_signed_expressions () =
  let ctx = hm () in
  let t =
    Table.create ctx "t" [ ("a", 8, [| 3; 10; 7 |]); ("b", 8, [| 9; 2; 7 |]) ]
  in
  (* (a - b) can be negative; signed comparison against a constant *)
  let t' = Dataflow.filter t Expr.(col "a" -! col "b" <. const 0) in
  Alcotest.(check rows_t) "negative difference detected" [ [ 3; 9 ] ]
    (Table.valid_rows_sorted t' [ "a"; "b" ]);
  (* signed sums aggregate correctly through group-by *)
  let t2 =
    Table.create ctx "t2"
      [ ("g", 2, [| 1; 1; 1 |]); ("a", 8, [| 3; 10; 7 |]); ("b", 8, [| 9; 2; 7 |]) ]
  in
  let t2 = Dataflow.map t2 ~dst:"d" Expr.(col "a" -! col "b") in
  let agg =
    Dataflow.aggregate t2 ~keys:[ "g" ]
      ~aggs:[ { Dataflow.src = "d"; dst = "s"; fn = Dataflow.Sum } ]
  in
  let w = Table.width agg "s" in
  Alcotest.(check rows_t) "signed group sum (two's complement)"
    [ [ 1; 2 land Orq_util.Ring.mask w ] ]
    (Table.valid_rows_sorted agg [ "g"; "s" ])

(* An unsigned operand at full width under a signed result keeps its top
   bit: a = 200 at width 8 must not read as negative next to a signed -1. *)
let test_mixed_signedness () =
  let ctx = hm () in
  let t =
    Table.create ctx "t" [ ("a", 8, [| 200; 5; 100 |]); ("b", 1, [| 1; 0; 1 |]) ]
  in
  let x = Expr.(If (col "b" ==. const 1, col "a", const (-1))) in
  let t = Dataflow.map t ~dst:"x" x in
  Alcotest.(check rows_t) "If result compares as signed" [ [ 200 ] ]
    (Table.valid_rows_sorted (Dataflow.filter t Expr.(col "x" >. const 100)) [ "a" ]);
  let s =
    Dataflow.global_aggregate t ~aggs:[ { Dataflow.src = "x"; dst = "s"; fn = Dataflow.Sum } ]
  in
  Alcotest.(check rows_t) "SUM of the If result" [ [ 299 ] ]
    (Table.valid_rows_sorted s [ "s" ]);
  Alcotest.(check rows_t) "unsigned leg against a negative constant"
    [ [ 5 ]; [ 100 ]; [ 200 ] ]
    (Table.valid_rows_sorted (Dataflow.filter t Expr.(col "a" >. const (-1))) [ "a" ])

let test_order_by_signed () =
  let ctx = hm () in
  let t =
    Table.create ctx "t" [ ("a", 8, [| 1; 5; 3 |]); ("b", 8, [| 4; 1; 9 |]) ]
  in
  let t = Dataflow.map t ~dst:"d" Expr.(col "a" -! col "b") in
  (* d = -3, 4, -6 : signed order must be -6 < -3 < 4 *)
  let t = Dataflow.order_by t [ ("d", Dataflow.Asc) ] in
  let cols, _ = Table.peek t in
  Alcotest.(check vec) "signed sort order" [| 3; 1; 5 |] (List.assoc "a" cols)

(* ---------------- global aggregates with validity ---------------- *)

let test_global_minmax_validity () =
  let ctx = hm () in
  let t = Table.create ctx "t" [ ("x", 8, [| 50; 1; 99; 30 |]) ] in
  let t = Dataflow.filter t Expr.(col "x" >. const 1 &&. (col "x" <. const 99)) in
  let g =
    Dataflow.global_aggregate t
      ~aggs:
        [
          { Dataflow.src = "x"; dst = "mn"; fn = Dataflow.Min };
          { Dataflow.src = "x"; dst = "mx"; fn = Dataflow.Max };
          { Dataflow.src = "x"; dst = "avg"; fn = Dataflow.Avg };
        ]
  in
  Alcotest.(check rows_t) "masked extrema + avg" [ [ 30; 50; 40 ] ]
    (Table.valid_rows_sorted g [ "mn"; "mx"; "avg" ])

(* ---------------- semi/anti partition property ---------------- *)

let qcheck_semi_anti_partition =
  QCheck.Test.make ~name:"semi + anti partition the left table" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let prg = Orq_util.Prg.create (seed + 17) in
      let nl = 2 + Orq_util.Prg.int_below prg 10 in
      let nr = 1 + Orq_util.Prg.int_below prg 10 in
      let lk = Array.init nl (fun _ -> Orq_util.Prg.int_below prg 6) in
      let lid = Array.init nl (fun i -> i) in
      let rk = Array.init nr (fun _ -> Orq_util.Prg.int_below prg 6) in
      let ctx = Ctx.create ~seed Ctx.Sh_hm in
      let l = Table.create ctx "L" [ ("k", 4, lk); ("id", 8, lid) ] in
      let r = Table.create ctx "R" [ ("k", 4, rk) ] in
      let s = Dataflow.semi_join l r ~on:[ "k" ] in
      let a = Dataflow.anti_join l r ~on:[ "k" ] in
      let rows t = Table.valid_rows_sorted t [ "k"; "id" ] in
      List.sort compare (rows s @ rows a)
      = Table.valid_rows_sorted l [ "k"; "id" ])

(* ---------------- algebraic properties ---------------- *)

let qcheck_tablesort_idempotent =
  QCheck.Test.make ~name:"TableSort is idempotent" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let prg = Orq_util.Prg.create (seed + 211) in
      let n = 2 + Orq_util.Prg.int_below prg 12 in
      let a = Array.init n (fun _ -> Orq_util.Prg.int_below prg 8) in
      let b = Array.init n (fun _ -> Orq_util.Prg.int_below prg 8) in
      let ctx = Ctx.create ~seed Ctx.Sh_hm in
      let t = Table.create ctx "t" [ ("a", 4, a); ("b", 4, b) ] in
      let once = Tablesort.sort t [ ("a", Tablesort.Asc); ("b", Tablesort.Desc) ] in
      let twice =
        Tablesort.sort once [ ("a", Tablesort.Asc); ("b", Tablesort.Desc) ]
      in
      fst (Table.peek once) = fst (Table.peek twice))

let qcheck_join_output_bound =
  QCheck.Test.make ~name:"trimmed join output bounded by |R|" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let prg = Orq_util.Prg.create (seed + 401) in
      let nl = 1 + Orq_util.Prg.int_below prg 8 in
      let nr = 1 + Orq_util.Prg.int_below prg 12 in
      let lk = Array.map (fun i -> i + 1) (Orq_shuffle.Localperm.random prg nl) in
      let rk = Array.init nr (fun _ -> 1 + Orq_util.Prg.int_below prg (nl + 2)) in
      let ctx = Ctx.create ~seed Ctx.Sh_hm in
      let l = Table.create ctx "L" [ ("k", 8, lk) ] in
      let r = Table.create ctx "R" [ ("k", 8, rk); ("rv", 8, rk) ] in
      let j = Dataflow.inner_join ~trim:`Always l r ~on:[ "k" ] in
      Table.nrows j = nr
      && List.length (Table.valid_rows_sorted j [ "k" ]) <= nr)

(* ---------------- data-owner padding ---------------- *)

let test_pad_rows () =
  let ctx = hm () in
  let t = Table.create ctx "t" [ ("x", 8, [| 3; 1 |]) ] in
  let t = Table.pad_rows t 3 in
  Alcotest.(check int) "physical rows grow" 5 (Table.nrows t);
  Alcotest.(check rows_t) "dummies stay invisible" [ [ 1 ]; [ 3 ] ]
    (Table.valid_rows_sorted t [ "x" ]);
  (* padded rows survive a full operator pipeline without appearing *)
  let agg =
    Dataflow.aggregate t ~keys:[ "x" ]
      ~aggs:[ { Dataflow.src = "x"; dst = "c"; fn = Dataflow.Count } ]
  in
  Alcotest.(check rows_t) "padding excluded from groups"
    [ [ 1; 1 ]; [ 3; 1 ] ]
    (Table.valid_rows_sorted agg [ "x"; "c" ])

(* ---------------- limit edge cases ---------------- *)

let test_limit_beyond_valid () =
  let ctx = hm () in
  let t = Table.create ctx "t" [ ("x", 8, [| 5; 2; 9 |]) ] in
  let t = Dataflow.filter t Expr.(col "x" >. const 4) in
  let t = Dataflow.limit (Dataflow.order_by t [ ("x", Dataflow.Asc) ]) 3 in
  (* only 2 valid rows exist; the third slot must stay invalid *)
  Alcotest.(check rows_t) "padding row stays invalid" [ [ 5 ]; [ 9 ] ]
    (Table.valid_rows_sorted t [ "x" ])

(* ---------------- empty and tiny tables ---------------- *)

(* TableSort, ORDER BY, DISTINCT and GROUP BY (both physical paths) on
   0, 1 and 2 rows under every protocol match the plaintext engine, and
   a 0-row sort returns its empty input unmetered. *)
let test_tiny_tables () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let ctx = Ctx.create ~seed:53 kind in
          let tag s = Printf.sprintf "%s n=%d %s" (Ctx.kind_label kind) n s in
          let g = Array.sub [| 4; 4 |] 0 n and x = Array.sub [| 2; 9 |] 0 n in
          let t = Table.create ctx "t" [ ("G", 4, g); ("X", 4, x) ] in
          let p = Ptable.of_cols [ ("G", g); ("X", x) ] in
          let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
          let sorted = Tablesort.sort t [ ("G", Tablesort.Asc); ("X", Tablesort.Desc) ] in
          if n = 0 then
            Alcotest.(check bool) (tag "empty sort unmetered") true
              (Orq_net.Comm.since ctx.Ctx.comm before = Orq_net.Comm.zero_tally);
          let cols, _ = Table.peek sorted in
          let ps = Ptable.sort p [ ("G", 1); ("X", -1) ] in
          List.iter
            (fun name ->
              Alcotest.(check (array int)) (tag ("TableSort " ^ name))
                (Array.of_list (List.map (Ptable.get ps name) ps.Ptable.rows))
                (List.assoc name cols))
            [ "G"; "X" ];
          let ordered = Dataflow.order_by t [ ("X", Dataflow.Desc) ] in
          Alcotest.(check (array int)) (tag "ORDER BY")
            (Array.of_list (List.sort (fun a b -> compare b a) (Array.to_list x)))
            (Array.sub (List.assoc "X" (fst (Table.peek ordered))) 0 n);
          Alcotest.(check rows_t) (tag "DISTINCT")
            (Ptable.rows_sorted (Ptable.distinct p [ "G" ]) [ "G" ])
            (Table.valid_rows_sorted (Dataflow.distinct t [ "G" ]) [ "G" ]);
          let aggs fns =
            List.map (fun (dst, fn) -> { Dataflow.src = "X"; dst; fn }) fns
          and paggs fns =
            List.map (fun (dst, fn) -> { Ptable.src = "X"; dst; fn }) fns
          in
          List.iter
            (fun (fns, pfns) ->
              let names = "G" :: List.map fst fns in
              let what = tag ("GROUP BY " ^ String.concat "," (List.map fst fns)) in
              let want =
                Ptable.rows_sorted
                  (Ptable.group_by p ~keys:[ "G" ] ~aggs:(paggs pfns))
                  names
              in
              let check_agg what t' =
                Alcotest.(check rows_t) what want (Table.valid_rows_sorted t' names)
              in
              check_agg (what ^ " priced path")
                (Dataflow.aggregate t ~keys:[ "G" ] ~aggs:(aggs fns));
              List.iter
                (fun path ->
                  check_agg what
                    (Dataflow.aggregate_by path t ~keys:[ "G" ] ~aggs:(aggs fns)))
                (if List.mem_assoc "mx" fns then [ Dataflow.Network ]
                 else [ Dataflow.Network; Dataflow.Compaction ]))
            [
              ( [ ("s", Dataflow.Sum); ("c", Dataflow.Count) ],
                [ ("s", Ptable.Sum); ("c", Ptable.Count) ] );
              ([ ("mx", Dataflow.Max) ], [ ("mx", Ptable.Max) ]);
            ])
        [ 0; 1; 2 ])
    kinds

let suite =
  [
    Alcotest.test_case "create + peek" `Quick test_create_peek;
    Alcotest.test_case "reveal masks invalid rows" `Quick
      test_reveal_masks_invalid;
    Alcotest.test_case "reveal fuses its AND and its open" `Quick
      test_reveal_two_rounds;
    Alcotest.test_case "reveal aborts on a tampered open" `Quick
      test_reveal_tamper_aborts;
    Alcotest.test_case "filters (and, cmp)" `Quick test_filter_exprs;
    Alcotest.test_case "filters (or, not)" `Quick test_filter_or_not;
    Alcotest.test_case "derived columns (Q3 revenue)" `Quick test_map_arith;
    Alcotest.test_case "private division expression" `Quick
      test_private_division_expr;
    Alcotest.test_case "TableSort multi-key + stability" `Quick
      test_tablesort_multikey;
    Alcotest.test_case "tablesort moves columns at their widths" `Quick
      test_tablesort_width_tally;
    Alcotest.test_case "Table.create rejects out-of-width values" `Quick
      test_create_rejects_out_of_width;
    Alcotest.test_case "AggNet sum + copy" `Quick test_aggnet_sum_copy;
    Alcotest.test_case "AggNet min/max" `Quick test_aggnet_minmax;
    Alcotest.test_case "AggNet non-pow2 padding" `Quick
      test_aggnet_non_pow2_padding;
    Alcotest.test_case "group-by sum/count/min/max" `Quick test_group_by;
    Alcotest.test_case "group-by AVG (oblivious division)" `Quick
      test_group_by_avg;
    Alcotest.test_case "AVG at the source maximum" `Quick test_avg_at_source_max;
    Alcotest.test_case "ratio quotients bounded by dominance facts" `Quick
      test_ratio_dominance;
    Alcotest.test_case "ratio without a dominance fact" `Quick
      test_ratio_without_fact;
    Alcotest.test_case "group-by excludes invalid rows" `Quick
      test_group_by_respects_filter;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "order-by + limit" `Quick test_order_by_limit;
    Alcotest.test_case "inner join vs plaintext" `Quick test_inner_join;
    Alcotest.test_case "inner join with trim" `Quick test_inner_join_trim;
    Alcotest.test_case "join respects validity" `Quick
      test_join_respects_validity;
    Alcotest.test_case "semi join" `Quick test_semi_join;
    Alcotest.test_case "anti join" `Quick test_anti_join;
    Alcotest.test_case "semi/anti with duplicates" `Quick
      test_semi_join_duplicates_both_sides;
    Alcotest.test_case "fused join-aggregation" `Quick
      test_join_with_aggregation;
    Alcotest.test_case "network boundaries = DISTINCT/last ladders" `Quick
      test_boundaries_match_ladders;
    Alcotest.test_case "grouped join vs plaintext, whole = chunked" `Quick
      test_group_join;
    Alcotest.test_case "many-to-many via pre-aggregation" `Quick
      test_many_to_many_preaggregation;
    Alcotest.test_case "concat tables" `Quick test_concat_tables;
    QCheck_alcotest.to_alcotest qcheck_join_vs_plaintext;
    QCheck_alcotest.to_alcotest qcheck_groupby_vs_plaintext;
    QCheck_alcotest.to_alcotest qcheck_groupby_network;
    QCheck_alcotest.to_alcotest qcheck_groupby_compaction;
    Alcotest.test_case "GROUP BY path at the tiny-n crossover" `Quick
      test_agg_path_crossover;
    Alcotest.test_case "GROUP BY paths: tallies invariant" `Quick
      test_groupby_paths_invariant;
    Alcotest.test_case "trim heuristic (C.3 table)" `Quick
      test_trim_heuristic_values;
    Alcotest.test_case "signed expressions" `Quick test_signed_expressions;
    Alcotest.test_case "mixed signedness keeps the unsigned top bit" `Quick
      test_mixed_signedness;
    Alcotest.test_case "order-by signed column" `Quick test_order_by_signed;
    Alcotest.test_case "global min/max/avg respect validity" `Quick
      test_global_minmax_validity;
    QCheck_alcotest.to_alcotest qcheck_semi_anti_partition;
    QCheck_alcotest.to_alcotest qcheck_tablesort_idempotent;
    QCheck_alcotest.to_alcotest qcheck_join_output_bound;
    Alcotest.test_case "data-owner padding" `Quick test_pad_rows;
    Alcotest.test_case "limit beyond valid rows" `Quick test_limit_beyond_valid;
    Alcotest.test_case "sort, ORDER BY, DISTINCT, GROUP BY on 0-2 rows" `Quick
      test_tiny_tables;
  ]

let () = Alcotest.run "orq_core" [ ("core", suite) ]
