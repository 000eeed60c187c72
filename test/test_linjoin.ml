(* Tests for the LINQ-style linear join and the cost-based physical join
   selection: the linear operator must be value-identical to the
   sort-based join-aggregation and to the plaintext reference across all
   three protocols and every planner-reachable variant (inner /
   inner+copy / composite-key / semi / anti / duplicates), the selection
   must respect applicability and a forced mode, and
   on concrete join shapes the predicted-cheapest operator must be the
   measured-cheapest one. *)

open Orq_proto
open Orq_core
open Orq_plaintext
module Comm = Orq_net.Comm

let kinds = Ctx.all_kinds
let rows_t = Alcotest.(list (list int))
let for_all_kinds f = List.iter (fun k -> f (Ctx.create ~seed:51 k)) kinds

let with_mode m f =
  let old = Joincost.mode () in
  Joincost.set_mode m;
  Fun.protect ~finally:(fun () -> Joincost.set_mode old) f

let forced op f = with_mode (Joincost.Force op) f

(* ---------------- fixtures ---------------- *)

let customers ctx =
  Table.create ctx "customers"
    [
      ("CustKey", 8, [| 1; 2; 3; 4; 7 |]);
      ("Nation", 4, [| 3; 1; 3; 2; 1 |]);
    ]

let orders ctx =
  Table.create ctx "orders"
    [
      ("CustKey", 8, [| 2; 1; 2; 5; 3; 2 |]);
      ("Price", 16, [| 10; 50; 20; 99; 70; 30 |]);
    ]

let p_customers () =
  Ptable.of_cols
    [ ("CustKey", [| 1; 2; 3; 4; 7 |]); ("Nation", [| 3; 1; 3; 2; 1 |]) ]

let p_orders () =
  Ptable.of_cols
    [
      ("CustKey", [| 2; 1; 2; 5; 3; 2 |]);
      ("Price", [| 10; 50; 20; 99; 70; 30 |]);
    ]

let join_cols = [ "CustKey"; "Nation"; "Price" ]

(* ---------------- value identity: inner ---------------- *)

let test_linear_inner_vs_sort_and_plaintext () =
  for_all_kinds (fun ctx ->
      let reference =
        Ptable.rows_sorted
          (Ptable.inner_join (p_customers ()) (p_orders ()) ~on:[ "CustKey" ])
          join_cols
      in
      let run op =
        forced op (fun () ->
            let j =
              Dataflow.inner_join (customers ctx) (orders ctx)
                ~on:[ "CustKey" ] ~copy:[ "Nation" ]
            in
            Table.valid_rows_sorted j join_cols)
      in
      Alcotest.(check rows_t) "linear vs plaintext" reference (run Joincost.Linear);
      Alcotest.(check rows_t) "sort vs plaintext" reference (run Joincost.Sort))

let test_linear_inner_no_copy () =
  for_all_kinds (fun ctx ->
      let run op =
        forced op (fun () ->
            Table.valid_rows_sorted
              (Dataflow.inner_join (customers ctx) (orders ctx)
                 ~on:[ "CustKey" ])
              [ "CustKey"; "Price" ])
      in
      Alcotest.(check rows_t) "no-copy inner" (run Joincost.Sort)
        (run Joincost.Linear))

let test_linear_respects_validity () =
  for_all_kinds (fun ctx ->
      let run op =
        forced op (fun () ->
            let c =
              Dataflow.filter (customers ctx) Expr.(col "CustKey" <>. const 2)
            in
            let o =
              Dataflow.filter (orders ctx) Expr.(col "Price" <. const 70)
            in
            let j = Dataflow.inner_join c o ~on:[ "CustKey" ] ~copy:[ "Nation" ] in
            Alcotest.(check int) "physical |R| rows" 6 (Table.nrows j);
            Table.valid_rows_sorted j join_cols)
      in
      Alcotest.(check rows_t) "invalid rows never match"
        (run Joincost.Sort) (run Joincost.Linear))

let test_linear_composite_key () =
  for_all_kinds (fun ctx ->
      let l =
        Table.create ctx "l"
          [
            ("A", 6, [| 1; 1; 2; 3 |]);
            ("B", 5, [| 1; 2; 1; 9 |]);
            ("X", 8, [| 11; 12; 13; 14 |]);
          ]
      and r =
        Table.create ctx "r"
          [
            ("A", 6, [| 1; 1; 2; 2; 3; 1 |]);
            ("B", 5, [| 2; 1; 1; 2; 9; 1 |]);
            ("Y", 8, [| 1; 2; 3; 4; 5; 6 |]);
          ]
      in
      let run op =
        forced op (fun () ->
            Table.valid_rows_sorted
              (Dataflow.inner_join l r ~on:[ "A"; "B" ] ~copy:[ "X" ])
              [ "A"; "B"; "X"; "Y" ])
      in
      Alcotest.(check rows_t) "two-column key" (run Joincost.Sort)
        (run Joincost.Linear))

(* ---------------- value identity: semi / anti ---------------- *)

let test_linear_semi_anti () =
  for_all_kinds (fun ctx ->
      let run sel op =
        forced op (fun () ->
            Table.valid_rows_sorted
              (sel (customers ctx) (orders ctx) ~on:[ "CustKey" ])
              [ "CustKey"; "Nation" ])
      in
      let semi l r ~on = Dataflow.semi_join l r ~on
      and anti l r ~on = Dataflow.anti_join l r ~on in
      Alcotest.(check rows_t) "semi" (run semi Joincost.Sort)
        (run semi Joincost.Linear);
      Alcotest.(check rows_t) "anti" (run anti Joincost.Sort)
        (run anti Joincost.Linear))

let test_linear_semi_anti_duplicates () =
  for_all_kinds (fun ctx ->
      let l =
        Table.create ctx "l" [ ("K", 6, [| 1; 1; 2; 4; 4 |]) ]
      and r = Table.create ctx "r" [ ("K", 6, [| 1; 1; 3; 4 |]) ] in
      let run sel op =
        forced op (fun () ->
            Table.valid_rows_sorted (sel l r ~on:[ "K" ]) [ "K" ])
      in
      let semi l r ~on = Dataflow.semi_join l r ~on
      and anti l r ~on = Dataflow.anti_join l r ~on in
      Alcotest.(check rows_t) "semi, dup both sides" (run semi Joincost.Sort)
        (run semi Joincost.Linear);
      Alcotest.(check rows_t) "anti, dup both sides" (run anti Joincost.Sort)
        (run anti Joincost.Linear))

(* ---------------- applicability and override ---------------- *)

let test_forced_linear_falls_back_when_inapplicable () =
  let ctx = Ctx.create ~seed:51 Ctx.Sh_hm in
  forced Joincost.Linear (fun () ->
      Joincost.reset_log ();
      (* a composite key wider than one ring word is out of the linear
         operator's class (the fingerprint domain) *)
      let wide name =
        Table.create ctx name
          [ ("A", 32, [| 1; 2; 3 |]); ("B", 32, [| 4; 5; 6 |]) ]
      in
      let j = Dataflow.inner_join (wide "l") (wide "r") ~on:[ "A"; "B" ] in
      ignore j;
      match Joincost.log () with
      | [ d ] ->
          Alcotest.(check string) "fell back to sort" "sort"
            (Joincost.op_label d.Joincost.jd_chosen);
          Alcotest.(check bool) "logged as forced" true d.Joincost.jd_forced
      | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds))

let test_decision_log_and_auto_pick () =
  let ctx = Ctx.create ~seed:51 Ctx.Sh_hm in
  with_mode Joincost.Auto (fun () ->
      Joincost.reset_log ();
      let j =
        Dataflow.inner_join (customers ctx) (orders ctx) ~on:[ "CustKey" ]
          ~copy:[ "Nation" ]
      in
      ignore j;
      match Joincost.log () with
      | [ d ] ->
          Alcotest.(check bool) "not forced" false d.Joincost.jd_forced;
          Alcotest.(check bool) "both candidates priced" true
            (List.length d.Joincost.jd_cands = 2);
          (* the logged choice is the cheapest candidate by modeled time *)
          let cheapest =
            List.fold_left
              (fun (bo, bs) (o, _, s) -> if s < bs then (o, s) else (bo, bs))
              (Joincost.Sort, infinity)
              d.Joincost.jd_cands
            |> fst
          in
          Alcotest.(check string) "chosen == predicted cheapest"
            (Joincost.op_label cheapest)
            (Joincost.op_label d.Joincost.jd_chosen)
      | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds))

let test_mode_labels_and_cache_tag () =
  List.iter
    (fun (m, expect) ->
      Alcotest.(check string) expect expect (Joincost.mode_label m))
    [
      (Joincost.Auto, "auto");
      (Joincost.Force Joincost.Sort, "sort");
      (Joincost.Force Joincost.Linear, "linear");
    ];
  with_mode (Joincost.Force Joincost.Linear) (fun () ->
      let tag = Joincost.cache_tag () in
      Alcotest.(check bool) "tag names the mode" true
        (String.length tag > 6 && String.sub tag 0 6 = "linear"))

(* ---------------- pick correctness ---------------- *)

(* On a concrete join shape, run every applicable operator forced,
   measure its real traffic, and check that the operator the cost model
   ranks cheapest is also the measured-cheapest one (under the same
   modeled network time, without the downstream surcharge — the inputs
   are compared operator-vs-operator on equal output semantics, so we
   bound the check to Sort vs Linear whose outputs are row-equivalent). *)
let test_predicted_cheapest_is_measured_cheapest () =
  for_all_kinds (fun ctx ->
      let n = 48 and m = 64 in
      let l =
        Table.create ctx "l"
          [
            ("K", 16, Array.init n (fun i -> i + 1));
            ("X", 8, Array.init n (fun i -> (i * 7) land 255));
          ]
      and r =
        Table.create ctx "r"
          [
            ("K", 16, Array.init m (fun i -> (i * 3 mod (2 * n)) + 1));
            ("Y", 8, Array.init m (fun i -> (i * 5) land 255));
          ]
      in
      let measure op =
        forced op (fun () ->
            let snap = Comm.snapshot ctx.Ctx.comm in
            let j = Dataflow.inner_join l r ~on:[ "K" ] ~copy:[ "X" ] in
            ignore (Table.valid_rows_sorted j [ "K" ]);
            Comm.since ctx.Ctx.comm snap)
      in
      let t_sort = measure Joincost.Sort
      and t_linear = measure Joincost.Linear in
      let measured_cheapest =
        if Joincost.seconds t_linear <= Joincost.seconds t_sort then
          Joincost.Linear
        else Joincost.Sort
      in
      let shape =
        {
          Joincost.j_n = n;
          j_m = m;
          j_key_w = [ 16 ];
          j_copy_w = [ 8 ];
          j_pay_w = [ 8 ];
          j_group = None;
          j_variant = Joincost.J_inner;
        }
      in
      let predicted = with_mode Joincost.Auto (fun () -> Joincost.choose ctx shape) in
      Alcotest.(check string)
        (Printf.sprintf "pick on %s" (Ctx.kind_label ctx.Ctx.kind))
        (Joincost.op_label measured_cheapest)
        (Joincost.op_label predicted);
      (* and the model agrees with the meter on which of the two is
         lighter in absolute traffic, not just modeled seconds *)
      Alcotest.(check bool) "linear measured lighter in bits" true
        (t_linear.Comm.t_bits < t_sort.Comm.t_bits);
      Alcotest.(check bool) "linear measured lighter in rounds" true
        (t_linear.Comm.t_rounds < t_sort.Comm.t_rounds))

(* ---------------- golden predictions ---------------- *)

(* Joincost.predict over a grid of join shapes, pinned to the exact
   (rounds, bits, messages) the planner produced before its estimates
   were rewritten over the shared primitive price list (Primcost); the
   table was recorded by running this same grid on that earlier tree, and
   its sort column re-recorded when [sort_pass] began pricing the index
   at [Ring.index_bits n] bits (rounds and messages did not move).
   Predictions of ungrouped shapes depend only on (protocol, n, m, key
   columns): the variant decides applicability alone, so each row covers
   all four variants. [None] marks an operator that no shape
   of the row admits. Rows: protocol, n, m, number of key columns, then
   the sort and linear predictions. *)
let golden_predictions =
  [
    ("SH-DM", 0, 0, 1, Some (10, 0, 20), None);
    ("SH-DM", 0, 0, 2, Some (14, 0, 28), None);
    ("SH-DM", 0, 1, 1, Some (19, 2106, 36), None);
    ("SH-DM", 0, 1, 2, Some (23, 2530, 44), None);
    ("SH-DM", 0, 7, 1, Some (68, 49966, 128), None);
    ("SH-DM", 0, 7, 2, Some (82, 70014, 156), None);
    ("SH-DM", 0, 300, 1, Some (176, 6119400, 344), None);
    ("SH-DM", 0, 300, 2, Some (214, 8533800, 420), None);
    ("SH-DM", 1, 0, 1, Some (19, 2106, 36), None);
    ("SH-DM", 1, 0, 2, Some (23, 2530, 44), None);
    ("SH-DM", 1, 1, 1, Some (32, 5436, 56), Some (16, 4648, 34));
    ("SH-DM", 1, 1, 2, Some (38, 7708, 68), Some (16, 4808, 34));
    ("SH-DM", 1, 7, 1, Some (68, 57104, 128), Some (30, 49596, 62));
    ("SH-DM", 1, 7, 2, Some (82, 80016, 156), Some (30, 50476, 62));
    ("SH-DM", 1, 300, 1, Some (176, 6139798, 344), Some (72, 5295138, 146));
    ("SH-DM", 1, 300, 2, Some (214, 8562246, 420), Some (72, 5331178, 146));
    ("SH-DM", 7, 0, 1, Some (61, 14518, 110), None);
    ("SH-DM", 7, 0, 2, Some (75, 35126, 138), None);
    ("SH-DM", 7, 1, 1, Some (70, 18506, 126), Some (16, 12676, 34));
    ("SH-DM", 7, 1, 2, Some (84, 42098, 154), Some (16, 13076, 34));
    ("SH-DM", 7, 7, 1, Some (98, 73682, 182), Some (30, 57624, 62));
    ("SH-DM", 7, 7, 2, Some (116, 127274, 218), Some (30, 58744, 62));
    ("SH-DM", 7, 300, 1, Some (176, 6262186, 344), Some (72, 5303166, 146));
    ("SH-DM", 7, 300, 2, Some (214, 8732922, 420), Some (72, 5339446, 146));
    ("SH-DM", 300, 0, 1, Some (145, 1414200, 278), None);
    ("SH-DM", 300, 0, 2, Some (183, 3852600, 354), None);
    ("SH-DM", 300, 1, 1, Some (154, 1420828, 294), Some (16, 404710, 34));
    ("SH-DM", 300, 1, 2, Some (192, 3867396, 370), Some (16, 416830, 34));
    ("SH-DM", 300, 7, 1, Some (168, 1485684, 322), Some (30, 449658, 62));
    ("SH-DM", 300, 7, 2, Some (206, 3981260, 398), Some (30, 462498, 62));
    ("SH-DM", 300, 300, 1, Some (224, 7967400, 434), Some (72, 5695200, 146));
    ("SH-DM", 300, 300, 2, Some (266, 13374600, 518), Some (72, 5743200, 146));
    ("SH-HM", 0, 0, 1, Some (10, 0, 30), None);
    ("SH-HM", 0, 0, 2, Some (14, 0, 42), None);
    ("SH-HM", 0, 1, 1, Some (20, 1854, 57), None);
    ("SH-HM", 0, 1, 2, Some (24, 2262, 69), None);
    ("SH-HM", 0, 7, 1, Some (72, 44814, 204), None);
    ("SH-HM", 0, 7, 2, Some (86, 61110, 246), None);
    ("SH-HM", 0, 300, 1, Some (180, 4933800, 528), None);
    ("SH-HM", 0, 300, 2, Some (218, 6798600, 642), None);
    ("SH-HM", 1, 0, 1, Some (20, 1854, 57), None);
    ("SH-HM", 1, 0, 2, Some (24, 2262, 69), None);
    ("SH-HM", 1, 1, 1, Some (36, 6108, 96), Some (18, 4842, 60));
    ("SH-HM", 1, 1, 2, Some (42, 8172, 114), Some (18, 5202, 60));
    ("SH-HM", 1, 7, 1, Some (72, 51216, 204), Some (32, 43836, 102));
    ("SH-HM", 1, 7, 2, Some (86, 69840, 246), Some (32, 45996, 102));
    ("SH-HM", 1, 300, 1, Some (180, 4950246, 528), Some (74, 4235979, 228));
    ("SH-HM", 1, 300, 2, Some (218, 6821262, 642), Some (74, 4326039, 228));
    ("SH-HM", 7, 0, 1, Some (67, 22449, 183), None);
    ("SH-HM", 7, 0, 2, Some (81, 40425, 225), None);
    ("SH-HM", 7, 1, 1, Some (77, 27366, 210), Some (18, 13716, 60));
    ("SH-HM", 7, 1, 2, Some (91, 48030, 252), Some (18, 14436, 60));
    ("SH-HM", 7, 7, 1, Some (105, 80766, 294), Some (32, 52710, 102));
    ("SH-HM", 7, 7, 2, Some (123, 126630, 348), Some (32, 55230, 102));
    ("SH-HM", 7, 300, 1, Some (180, 5048922, 528), Some (74, 4244853, 228));
    ("SH-HM", 7, 300, 2, Some (218, 6957234, 642), Some (74, 4335273, 228));
    ("SH-HM", 300, 0, 1, Some (151, 1615500, 435), None);
    ("SH-HM", 300, 0, 2, Some (189, 3552300, 549), None);
    ("SH-HM", 300, 1, 1, Some (161, 1622595, 462), Some (18, 447063, 60));
    ("SH-HM", 300, 1, 2, Some (199, 3565971, 576), Some (18, 465363, 60));
    ("SH-HM", 300, 7, 1, Some (175, 1683981, 504), Some (32, 486057, 102));
    ("SH-HM", 300, 7, 2, Some (213, 3666813, 618), Some (32, 506157, 102));
    ("SH-HM", 300, 300, 1, Some (231, 7187400, 672), Some (74, 4678200, 228));
    ("SH-HM", 300, 300, 2, Some (273, 11485800, 798), Some (74, 4786200, 228));
    ("Mal-HM", 0, 0, 1, Some (10, 0, 120), None);
    ("Mal-HM", 0, 0, 2, Some (14, 0, 168), None);
    ("Mal-HM", 0, 1, 1, Some (21, 7416, 216), None);
    ("Mal-HM", 0, 1, 2, Some (25, 9048, 264), None);
    ("Mal-HM", 0, 7, 1, Some (76, 183016, 752), None);
    ("Mal-HM", 0, 7, 2, Some (90, 248200, 920), None);
    ("Mal-HM", 0, 300, 1, Some (184, 19702240, 2024), None);
    ("Mal-HM", 0, 300, 2, Some (222, 27161440, 2480), None);
    ("Mal-HM", 1, 0, 1, Some (21, 7416, 216), None);
    ("Mal-HM", 1, 0, 2, Some (25, 9048, 264), None);
    ("Mal-HM", 1, 1, 1, Some (40, 26448, 328), Some (20, 22232, 188));
    ("Mal-HM", 1, 1, 2, Some (46, 34704, 400), Some (20, 23352, 188));
    ("Mal-HM", 1, 7, 1, Some (76, 208576, 752), Some (34, 174512, 356));
    ("Mal-HM", 1, 7, 2, Some (90, 283072, 920), Some (34, 181872, 356));
    ("Mal-HM", 1, 300, 1, Some (184, 19767880, 2024), Some (76, 16762596, 860));
    ("Mal-HM", 1, 300, 2, Some (222, 27251944, 2480), Some (76, 17074676, 860));
    ("Mal-HM", 7, 0, 1, Some (73, 97316, 628), None);
    ("Mal-HM", 7, 0, 2, Some (87, 169220, 796), None);
    ("Mal-HM", 7, 1, 1, Some (84, 116888, 724), Some (20, 54032, 188));
    ("Mal-HM", 7, 1, 2, Some (98, 199544, 892), Some (20, 55632, 188));
    ("Mal-HM", 7, 7, 1, Some (112, 331512, 1052), Some (34, 206312, 356));
    ("Mal-HM", 7, 7, 2, Some (130, 514968, 1268), Some (34, 214152, 356));
    ("Mal-HM", 7, 300, 1, Some (184, 20161720, 2024), Some (76, 16794396, 860));
    ("Mal-HM", 7, 300, 2, Some (222, 27794968, 2480), Some (76, 17106956, 860));
    ("Mal-HM", 300, 0, 1, Some (157, 6396080, 1588), None);
    ("Mal-HM", 300, 0, 2, Some (195, 14143280, 2044), None);
    ("Mal-HM", 300, 1, 1, Some (168, 6424172, 1684), Some (20, 1606932, 188));
    ("Mal-HM", 300, 1, 2, Some (206, 14197676, 2140), Some (20, 1631972, 188));
    ("Mal-HM", 300, 7, 1, Some (182, 6667988, 1852), Some (34, 1759212, 356));
    ("Mal-HM", 300, 7, 2, Some (220, 14599316, 2308), Some (34, 1790492, 356));
    ("Mal-HM", 300, 300, 1, Some (238, 28580128, 2516), Some (76, 18347296, 860));
    ("Mal-HM", 300, 300, 2, Some (280, 45773728, 3020), Some (76, 18683296, 860));
  ]

let test_golden_predictions () =
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:51 kind in
      List.iter
        (fun (label, n, m, nkeys, sort, linear) ->
          if label = Ctx.kind_label kind then
            List.iter
              (fun variant ->
                let shape =
                  {
                    Joincost.j_n = n;
                    j_m = m;
                    j_key_w = (if nkeys = 1 then [ 12 ] else [ 12; 20 ]);
                    j_copy_w = [ 16 ];
                    j_pay_w = [ 24; 8 ];
                    j_group = None;
                    j_variant = variant;
                  }
                in
                List.iter
                  (fun (op, pinned) ->
                    if Joincost.applicable ctx shape op then begin
                      let name =
                        Printf.sprintf
                          "%s %s %s n=%d m=%d keys=%d" label
                          (Joincost.op_label op)
                          (Joincost.variant_label variant) n m nkeys
                      in
                      match pinned with
                      | None -> Alcotest.failf "%s: applicable but not pinned" name
                      | Some want ->
                          let t = Joincost.predict ctx shape op in
                          Alcotest.(check (triple int int int)) name want
                            (t.Comm.t_rounds, t.Comm.t_bits, t.Comm.t_messages)
                    end)
                  [ (Joincost.Sort, sort); (Linear, linear) ])
              [ Joincost.J_inner; J_semi; J_anti; J_outer ])
        golden_predictions;
      (* n, m in {0, 1, 7, 300} x one or two key columns *)
      Alcotest.(check int) "every grid cell pinned" 32
        (List.length
           (List.filter
              (fun (l, _, _, _, _, _) -> l = Ctx.kind_label kind)
              golden_predictions)))
    kinds

let () =
  Alcotest.run "linjoin"
    [
      ( "identity",
        [
          Alcotest.test_case "inner vs sort+plaintext" `Quick
            test_linear_inner_vs_sort_and_plaintext;
          Alcotest.test_case "inner no copy" `Quick test_linear_inner_no_copy;
          Alcotest.test_case "validity" `Quick test_linear_respects_validity;
          Alcotest.test_case "composite key" `Quick test_linear_composite_key;
          Alcotest.test_case "semi+anti" `Quick test_linear_semi_anti;
          Alcotest.test_case "semi+anti duplicates" `Quick
            test_linear_semi_anti_duplicates;
        ] );
      ( "selection",
        [
          Alcotest.test_case "inapplicable fallback" `Quick
            test_forced_linear_falls_back_when_inapplicable;
          Alcotest.test_case "decision log + auto" `Quick
            test_decision_log_and_auto_pick;
          Alcotest.test_case "labels + cache tag" `Quick
            test_mode_labels_and_cache_tag;
          Alcotest.test_case "predicted == measured" `Quick
            test_predicted_cheapest_is_measured_cheapest;
          Alcotest.test_case "golden predictions" `Quick test_golden_predictions;
        ] );
    ]
