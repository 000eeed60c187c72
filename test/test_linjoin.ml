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

let with_profile p f =
  let old = Primcost.profile () in
  Primcost.set_profile p;
  Fun.protect ~finally:(fun () -> Primcost.set_profile old) f

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
      (* a composite key wider than one ring word is out of the linear
         operator's class (the fingerprint domain) *)
      let wide name =
        Table.create ctx name
          [ ("A", 32, [| 1; 2; 3 |]); ("B", 32, [| 4; 5; 6 |]) ]
      in
      match
        snd (Joincost.recording (fun () -> Dataflow.inner_join (wide "l") (wide "r") ~on:[ "A"; "B" ]))
      with
      | [ d ] ->
          Alcotest.(check string) "fell back to sort" "sort"
            (Joincost.op_label d.Joincost.jd_chosen);
          Alcotest.(check bool) "logged as forced" true d.Joincost.jd_forced
      | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds))

let test_decision_log_and_auto_pick () =
  let ctx = Ctx.create ~seed:51 Ctx.Sh_hm in
  with_mode Joincost.Auto (fun () ->
      match
        snd
          (Joincost.recording (fun () ->
               Dataflow.inner_join (customers ctx) (orders ctx) ~on:[ "CustKey" ]
                 ~copy:[ "Nation" ]))
      with
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
        let seconds = Orq_net.Netsim.network_time (Primcost.profile ()) in
        if seconds t_linear <= seconds t_sort then
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
      let predicted =
        with_mode Joincost.Auto (fun () -> Joincost.choose_logged ctx ~node:"l⋈r" shape)
      in
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
   at [Ring.index_bits n] bits (rounds and messages did not move), and
   its SH-HM rows when the index vector's and the fingerprints' openings
   began riding their shuffles' last round ({!Primcost.shuffle_open}:
   one round, one message and w·n bits fewer per opened lane; the SH-DM
   and Mal-HM rows did not move), and its sort column again when
   [sort_pass] began pricing each partition level as the opened
   comparison ({!Primcost.lt_lex_open}: the ladder's levels narrow as
   they go, and under SH-HM the opening rides the last AND) and the
   payload routing as one fused Protocol 5 ({!Primcost.applyperm}, where
   it had been two sequential shuffles), and its SH-DM and Mal-HM sort
   column again when the opened comparison's last AND stopped forming
   the unused eq product (bits only; rounds and messages did not move),
   and its sort column again when the ladder's lower levels stopped
   forming the lowest block's eq product where only lt is read and the
   merge stopped forming the least significant group's (bits only).
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
    ("SH-DM", 0, 7, 1, Some (66, 46214, 128), None);
    ("SH-DM", 0, 7, 2, Some (80, 57190, 156), None);
    ("SH-DM", 0, 300, 1, Some (174, 5695800, 344), None);
    ("SH-DM", 0, 300, 2, Some (212, 6943800, 420), None);
    ("SH-DM", 1, 0, 1, Some (19, 2106, 36), None);
    ("SH-DM", 1, 0, 2, Some (23, 2530, 44), None);
    ("SH-DM", 1, 1, 1, Some (30, 4948, 56), Some (16, 4648, 34));
    ("SH-DM", 1, 1, 2, Some (36, 6356, 68), Some (16, 4808, 34));
    ("SH-DM", 1, 7, 1, Some (66, 52816, 128), Some (30, 49596, 62));
    ("SH-DM", 1, 7, 2, Some (80, 65360, 156), Some (30, 50476, 62));
    ("SH-DM", 1, 300, 1, Some (174, 5714786, 344), Some (72, 5295138, 146));
    ("SH-DM", 1, 300, 2, Some (212, 6966946, 420), Some (72, 5331178, 146));
    ("SH-DM", 7, 0, 1, Some (54, 9702, 104), None);
    ("SH-DM", 7, 0, 2, Some (68, 20958, 132), None);
    ("SH-DM", 7, 1, 1, Some (63, 13002, 120), Some (16, 12676, 34));
    ("SH-DM", 7, 1, 2, Some (77, 25906, 148), Some (16, 13076, 34));
    ("SH-DM", 7, 7, 1, Some (90, 61866, 174), Some (30, 57624, 62));
    ("SH-DM", 7, 7, 2, Some (108, 90706, 210), Some (30, 58744, 62));
    ("SH-DM", 7, 300, 1, Some (174, 5828702, 344), Some (72, 5303166, 146));
    ("SH-DM", 7, 300, 2, Some (212, 7105822, 420), Some (72, 5339446, 146));
    ("SH-DM", 300, 0, 1, Some (132, 927000, 260), None);
    ("SH-DM", 300, 0, 2, Some (170, 2187000, 336), None);
    ("SH-DM", 300, 1, 1, Some (141, 932004, 276), Some (16, 404710, 34));
    ("SH-DM", 300, 1, 2, Some (179, 2196244, 352), Some (16, 416830, 34));
    ("SH-DM", 300, 7, 1, Some (155, 987116, 304), Some (30, 449658, 62));
    ("SH-DM", 300, 7, 2, Some (193, 2276796, 380), Some (30, 462498, 62));
    ("SH-DM", 300, 300, 1, Some (210, 6899400, 414), Some (72, 5695200, 146));
    ("SH-DM", 300, 300, 2, Some (252, 9690600, 498), Some (72, 5743200, 146));
    ("SH-HM", 0, 0, 1, Some (10, 0, 30), None);
    ("SH-HM", 0, 0, 2, Some (14, 0, 42), None);
    ("SH-HM", 0, 1, 1, Some (20, 1854, 57), None);
    ("SH-HM", 0, 1, 2, Some (24, 2262, 69), None);
    ("SH-HM", 0, 7, 1, Some (65, 40341, 203), None);
    ("SH-HM", 0, 7, 2, Some (79, 49833, 245), None);
    ("SH-HM", 0, 300, 1, Some (167, 4535100, 527), None);
    ("SH-HM", 0, 300, 2, Some (205, 5525100, 641), None);
    ("SH-HM", 1, 0, 1, Some (20, 1854, 57), None);
    ("SH-HM", 1, 0, 2, Some (24, 2262, 69), None);
    ("SH-HM", 1, 1, 1, Some (31, 5290, 95), Some (17, 4714, 58));
    ("SH-HM", 1, 1, 2, Some (37, 6706, 113), Some (17, 5074, 58));
    ("SH-HM", 1, 7, 1, Some (65, 46104, 203), Some (31, 43324, 100));
    ("SH-HM", 1, 7, 2, Some (79, 56952, 245), Some (31, 45484, 100));
    ("SH-HM", 1, 300, 1, Some (167, 4550217, 527), Some (73, 4216715, 226));
    ("SH-HM", 1, 300, 2, Some (205, 5543517, 641), Some (73, 4306775, 226));
    ("SH-HM", 7, 0, 1, Some (50, 15141, 172), None);
    ("SH-HM", 7, 0, 2, Some (64, 25473, 214), None);
    ("SH-HM", 7, 1, 1, Some (60, 19014, 199), Some (17, 13204, 58));
    ("SH-HM", 7, 1, 2, Some (74, 30942, 241), Some (17, 13924, 58));
    ("SH-HM", 7, 7, 1, Some (85, 64358, 280), Some (31, 51814, 100));
    ("SH-HM", 7, 7, 2, Some (103, 90398, 334), Some (31, 54334, 100));
    ("SH-HM", 7, 300, 1, Some (167, 4640919, 527), Some (73, 4225205, 226));
    ("SH-HM", 7, 300, 2, Some (205, 5654019, 641), Some (73, 4315625, 226));
    ("SH-HM", 300, 0, 1, Some (116, 1071900, 406), None);
    ("SH-HM", 300, 0, 2, Some (154, 2097900, 520), None);
    ("SH-HM", 300, 1, 1, Some (126, 1077183, 433), Some (17, 427799, 58));
    ("SH-HM", 300, 1, 2, Some (164, 2106723, 547), Some (17, 446099, 58));
    ("SH-HM", 300, 7, 1, Some (140, 1127697, 475), Some (31, 466409, 100));
    ("SH-HM", 300, 7, 2, Some (178, 2178477, 589), Some (31, 486509, 100));
    ("SH-HM", 300, 300, 1, Some (193, 6023400, 640), Some (73, 4639800, 226));
    ("SH-HM", 300, 300, 2, Some (235, 8305800, 766), Some (73, 4747800, 226));
    ("Mal-HM", 0, 0, 1, Some (10, 0, 120), None);
    ("Mal-HM", 0, 0, 2, Some (14, 0, 168), None);
    ("Mal-HM", 0, 1, 1, Some (21, 7416, 216), None);
    ("Mal-HM", 0, 1, 2, Some (25, 9048, 264), None);
    ("Mal-HM", 0, 7, 1, Some (72, 165208, 752), None);
    ("Mal-HM", 0, 7, 2, Some (86, 203176, 920), None);
    ("Mal-HM", 0, 300, 1, Some (180, 18118240, 2024), None);
    ("Mal-HM", 0, 300, 2, Some (218, 22078240, 2480), None);
    ("Mal-HM", 1, 0, 1, Some (21, 7416, 216), None);
    ("Mal-HM", 1, 0, 2, Some (25, 9048, 264), None);
    ("Mal-HM", 1, 1, 1, Some (36, 23184, 328), Some (20, 22232, 188));
    ("Mal-HM", 1, 1, 2, Some (42, 28848, 400), Some (20, 23352, 188));
    ("Mal-HM", 1, 7, 1, Some (72, 188224, 752), Some (34, 174512, 356));
    ("Mal-HM", 1, 7, 2, Some (86, 231616, 920), Some (34, 181872, 356));
    ("Mal-HM", 1, 300, 1, Some (180, 18178600, 2024), Some (76, 16762596, 860));
    ("Mal-HM", 1, 300, 2, Some (218, 22151800, 2480), Some (76, 17074676, 860));
    ("Mal-HM", 7, 0, 1, Some (62, 68252, 592), None);
    ("Mal-HM", 7, 0, 2, Some (76, 109580, 760), None);
    ("Mal-HM", 7, 1, 1, Some (73, 83672, 688), Some (20, 54032, 188));
    ("Mal-HM", 7, 1, 2, Some (87, 131384, 856), Some (20, 55632, 188));
    ("Mal-HM", 7, 7, 1, Some (100, 266328, 1004), Some (34, 206312, 356));
    ("Mal-HM", 7, 7, 2, Some (118, 370488, 1220), Some (34, 214152, 356));
    ("Mal-HM", 7, 300, 1, Some (180, 18540760, 2024), Some (76, 16794396, 860));
    ("Mal-HM", 7, 300, 2, Some (218, 22593160, 2480), Some (76, 17106956, 860));
    ("Mal-HM", 300, 0, 1, Some (140, 4243280, 1480), None);
    ("Mal-HM", 300, 0, 2, Some (178, 8347280, 1936), None);
    ("Mal-HM", 300, 1, 1, Some (151, 4264196, 1576), Some (20, 1606932, 188));
    ("Mal-HM", 300, 1, 2, Some (189, 8382356, 2032), Some (20, 1631972, 188));
    ("Mal-HM", 300, 7, 1, Some (165, 4464956, 1744), Some (34, 1759212, 356));
    ("Mal-HM", 300, 7, 2, Some (203, 8668076, 2200), Some (34, 1790492, 356));
    ("Mal-HM", 300, 300, 1, Some (220, 23972128, 2396), Some (76, 18347296, 860));
    ("Mal-HM", 300, 300, 2, Some (262, 33101728, 2900), Some (76, 18683296, 860));
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
                (* the applicable operators are the logged candidates *)
                let cands =
                  with_mode Joincost.Auto (fun () ->
                      List.concat_map
                        (fun d -> List.map (fun (op, _, _) -> op) d.Joincost.jd_cands)
                        (snd
                           (Joincost.recording (fun () ->
                                Joincost.choose_logged ctx ~node:"golden" shape))))
                in
                List.iter
                  (fun (op, pinned) ->
                    if List.mem op cands then begin
                      let name =
                        Printf.sprintf
                          "%s %s %s n=%d m=%d keys=%d" label
                          (Joincost.op_label op)
                          (Joincost.node_variant_label shape) n m nkeys
                      in
                      match pinned with
                      | None -> Alcotest.failf "%s: applicable but not pinned" name
                      | Some want ->
                          let t = Joincost.predict ctx shape op in
                          Alcotest.(check (triple int int int)) name want
                            (t.Comm.t_rounds, t.Comm.t_bits, t.Comm.t_messages)
                    end)
                  [ (Joincost.Sort, sort); (Linear, linear) ])
              [ Joincost.J_inner; J_semi; J_anti ])
        golden_predictions;
      (* n, m in {0, 1, 7, 300} x one or two key columns *)
      Alcotest.(check int) "every grid cell pinned" 32
        (List.length
           (List.filter
              (fun (l, _, _, _, _, _) -> l = Ctx.kind_label kind)
              golden_predictions)))
    kinds

(* ---------------- zero-cost profile ---------------- *)

(* Physical join selection under the local profile, where every
   candidate's modeled network time is 0 s: the cost model must still
   pick the operator with fewer rounds and bits, not whichever candidate
   it happened to price first. *)
(* A customer ⋈ orders node: unique customer keys on the build side,
   ten orders per customer on the probe side. *)
let test_tie_prefers_lighter_operator () =
  with_profile Orq_net.Netsim.local @@ fun () ->
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:7 kind in
      let n = 75 and m = 750 in
      let customer =
        Table.create ctx "customer"
          [
            ("c_custkey", 16, Array.init n (fun i -> i + 1));
            ("c_nationkey", 5, Array.init n (fun i -> i mod 25));
          ]
      and orders =
        Table.create ctx "orders"
          [
            ("c_custkey", 16, Array.init m (fun i -> (i mod n) + 1));
            ("o_orderkey", 16, Array.init m (fun i -> i + 1));
          ]
      in
      let _, log =
        Joincost.recording (fun () ->
            Dataflow.inner_join customer orders ~on:[ "c_custkey" ] ~copy:[ "c_nationkey" ])
      in
      let label = Ctx.kind_label kind in
      match log with
      | [ d ] ->
          List.iter
            (fun (op, _, sec) ->
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s %s priced at 0 s" label
                   (Joincost.op_label op))
                0. sec)
            d.Joincost.jd_cands;
          let rounds op =
            let _, t, _ =
              List.find (fun (o, _, _) -> o = op) d.Joincost.jd_cands
            in
            t.Comm.t_rounds
          in
          Alcotest.(check bool)
            (label ^ " linear has fewer rounds")
            true
            (rounds Joincost.Linear < rounds Joincost.Sort);
          Alcotest.(check string) (label ^ " auto picks linear") "linear"
            (Joincost.op_label d.Joincost.jd_chosen)
      | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds))
    Ctx.all_kinds

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
      ( "local profile",
        [
          Alcotest.test_case "tie broken by rounds and bits" `Quick
            test_tie_prefers_lighter_operator;
        ] );
    ]
