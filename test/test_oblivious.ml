(* Obliviousness tests — the security property §2.4 and Appendix C claim:
   every operator's observable behaviour (communication rounds, bytes,
   message counts, and physical output sizes) must be *identical* for any
   two inputs of the same shape, whatever the data distribution,
   selectivities, join hit-rates or group structure. A difference in any
   metered quantity would be a leak.

   Equality is checked on *structural transcripts* (Comm.transcript): the
   exact labeled event sequence, not aggregate totals — two traces that
   differ but happen to sum to the same (rounds, bits, messages) triple
   still fail. *)

open Orq_proto
open Orq_core
module Comm = Orq_net.Comm

(* Run [f] on a fresh context and return its structural transcript. *)
let trace kind f =
  let ctx = Ctx.create ~seed:123 kind in
  Comm.start_recording ctx.Ctx.comm;
  f ctx;
  let tr = Comm.transcript ctx.Ctx.comm in
  Alcotest.(check int) "no transcript overflow" 0
    (Comm.dropped_events ctx.Ctx.comm);
  Comm.stop_recording ctx.Ctx.comm;
  tr

let event_t = Alcotest.testable Comm.pp_event ( = )

let check_same name kind f1 f2 =
  let t1 = trace kind f1 and t2 = trace kind f2 in
  Alcotest.(check bool) (name ^ ": transcripts nonempty") true
    (Array.length t1 > 0);
  Alcotest.(check (array event_t))
    (name ^ " [" ^ Ctx.kind_label kind ^ "]")
    t1 t2

let for_all_kinds f = List.iter f Ctx.all_kinds

(* two same-shaped datasets with very different distributions *)
let data_a = [| 1; 1; 1; 1; 1; 1; 1; 1 |] (* all duplicates *)
let data_b = [| 8; 3; 7; 1; 5; 2; 6; 4 |] (* all distinct *)

let test_filter_oblivious () =
  for_all_kinds (fun kind ->
      check_same "filter trace independent of selectivity" kind
        (fun ctx ->
          let t = Table.create ctx "t" [ ("x", 8, data_a) ] in
          ignore (Dataflow.filter t Expr.(col "x" ==. const 1)) (* all pass *))
        (fun ctx ->
          let t = Table.create ctx "t" [ ("x", 8, data_b) ] in
          ignore (Dataflow.filter t Expr.(col "x" ==. const 99)) (* none *)))

let test_sort_oblivious () =
  for_all_kinds (fun kind ->
      check_same "radixsort trace independent of data" kind
        (fun ctx ->
          ignore (Orq_sort.Radixsort.sort ctx ~bits:8 (Mpc.share_b ctx data_a) []))
        (fun ctx ->
          ignore (Orq_sort.Radixsort.sort ctx ~bits:8 (Mpc.share_b ctx data_b) [])))

let test_aggregate_oblivious () =
  for_all_kinds (fun kind ->
      check_same "group-by trace independent of group structure" kind
        (fun ctx ->
          let t = Table.create ctx "t" [ ("g", 8, data_a); ("x", 8, data_b) ] in
          ignore
            (Dataflow.aggregate t ~keys:[ "g" ]
               ~aggs:[ { Dataflow.src = "x"; dst = "s"; fn = Dataflow.Sum } ]))
        (fun ctx ->
          let t = Table.create ctx "t" [ ("g", 8, data_b); ("x", 8, data_a) ] in
          ignore
            (Dataflow.aggregate t ~keys:[ "g" ]
               ~aggs:[ { Dataflow.src = "x"; dst = "s"; fn = Dataflow.Sum } ])))

let test_join_oblivious () =
  (* all keys match vs none match: identical trace AND identical physical
     output size — the crux of §1 (no join-size leakage) *)
  for_all_kinds (fun kind ->
      let sizes = ref [] in
      check_same "join trace independent of hit rate" kind
        (fun ctx ->
          let l =
            Table.create ctx "L"
              [ ("k", 8, [| 1; 2; 3; 4 |]); ("lv", 8, [| 1; 2; 3; 4 |]) ]
          in
          let r = Table.create ctx "R" [ ("k", 8, [| 1; 2; 3; 1 |]); ("rv", 8, data_a |> fun a -> Array.sub a 0 4) ] in
          let j = Dataflow.inner_join l r ~on:[ "k" ] ~copy:[ "lv" ] in
          sizes := Table.nrows j :: !sizes)
        (fun ctx ->
          let l =
            Table.create ctx "L"
              [ ("k", 8, [| 1; 2; 3; 4 |]); ("lv", 8, [| 9; 9; 9; 9 |]) ]
          in
          let r = Table.create ctx "R" [ ("k", 8, [| 7; 7; 7; 7 |]); ("rv", 8, Array.sub data_b 0 4) ] in
          let j = Dataflow.inner_join l r ~on:[ "k" ] ~copy:[ "lv" ] in
          sizes := Table.nrows j :: !sizes);
      match !sizes with
      | [ s1; s2 ] ->
          Alcotest.(check int) "physical output size data-independent" s1 s2
      | _ -> Alcotest.fail "arity")

let test_full_query_oblivious () =
  (* an end-to-end pipeline: filter + join + group-by + order-by + limit *)
  let pipeline ctx keys vals =
    let l = Table.create ctx "L" [ ("k", 8, [| 1; 2; 3 |]); ("lv", 8, [| 1; 2; 3 |]) ] in
    let r = Table.create ctx "R" [ ("k", 8, keys); ("x", 8, vals) ] in
    let r = Dataflow.filter r Expr.(col "x" >. const 2) in
    let j = Dataflow.inner_join l r ~on:[ "k" ] ~copy:[ "lv" ] in
    let a =
      Dataflow.aggregate j ~keys:[ "k" ]
        ~aggs:[ { Dataflow.src = "x"; dst = "s"; fn = Dataflow.Sum } ]
    in
    ignore (Dataflow.limit (Dataflow.order_by a [ ("s", Dataflow.Desc) ]) 2)
  in
  for_all_kinds (fun kind ->
      check_same "full pipeline trace data-independent" kind
        (fun ctx -> pipeline ctx [| 1; 1; 1; 1; 1 |] [| 9; 9; 9; 9; 9 |])
        (fun ctx -> pipeline ctx [| 5; 6; 7; 8; 9 |] [| 0; 1; 0; 1; 0 |]))

let test_shares_look_random () =
  (* each share vector alone must carry no signal: sharing a constant
     column yields non-constant, well-spread share vectors *)
  for_all_kinds (fun kind ->
      let ctx = Ctx.create ~seed:9 kind in
      let s = Mpc.share_a ctx (Array.make 256 42) in
      Array.iteri
        (fun k vk ->
          if k > 0 || ctx.Ctx.nvec > 1 then begin
            let distinct = List.length (List.sort_uniq compare (Array.to_list vk)) in
            Alcotest.(check bool)
              (Printf.sprintf "share vector %d spread" k)
              true (distinct > 200)
          end)
        s.Share.v)

let test_quicksort_adversarial_orders () =
  (* quicksort's per-run trace is a random variable whose *distribution*
     is input-independent (the shuffle-then-reveal argument, B.1). What we
     can check deterministically: adversarially ordered inputs (sorted,
     reversed, organ-pipe) all sort correctly, and the comparison work
     stays within the Appendix B.4 budget the triple generator assumes *)
  let n = 64 in
  let inputs =
    [
      Array.init n (fun i -> i);
      Array.init n (fun i -> n - 1 - i);
      Array.init n (fun i -> if i < n / 2 then 2 * i else 2 * (n - 1 - i) + 1);
    ]
  in
  for_all_kinds (fun kind ->
      List.iter
        (fun x ->
          let ctx = Ctx.create ~seed:77 kind in
          let y, _ =
            Orq_core.Tablesort.sort_cols ctx ~algo:Orq_core.Tablesort.Quicksort
              ~keys:[ (Share.wrap (Mpc.share_b ctx x), 8, Orq_core.Tablesort.Asc) ] []
          in
          let expect = Array.copy x in
          Array.sort compare expect;
          Alcotest.(check (array int)) "adversarial order sorts" expect
            (Share.reconstruct_c (List.hd y));
          (* partitioning rounds bounded well below the B.4 comparison
             budget's implied depth *)
          let rounds = (Orq_net.Comm.snapshot ctx.Ctx.comm).Orq_net.Comm.t_rounds in
          Alcotest.(check bool) "round count sane" true
            (rounds < 100 * Orq_util.Ring.log2_ceil n))
        inputs)

(* GROUP BY (k, lv) over the join, aggregated inside the sort-based
   join-aggregation operator, run as both the inner and the left-outer
   variant *)
let grouped_sort_join l r =
  let old = Joincost.mode () in
  Joincost.set_mode (Joincost.Force Joincost.Sort);
  Fun.protect ~finally:(fun () -> Joincost.set_mode old) @@ fun () ->
  List.map
    (fun outer ->
      Dataflow.group_join ~outer l r ~on:[ "k" ] ~keys:[ "k"; "lv" ]
        ~aggs:[ { Dataflow.src = "x"; dst = "sx"; fn = Dataflow.Sum } ])
    [ false; true ]

let test_joinagg_oblivious () =
  (* the join-aggregation operator (§3.5): group sizes, aggregate values
     and key overlap must all be invisible in the structural transcript *)
  for_all_kinds (fun kind ->
      check_same "joinagg trace independent of groups and values" kind
        (fun ctx ->
          let l =
            Table.create ctx "L"
              [ ("k", 8, [| 1; 2; 3; 4 |]); ("lv", 8, [| 1; 2; 3; 4 |]) ]
          in
          let r =
            Table.create ctx "R"
              [ ("k", 8, [| 1; 1; 1; 1; 1; 1 |]); ("x", 8, [| 9; 9; 9; 9; 9; 9 |]) ]
          in
          ignore (grouped_sort_join l r))
        (fun ctx ->
          let l =
            Table.create ctx "L"
              [ ("k", 8, [| 5; 6; 7; 8 |]); ("lv", 8, [| 0; 0; 0; 0 |]) ]
          in
          let r =
            Table.create ctx "R"
              [ ("k", 8, [| 1; 2; 3; 4; 5; 6 |]); ("x", 8, [| 0; 1; 2; 3; 4; 5 |]) ]
          in
          ignore (grouped_sort_join l r)))

let test_service_path_oblivious () =
  (* the query-service execution path: SQL text -> planner -> engine over
     the shared TPC-H catalog must produce the same transcript on the real
     database and on its shape twin (values replaced by a function of the
     row index) *)
  let sf = 0.0001 in
  let plain = Orq_workloads.Tpch_gen.generate ~seed:99 sf in
  let twin = Orq_analysis.Certify.twin_tpch plain in
  let sql =
    "SELECT n_regionkey, COUNT(*) AS c FROM nation GROUP BY n_regionkey"
  in
  let run db ctx =
    let mdb = Orq_workloads.Tpch_gen.share ctx db in
    ignore
      (Orq_planner.Sql.run (Orq_workloads.Tpch_gen.catalog mdb) sql)
  in
  for_all_kinds (fun kind ->
      check_same "service path trace equals shape-twin trace" kind (run plain)
        (run twin))

let suite =
  [
    Alcotest.test_case "filter selectivity hidden" `Quick test_filter_oblivious;
    Alcotest.test_case "sort data-independent" `Quick test_sort_oblivious;
    Alcotest.test_case "group structure hidden" `Quick test_aggregate_oblivious;
    Alcotest.test_case "join hit-rate and size hidden" `Quick
      test_join_oblivious;
    Alcotest.test_case "full pipeline trace equality" `Quick
      test_full_query_oblivious;
    Alcotest.test_case "individual shares look random" `Quick
      test_shares_look_random;
    Alcotest.test_case "quicksort on adversarial orders" `Quick
      test_quicksort_adversarial_orders;
    Alcotest.test_case "joinagg groups and values hidden" `Quick
      test_joinagg_oblivious;
    Alcotest.test_case "query-service path transcript equality" `Quick
      test_service_path_oblivious;
  ]

let () = Alcotest.run "orq_oblivious" [ ("oblivious", suite) ]
