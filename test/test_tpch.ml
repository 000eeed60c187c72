(* End-to-end validation of the full TPC-H workload: every query runs under
   MPC at a micro scale factor and must produce exactly the rows of the
   plaintext reference engine (the paper's SQLite validation, §5.1). *)

open Orq_proto
open Orq_workloads

let sf = 0.0002

let plain = lazy (Tpch_gen.generate ~seed:99 sf)

let check_query kind qname () =
  let plain = Lazy.force plain in
  let ctx = Ctx.create ~seed:5 kind in
  let mdb = Tpch_gen.share ctx plain in
  let q = Tpch.find qname in
  let ok, mpc_rows, ref_rows = Query.validate q plain mdb in
  if not ok then
    Alcotest.failf "%s mismatch:@.MPC: %a@.REF: %a" qname
      Fmt.(brackets (list ~sep:semi (brackets (list ~sep:semi int))))
      mpc_rows
      Fmt.(brackets (list ~sep:semi (brackets (list ~sep:semi int))))
      ref_rows;
  (* results should not be trivially empty for most queries *)
  ignore mpc_rows

let sh_hm_cases =
  List.map
    (fun (q : Tpch.query) ->
      Alcotest.test_case (q.Tpch.name ^ " [SH-HM]") `Slow
        (check_query Ctx.Sh_hm q.Tpch.name))
    Tpch.all

(* cross-protocol smoke: one cheap and one join-heavy query under the
   dishonest-majority and malicious protocols *)
let cross_protocol_cases =
  List.concat_map
    (fun kind ->
      List.map
        (fun qname ->
          Alcotest.test_case
            (qname ^ " [" ^ Ctx.kind_label kind ^ "]")
            `Slow (check_query kind qname))
        [ "Q6"; "Q4" ])
    [ Ctx.Sh_dm; Ctx.Mal_hm ]

let test_generator_shape () =
  let db = Lazy.force plain in
  let n t = Orq_plaintext.Ptable.nrows t in
  Alcotest.(check int) "regions" 5 (n db.Tpch_gen.region);
  Alcotest.(check int) "nations" 25 (n db.Tpch_gen.nation);
  Alcotest.(check bool) "lineitem largest" true
    (n db.Tpch_gen.lineitem > n db.Tpch_gen.orders);
  Alcotest.(check bool) "orders 10x customers" true
    (n db.Tpch_gen.orders = 10 * n db.Tpch_gen.customer)

let test_generator_integrity () =
  (* primary keys unique, foreign keys resolvable — the constraints the
     one-to-many join plans rely on *)
  let module P = Orq_plaintext.Ptable in
  let db = Tpch_gen.generate ~seed:4242 0.0005 in
  let col t name = List.map (P.get t name) t.P.rows in
  let unique l = List.length (List.sort_uniq compare l) = List.length l in
  Alcotest.(check bool) "custkey pk" true (unique (col db.Tpch_gen.customer "c_custkey"));
  Alcotest.(check bool) "orderkey pk" true (unique (col db.Tpch_gen.orders "o_orderkey"));
  Alcotest.(check bool) "partkey pk" true (unique (col db.Tpch_gen.part "p_partkey"));
  Alcotest.(check bool) "suppkey pk" true (unique (col db.Tpch_gen.supplier "s_suppkey"));
  let ps_pairs =
    List.map
      (fun r -> (P.get db.Tpch_gen.partsupp "ps_partkey" r, P.get db.Tpch_gen.partsupp "ps_suppkey" r))
      db.Tpch_gen.partsupp.P.rows
  in
  Alcotest.(check bool) "partsupp composite pk" true (unique ps_pairs);
  let contains sub super =
    let s = List.sort_uniq compare super in
    List.for_all (fun x -> List.mem x s) (List.sort_uniq compare sub)
  in
  Alcotest.(check bool) "orders.custkey fk" true
    (contains (col db.Tpch_gen.orders "o_custkey") (col db.Tpch_gen.customer "c_custkey"));
  Alcotest.(check bool) "lineitem.orderkey fk" true
    (contains (col db.Tpch_gen.lineitem "l_orderkey") (col db.Tpch_gen.orders "o_orderkey"));
  Alcotest.(check bool) "lineitem.partkey fk" true
    (contains (col db.Tpch_gen.lineitem "l_partkey") (col db.Tpch_gen.part "p_partkey"));
  Alcotest.(check bool) "supplier nations in range" true
    (List.for_all (fun x -> x >= 0 && x < 25) (col db.Tpch_gen.supplier "s_nationkey"))

let test_generator_deterministic () =
  let a = Tpch_gen.generate ~seed:7 0.0002 in
  let b = Tpch_gen.generate ~seed:7 0.0002 in
  Alcotest.(check bool) "same seed, same data" true
    (a.Tpch_gen.lineitem.Orq_plaintext.Ptable.rows
    = b.Tpch_gen.lineitem.Orq_plaintext.Ptable.rows);
  let c = Tpch_gen.generate ~seed:8 0.0002 in
  Alcotest.(check bool) "different seed, different data" false
    (a.Tpch_gen.lineitem.Orq_plaintext.Ptable.rows
    = c.Tpch_gen.lineitem.Orq_plaintext.Ptable.rows)

(* robustness: a handful of queries re-validated on an unrelated dataset *)
let alt_seed_cases =
  List.map
    (fun qname ->
      Alcotest.test_case (qname ^ " [alt seed]") `Slow (fun () ->
          let plain = Tpch_gen.generate ~seed:777 0.0003 in
          let ctx = Ctx.create ~seed:42 Ctx.Sh_hm in
          let mdb = Tpch_gen.share ctx plain in
          let q = Tpch.find qname in
          let ok, _, _ = Query.validate q plain mdb in
          Alcotest.(check bool) (qname ^ " alt-seed validates") true ok))
    [ "Q1"; "Q3"; "Q9"; "Q13"; "Q18"; "Q21" ]

(* the registry: one name space over both catalogs, and one validation
   rule that reports both sides when they differ *)
let test_registry_names () =
  let names =
    List.map (fun (q : Tpch.query) -> q.Tpch.name) Tpch.all
    @ List.map (fun (q : Other_queries.query) -> q.Query.name) Other_queries.all
  in
  Alcotest.(check int) "36 registered queries" 36 (List.length names);
  Alcotest.(check int) "names unique across catalogs" 36
    (List.length (List.sort_uniq compare names))

(* Plan shape alone, no MPC: every plan-built entry exposes its compare
   columns, and every inner or grouped join has a side unique on its keys
   (a key that inference drops sends Compile to the quadratic fallback). *)
let test_registry_plans () =
  let module Plan = Orq_planner.Plan in
  let check_plan name plan cols =
    let out = (Plan.infer plan).Plan.i_cols in
    List.iter
      (fun c ->
        if not (List.mem c out) then Alcotest.failf "%s outputs no column %s" name c)
      cols;
    let rec walk n =
      (match n with
      | Plan.Join ({ Plan.j_kind = Plan.Inner | Plan.Left_outer; _ } as j)
        when not
               (Plan.unique_on j.Plan.j_left j.Plan.j_on
               || (j.Plan.j_kind = Plan.Inner && Plan.unique_on j.Plan.j_right j.Plan.j_on))
        ->
          Alcotest.failf "%s: no side of the join on %s is unique on it" name
            (String.concat "," j.Plan.j_on)
      | _ -> ());
      List.iter walk (Plan.children n)
    in
    walk plan
  in
  let ctx = Ctx.create ~seed:5 Ctx.Sh_hm in
  let mdb = Tpch_gen.share ctx (Lazy.force plain) in
  List.iter
    (fun (q : Tpch.query) ->
      check_plan q.Tpch.name (List.assoc q.Tpch.name Tpch.plans mdb) q.Tpch.compare_cols)
    Tpch.all;
  let odb = Other_gen.share ctx (Other_gen.generate ~seed:31 40) in
  List.iter
    (fun (q : Other_queries.query) ->
      match List.assoc_opt q.Query.name Other_queries.plans with
      | Some plan -> check_plan q.Query.name (plan odb) q.Query.compare_cols
      | None -> Alcotest.(check string) "the one hand-built body" "C.Diff" q.Query.name)
    Other_queries.all

let test_validate_dropped_row () =
  let plain = Lazy.force plain in
  let q = Tpch.find "S5" in
  let drop_first (p : Orq_plaintext.Ptable.t) =
    { p with Orq_plaintext.Ptable.rows = List.tl p.Orq_plaintext.Ptable.rows }
  in
  let q' = { q with Tpch.reference = (fun p -> drop_first (q.Tpch.reference p)) } in
  let ctx = Ctx.create ~seed:5 Ctx.Sh_hm in
  let ok, mpc_rows, ref_rows = Query.validate q' plain (Tpch_gen.share ctx plain) in
  Alcotest.(check bool) "dropped row fails validation" false ok;
  Alcotest.(check int) "both row lists returned" (List.length mpc_rows - 1)
    (List.length ref_rows);
  Alcotest.(check bool) "reference rows are the MPC rows minus one" true
    (List.for_all (fun r -> List.mem r mpc_rows) ref_rows)

(* At SF 0.0001 no supplier is in Q11's nation, so its global SUM runs
   over no row: SQL (and the MPC plan) still give one row, which the
   reference broadcasts as the threshold. *)
let test_q11_empty_global () =
  let plain = Tpch_gen.generate 0.0001 in
  let q = Tpch.find "Q11" in
  let ctx = Ctx.create ~seed:5 Ctx.Sh_hm in
  let ok, mpc_rows, ref_rows = Query.validate q plain (Tpch_gen.share ctx plain) in
  Alcotest.(check bool) "Q11 validates at SF 0.0001" true ok;
  Alcotest.(check int) "no result rows" 0 (List.length mpc_rows + List.length ref_rows);
  let module P = Orq_plaintext.Ptable in
  let empty = P.create [ "v" ] [] in
  Alcotest.(check (list (list int))) "empty global aggregate is one row"
    [ [ 0; 0; 0; Orq_util.Ring.ones ] ]
    (Tpch_util.pglobal empty
       ~aggs:[ Tpch_util.psum "v" "s"; Tpch_util.pcnt "v" "c";
               Tpch_util.pmx "v" "mx"; Tpch_util.pmn "v" "mn" ]).P.rows

let () =
  Alcotest.run "orq_tpch"
    [
      ( "generator",
        [
          Alcotest.test_case "shape" `Quick test_generator_shape;
          Alcotest.test_case "pk/fk integrity" `Quick test_generator_integrity;
          Alcotest.test_case "determinism" `Quick test_generator_deterministic;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names unique across catalogs" `Quick
            test_registry_names;
          Alcotest.test_case "plans: compare columns and unique join sides" `Quick
            test_registry_plans;
          Alcotest.test_case "validate reports a dropped row" `Quick
            test_validate_dropped_row;
          Alcotest.test_case "Q11 at SF 0.0001 (empty global SUM)" `Quick
            test_q11_empty_global;
        ] );
      ("tpch-validate", sh_hm_cases @ cross_protocol_cases @ alt_seed_cases);
    ]
