(** State-of-the-art comparisons (Figure 5, Tables 8 and 9):

    - left: ORQ vs the Secrecy-style baseline (quadratic oblivious joins,
      bitonic sort/group-by) on the eight queries of Fig. 5 left;
    - right: ORQ vs the SecretFlow-style baseline (leaky PSI joins,
      non-vectorized execution) on S1-S5. *)

open Orq_proto
open Orq_core
open Orq_workloads
open Orq_baselines
open Bench_util

(* The single column [from] of [t], renamed [into]. *)
let rename1 t from into = Table.rename_col (Table.project t [ from ]) ~from ~into

(* ------------------------------------------------------------------ *)
(* Secrecy-style query variants                                        *)
(* ------------------------------------------------------------------ *)

let secrecy_comorbidity (db : Other_gen.mpc) =
  let ctx = Table.ctx db.Other_gen.m_diagnosis in
  let d =
    Secrecy_engine.nested_semi_join ctx db.Other_gen.m_diagnosis
      db.Other_gen.m_cohort ~on:[ "pid" ]
  in
  let agg =
    Secrecy_engine.group_by d ~keys:[ "diag" ]
      ~aggs:[ { Dataflow.src = "pid"; dst = "cnt"; fn = Dataflow.Count } ]
  in
  Table.take_rows (Secrecy_engine.bitonic_sort agg [ ("cnt", Tablesort.Desc) ]) 10

let secrecy_password (db : Other_gen.mpc) =
  let p = Secrecy_engine.distinct db.Other_gen.m_passwords [ "uid"; "pwd"; "site" ] in
  let agg =
    Secrecy_engine.group_by p ~keys:[ "uid"; "pwd" ]
      ~aggs:[ { Dataflow.src = "site"; dst = "nsites"; fn = Dataflow.Count } ]
  in
  let reused = Dataflow.filter agg Expr.(col "nsites" >=. const 2) in
  let users = Secrecy_engine.distinct reused [ "uid" ] in
  Dataflow.global_aggregate users
    ~aggs:[ { Dataflow.src = "uid"; dst = "reusers"; fn = Dataflow.Count } ]

let secrecy_credit (db : Other_gen.mpc) =
  let agg =
    Secrecy_engine.group_by db.Other_gen.m_credit ~keys:[ "cid" ]
      ~aggs:
        [
          { Dataflow.src = "score"; dst = "lo"; fn = Dataflow.Min };
          { Dataflow.src = "score"; dst = "hi"; fn = Dataflow.Max };
        ]
  in
  let diff =
    Dataflow.filter agg
      Expr.(col "hi" -! col "lo" >. const Other_queries.credit_delta)
  in
  Dataflow.global_aggregate diff
    ~aggs:[ { Dataflow.src = "cid"; dst = "persons"; fn = Dataflow.Count } ]

let secrecy_aspirin (db : Other_gen.mpc) =
  (* the quadratic formulation: join all (diagnosis, medication) pairs per
     patient, filter on the times, then distinct patients *)
  let ctx = Table.ctx db.Other_gen.m_diagnosis in
  let d =
    Dataflow.filter db.Other_gen.m_diagnosis
      Expr.(col "diag" ==. const Other_gen.diag_hd)
  in
  let m =
    Dataflow.filter db.Other_gen.m_medication
      Expr.(col "med" ==. const Other_gen.med_aspirin)
  in
  let j = Secrecy_engine.nested_join ctx d m ~on:[ "pid" ] in
  let j = Dataflow.filter j Expr.(col "mtime" >=. col "dtime") in
  let u = Secrecy_engine.distinct j [ "pid" ] in
  Dataflow.global_aggregate u
    ~aggs:[ { Dataflow.src = "pid"; dst = "patients"; fn = Dataflow.Count } ]

let secrecy_q4 (db : Tpch_gen.mpc) =
  let ctx = Table.ctx db.Tpch_gen.m_orders in
  let o =
    Dataflow.filter db.Tpch_gen.m_orders
      Expr.(
        col "o_orderdate" >=. const Tpch_params.q4_date
        &&. (col "o_orderdate" <. const (Tpch_params.q4_date + 90)))
  in
  let li =
    Dataflow.filter db.Tpch_gen.m_lineitem
      Expr.(col "l_commitdate" <. col "l_receiptdate")
  in
  let li = rename1 li "l_orderkey" "o_orderkey" in
  let sem = Secrecy_engine.nested_semi_join ctx o li ~on:[ "o_orderkey" ] in
  Secrecy_engine.group_by sem ~keys:[ "o_orderpriority" ]
    ~aggs:[ { Dataflow.src = "o_orderkey"; dst = "order_count"; fn = Dataflow.Count } ]

let secrecy_q13 (db : Tpch_gen.mpc) =
  let ctx = Table.ctx db.Tpch_gen.m_orders in
  let o =
    Dataflow.filter db.Tpch_gen.m_orders
      Expr.(col "o_orderpriority" <>. const Tpch_params.q13_priority_excluded)
  in
  let c = rename1 db.Tpch_gen.m_customer "c_custkey" "o_custkey" in
  let j = Secrecy_engine.nested_join ctx c o ~on:[ "o_custkey" ] in
  let per_cust =
    Secrecy_engine.group_by j ~keys:[ "o_custkey" ]
      ~aggs:[ { Dataflow.src = "o_orderkey"; dst = "c_count"; fn = Dataflow.Count } ]
  in
  Secrecy_engine.group_by per_cust ~keys:[ "c_count" ]
    ~aggs:[ { Dataflow.src = "c_count"; dst = "custdist"; fn = Dataflow.Count } ]

let fig5_secrecy ~sf ~other_n () =
  section
    (Printf.sprintf
       "Figure 5 (left) + Table 8: ORQ vs Secrecy baseline (SH-HM, TPC-H \
        SF=%g, others n=%d)"
       sf other_n);
  hdr "%-14s %12s %12s %10s %12s %12s" "query" "orq-LAN" "secrecy-LAN"
    "speedup" "orq-KB/row" "sec-KB/row";
  let tplain = Tpch_gen.generate ~seed:2024 sf in
  let oplain = Other_gen.generate ~seed:2025 other_n in
  let compare_q name rows orq_f sec_f =
    let run f =
      let ctx = Ctx.create ~seed:5 Ctx.Sh_hm in
      let _, m = measure ctx (fun () -> ignore (f ctx)) in
      m
    in
    let o = run orq_f in
    let s = run sec_f in
    row "%-14s %12s %12s %9.1fx %12.1f %12.1f" name
      (pretty_time (estimate Netsim.lan o))
      (pretty_time (estimate Netsim.lan s))
      (estimate Netsim.lan s /. estimate Netsim.lan o)
      (kb_per_row_per_party o ~rows)
      (kb_per_row_per_party s ~rows)
  in
  let orq_other name ctx =
    (Other_queries.find name).Query.run (Other_gen.share ctx oplain)
  in
  let orq_tpch name ctx =
    (Tpch.find name).Tpch.run (Tpch_gen.share ctx tplain)
  in
  let o_rows = 4 * other_n and t_rows = Tpch_gen.total_rows tplain in
  compare_q "Q6" t_rows (orq_tpch "Q6") (orq_tpch "Q6");
  compare_q "Password" o_rows (orq_other "Password") (fun ctx ->
      secrecy_password (Other_gen.share ctx oplain));
  compare_q "Credit" o_rows (orq_other "Credit") (fun ctx ->
      secrecy_credit (Other_gen.share ctx oplain));
  compare_q "Comorbidity" o_rows (orq_other "Comorbidity") (fun ctx ->
      secrecy_comorbidity (Other_gen.share ctx oplain));
  compare_q "Aspirin" o_rows (orq_other "Aspirin") (fun ctx ->
      secrecy_aspirin (Other_gen.share ctx oplain));
  compare_q "Q4" t_rows (orq_tpch "Q4") (fun ctx ->
      secrecy_q4 (Tpch_gen.share ctx tplain));
  compare_q "Q13" t_rows (orq_tpch "Q13") (fun ctx ->
      secrecy_q13 (Tpch_gen.share ctx tplain));
  row
    "(paper: 478x-760x on join queries, 17x-42x on group-by/distinct, 3x on \
     Q6 — gaps grow with input size; Secrecy bandwidth up to two orders of \
     magnitude higher)"

(* ------------------------------------------------------------------ *)
(* SecretFlow-style variants of S1-S5                                  *)
(* ------------------------------------------------------------------ *)

(* Non-vectorized filter evaluation: one comparison round per row — the
   execution profile of an engine that cannot batch (the paper attributes
   SecretFlow's S1/S2 gap to missing parallelism). *)
let rowwise_filter (t : Table.t) (p : Expr.pred) : Table.t =
  let n = Table.nrows t in
  let bits =
    List.init n (fun i ->
        let sub =
          Table.of_columns (Table.ctx t) t.Table.name
            ~valid:(Share.sub_range t.Table.valid i 1)
            (List.map (fun (nm, c) -> (nm, Column.sub_range c i 1)) t.Table.cols)
        in
        Expr.eval_pred sub p)
  in
  Table.and_valid t (Share.flags_concat_many (Array.of_list bits))

let sf_baseline_s1 (db : Tpch_gen.mpc) =
  let li =
    rowwise_filter db.Tpch_gen.m_lineitem
      Expr.(col "l_shipdate" >=. const Tpch_params.q6_date)
  in
  let li =
    Dataflow.map li ~dst:"revenue"
      Expr.(Div_pub (col "l_extendedprice" *! (const 100 -! col "l_discount"), 100))
  in
  Dataflow.global_aggregate li
    ~aggs:[ { Dataflow.src = "revenue"; dst = "total"; fn = Dataflow.Sum } ]

let sf_baseline_s2 (db : Tpch_gen.mpc) =
  let li =
    rowwise_filter db.Tpch_gen.m_lineitem Expr.(col "l_quantity" >=. const 25)
  in
  Dataflow.global_aggregate li
    ~aggs:
      [
        { Dataflow.src = "l_quantity"; dst = "n"; fn = Dataflow.Count };
        { Dataflow.src = "l_extendedprice"; dst = "hi"; fn = Dataflow.Max };
        { Dataflow.src = "l_extendedprice"; dst = "lo"; fn = Dataflow.Min };
      ]

let sf_baseline_s3 (db : Tpch_gen.mpc) =
  let ctx = Table.ctx db.Tpch_gen.m_orders in
  let o =
    Dataflow.filter db.Tpch_gen.m_orders
      Expr.(col "o_orderdate" >=. const Tpch_params.q3_date)
  in
  let j =
    Leaky_join.inner_join ctx
      (rename1 o "o_orderkey" "l_orderkey")
      db.Tpch_gen.m_lineitem ~on:[ "l_orderkey" ] ()
  in
  Dataflow.global_aggregate j
    ~aggs:[ { Dataflow.src = "l_extendedprice"; dst = "total"; fn = Dataflow.Sum } ]

let sf_baseline_s4 (db : Tpch_gen.mpc) =
  let ctx = Table.ctx db.Tpch_gen.m_orders in
  let j =
    Leaky_join.inner_join ctx
      (Table.rename_col
         (Table.project db.Tpch_gen.m_orders [ "o_orderkey"; "o_orderpriority" ])
         ~from:"o_orderkey" ~into:"l_orderkey")
      db.Tpch_gen.m_lineitem
      ~on:[ "l_orderkey" ]
      ~copy:[ "o_orderpriority" ] ()
  in
  Dataflow.aggregate j ~keys:[ "o_orderpriority" ]
    ~aggs:[ { Dataflow.src = "l_quantity"; dst = "qty"; fn = Dataflow.Sum } ]

let sf_baseline_s5 (db : Tpch_gen.mpc) =
  Secrecy_engine.group_by db.Tpch_gen.m_lineitem
    ~keys:[ "l_returnflag"; "l_shipmode" ]
    ~aggs:
      [
        { Dataflow.src = "l_extendedprice"; dst = "total"; fn = Dataflow.Sum };
        { Dataflow.src = "l_extendedprice"; dst = "n"; fn = Dataflow.Count };
      ]

let fig5_secretflow ~sf () =
  section
    (Printf.sprintf
       "Figure 5 (right) + Table 9: ORQ vs SecretFlow baseline (SH-DM, SF=%g)"
       sf);
  hdr "%-6s %12s %12s %10s %14s %14s" "query" "orq-LAN" "sfl-LAN" "speedup"
    "orq-B/row" "sfl-B/row";
  let plain = Tpch_gen.generate ~seed:2024 sf in
  let rows = Tpch_gen.total_rows plain in
  let pairs =
    [
      ("S1", "S1", sf_baseline_s1);
      ("S2", "S2", sf_baseline_s2);
      ("S3", "S3", sf_baseline_s3);
      ("S4", "S4", sf_baseline_s4);
      ("S5", "S5", sf_baseline_s5);
    ]
  in
  List.iter
    (fun (label, orq_name, baseline) ->
      let run f =
        let ctx = Ctx.create ~seed:7 Ctx.Sh_dm in
        let mdb = Tpch_gen.share ctx plain in
        let _, m = measure ctx (fun () -> ignore (f mdb)) in
        m
      in
      let o = run (Tpch.find orq_name).Tpch.run in
      let s = run baseline in
      row "%-6s %12s %12s %9.1fx %14.0f %14.0f" label
        (pretty_time (estimate Netsim.lan o))
        (pretty_time (estimate Netsim.lan s))
        (estimate Netsim.lan s /. estimate Netsim.lan o)
        (kb_per_row_per_party o ~rows *. 1024.)
        (kb_per_row_per_party s ~rows *. 1024.))
    pairs;
  row
    "(paper: ORQ 58x-85x on S1/S2 (vectorization), 1.1x-1.5x on S3-S5 \
     despite SecretFlow's leakage; SecretFlow bandwidth lower on joins \
     because matches leak and later operators run locally)"
