(** Registry of the TPC-H catalog's queries: the 22 TPC-H queries, then
    SecretFlow-SCQL's five variations S1-S5 (Figure 5, right), each as a
    logical plan that {!Orq_planner.Compile} runs, plus its plaintext
    reference and the result columns used for validation. *)

type ('db, 'plain) q = ('db, 'plain) Query.t = {
  name : string;
  run : 'db -> Orq_core.Table.t;
  reference : 'plain -> Orq_plaintext.Ptable.t;
  compare_cols : string list;
}

type query = (Tpch_gen.mpc, Tpch_gen.plain) q

module A = Tpch_queries_a
module B = Tpch_queries_b
module S = Secretflow_queries

let registry =
  [
    ("Q1", A.q1_plan, A.q1_ref, A.q1_cols);
    ("Q2", A.q2_plan, A.q2_ref, A.q2_cols);
    ("Q3", A.q3_plan, A.q3_ref, A.q3_cols);
    ("Q4", A.q4_plan, A.q4_ref, A.q4_cols);
    ("Q5", A.q5_plan, A.q5_ref, A.q5_cols);
    ("Q6", A.q6_plan, A.q6_ref, A.q6_cols);
    ("Q7", A.q7_plan, A.q7_ref, A.q7_cols);
    ("Q8", A.q8_plan, A.q8_ref, A.q8_cols);
    ("Q9", A.q9_plan, A.q9_ref, A.q9_cols);
    ("Q10", A.q10_plan, A.q10_ref, A.q10_cols);
    ("Q11", A.q11_plan, A.q11_ref, A.q11_cols);
    ("Q12", B.q12_plan, B.q12_ref, B.q12_cols);
    ("Q13", B.q13_plan, B.q13_ref, B.q13_cols);
    ("Q14", B.q14_plan, B.q14_ref, B.q14_cols);
    ("Q15", B.q15_plan, B.q15_ref, B.q15_cols);
    ("Q16", B.q16_plan, B.q16_ref, B.q16_cols);
    ("Q17", B.q17_plan, B.q17_ref, B.q17_cols);
    ("Q18", B.q18_plan, B.q18_ref, B.q18_cols);
    ("Q19", B.q19_plan, B.q19_ref, B.q19_cols);
    ("Q20", B.q20_plan, B.q20_ref, B.q20_cols);
    ("Q21", B.q21_plan, B.q21_ref, B.q21_cols);
    ("Q22", B.q22_plan, B.q22_ref, B.q22_cols);
    ("S1", S.s1_plan, S.s1_ref, [ "total" ]);
    ("S2", S.s2_plan, S.s2_ref, [ "n"; "hi"; "lo" ]);
    ("S3", S.s3_plan, S.s3_ref, [ "total" ]);
    ("S4", S.s4_plan, S.s4_ref, [ "o_orderpriority"; "qty" ]);
    ("S5", S.s5_plan, S.s5_ref, [ "l_returnflag"; "l_shipmode"; "total"; "n" ]);
  ]

let plans = List.map (fun (name, plan, _, _) -> (name, plan)) registry

let all : query list =
  List.map
    (fun (name, plan, reference, compare_cols) ->
      { name; run = Query.run_plan plan; reference; compare_cols })
    registry

let find name = Query.find all name
