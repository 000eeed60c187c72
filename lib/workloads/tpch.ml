(** Registry of the TPC-H catalog's queries: the 22 TPC-H queries, then
    SecretFlow-SCQL's five variations S1-S5 (Figure 5, right), each as an
    MPC dataflow plan plus its plaintext reference, with the result
    columns used for validation. *)

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

let all : query list =
  [
    { name = "Q1"; run = A.q1_run; reference = A.q1_ref; compare_cols = A.q1_cols };
    { name = "Q2"; run = A.q2_run; reference = A.q2_ref; compare_cols = A.q2_cols };
    { name = "Q3"; run = A.q3_run; reference = A.q3_ref; compare_cols = A.q3_cols };
    { name = "Q4"; run = A.q4_run; reference = A.q4_ref; compare_cols = A.q4_cols };
    { name = "Q5"; run = A.q5_run; reference = A.q5_ref; compare_cols = A.q5_cols };
    { name = "Q6"; run = A.q6_run; reference = A.q6_ref; compare_cols = A.q6_cols };
    { name = "Q7"; run = A.q7_run; reference = A.q7_ref; compare_cols = A.q7_cols };
    { name = "Q8"; run = A.q8_run; reference = A.q8_ref; compare_cols = A.q8_cols };
    { name = "Q9"; run = A.q9_run; reference = A.q9_ref; compare_cols = A.q9_cols };
    { name = "Q10"; run = A.q10_run; reference = A.q10_ref; compare_cols = A.q10_cols };
    { name = "Q11"; run = A.q11_run; reference = A.q11_ref; compare_cols = A.q11_cols };
    { name = "Q12"; run = B.q12_run; reference = B.q12_ref; compare_cols = B.q12_cols };
    { name = "Q13"; run = B.q13_run; reference = B.q13_ref; compare_cols = B.q13_cols };
    { name = "Q14"; run = B.q14_run; reference = B.q14_ref; compare_cols = B.q14_cols };
    { name = "Q15"; run = B.q15_run; reference = B.q15_ref; compare_cols = B.q15_cols };
    { name = "Q16"; run = B.q16_run; reference = B.q16_ref; compare_cols = B.q16_cols };
    { name = "Q17"; run = B.q17_run; reference = B.q17_ref; compare_cols = B.q17_cols };
    { name = "Q18"; run = B.q18_run; reference = B.q18_ref; compare_cols = B.q18_cols };
    { name = "Q19"; run = B.q19_run; reference = B.q19_ref; compare_cols = B.q19_cols };
    { name = "Q20"; run = B.q20_run; reference = B.q20_ref; compare_cols = B.q20_cols };
    { name = "Q21"; run = B.q21_run; reference = B.q21_ref; compare_cols = B.q21_cols };
    { name = "Q22"; run = B.q22_run; reference = B.q22_ref; compare_cols = B.q22_cols };
    { name = "S1"; run = S.s1_run; reference = S.s1_ref; compare_cols = [ "total" ] };
    { name = "S2"; run = S.s2_run; reference = S.s2_ref; compare_cols = [ "n"; "hi"; "lo" ] };
    { name = "S3"; run = S.s3_run; reference = S.s3_ref; compare_cols = [ "total" ] };
    { name = "S4"; run = S.s4_run; reference = S.s4_ref;
      compare_cols = [ "o_orderpriority"; "qty" ] };
    { name = "S5"; run = S.s5_run; reference = S.s5_ref;
      compare_cols = [ "l_returnflag"; "l_shipmode"; "total"; "n" ] };
  ]

let find name = Query.find all name
