(** The five peer-to-peer TPC-H variations used by SecretFlow-SCQL
    (Figure 5 right): S1/S2 single-table filter-aggregates, S3/S4 PK-FK
    joins with aggregation, S5 an oblivious group-by, each as a logical
    plan. {!Tpch.all} registers each plan with its plaintext reference. *)

val s1_plan : Tpch_gen.mpc -> Orq_planner.Plan.node
val s1_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
val s2_plan : Tpch_gen.mpc -> Orq_planner.Plan.node
val s2_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
val s3_plan : Tpch_gen.mpc -> Orq_planner.Plan.node
val s3_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
val s4_plan : Tpch_gen.mpc -> Orq_planner.Plan.node
val s4_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
val s5_plan : Tpch_gen.mpc -> Orq_planner.Plan.node
val s5_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
