(** The five peer-to-peer TPC-H variations used by SecretFlow-SCQL
    (Figure 5 right): S1/S2 single-table filter-aggregates, S3/S4 PK-FK
    joins with aggregation, S5 an oblivious group-by. {!Tpch.all}
    registers each plan with its plaintext reference. *)

val s1_run : Tpch_gen.mpc -> Orq_core.Table.t
val s1_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
val s2_run : Tpch_gen.mpc -> Orq_core.Table.t
val s2_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
val s3_run : Tpch_gen.mpc -> Orq_core.Table.t
val s3_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
val s4_run : Tpch_gen.mpc -> Orq_core.Table.t
val s4_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
val s5_run : Tpch_gen.mpc -> Orq_core.Table.t
val s5_ref : Tpch_gen.plain -> Orq_plaintext.Ptable.t
