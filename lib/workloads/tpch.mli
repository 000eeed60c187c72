(** Registry of the TPC-H catalog's queries: the 22 TPC-H queries
    ("Q1".."Q22"), then SecretFlow-SCQL's five variations ("S1".."S5",
    Figure 5 right), each as a logical plan over {!Tpch_gen.catalog}'s
    scans that {!Orq_planner.Compile} runs unoptimized, plus its plaintext
    reference, with the result columns used for validation (the paper
    validates every query against SQLite, §5.1). *)

(** {!Query.t} with its labels re-exported, so [q.Tpch.run] and
    [q.Tpch.name] read as they always have. *)
type ('db, 'plain) q = ('db, 'plain) Query.t = {
  name : string;
  run : 'db -> Orq_core.Table.t;
  reference : 'plain -> Orq_plaintext.Ptable.t;
  compare_cols : string list;
}

type query = (Tpch_gen.mpc, Tpch_gen.plain) q

val all : query list
(** Each entry's [run] is {!Query.run_plan} of its plan. *)

val plans : (string * (Tpch_gen.mpc -> Orq_planner.Plan.node)) list
(** Every entry's logical plan, by name, in {!all}'s order. *)

val find : string -> query
(** @raise Not_found for unknown names. *)
