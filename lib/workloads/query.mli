(** A hand-built workload query: its MPC run over a shared database
    ['db] (a logical plan that {!run_plan} compiles, for all but C.Diff),
    its plaintext reference twin over the same data in the clear
    ['plain], and the result columns the two are compared on (the paper
    validates every query against SQLite, §5.1). Each catalog keeps one
    list of these: {!Tpch.all} over the TPC-H catalog and
    {!Other_queries.all} over the prior-work catalog. *)

type ('db, 'plain) t = {
  name : string;
  run : 'db -> Orq_core.Table.t;
  reference : 'plain -> Orq_plaintext.Ptable.t;
  compare_cols : string list;
}

val run_plan : ('db -> Orq_planner.Plan.node) -> 'db -> Orq_core.Table.t
(** Build the plan over the database and run it through
    {!Orq_planner.Compile} as written (no {!Orq_planner.Optimize} pass):
    the plan fixes the operators, the compiler the schedule, the pruning
    and the copy lists. *)

val find : ('db, 'plain) t list -> string -> ('db, 'plain) t
(** @raise Not_found for a name the list does not register. *)

val validate :
  ('db, 'plain) t -> 'plain -> 'db -> bool * int list list * int list list
(** Run the query under MPC and in the plaintext engine and compare the
    sorted valid rows, masked to the MPC column widths (signed aggregates
    are two's complement at their width). Returns (ok, mpc rows,
    reference rows). *)
