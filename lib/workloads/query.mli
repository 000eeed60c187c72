(** A hand-built workload query: an MPC dataflow plan over a shared
    database ['db], its plaintext reference twin over the same data in
    the clear ['plain], and the result columns the two are compared on
    (the paper validates every query against SQLite, §5.1). Each catalog
    keeps one list of these: {!Tpch.all} over the TPC-H catalog and
    {!Other_queries.all} over the prior-work catalog. *)

type ('db, 'plain) t = {
  name : string;
  run : 'db -> Orq_core.Table.t;
  reference : 'plain -> Orq_plaintext.Ptable.t;
  compare_cols : string list;
}

val find : ('db, 'plain) t list -> string -> ('db, 'plain) t
(** @raise Not_found for a name the list does not register. *)

val validate :
  ('db, 'plain) t -> 'plain -> 'db -> bool * int list list * int list list
(** Run the query under MPC and in the plaintext engine and compare the
    sorted valid rows, masked to the MPC column widths (signed aggregates
    are two's complement at their width). Returns (ok, mpc rows,
    reference rows). *)
