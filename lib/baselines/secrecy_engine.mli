(** Secrecy-style baseline operators (Liagouris et al., NSDI'23) — the
    system the paper compares against in Figure 5 (left) and Table 8:
    fully oblivious like ORQ, but binary operators materialize the O(n·m)
    Cartesian product and sorting/grouping is the O(n log² n) bitonic
    network. Reimplemented over the same MPC substrate so comparisons
    isolate the algorithms. *)

open Orq_proto
open Orq_core

val nested_join : Ctx.t -> Table.t -> Table.t -> on:string list -> Table.t
(** Quadratic oblivious inner join: the output physically holds all n·m
    pairs, each with a secret equality bit as validity. *)

val nested_semi_join :
  Ctx.t -> Table.t -> Table.t -> on:string list -> Table.t
(** Quadratic semi-join: per-row OR over m equality bits (log m rounds). *)

val bitonic_sort : Table.t -> (string * Tablesort.order) list -> Table.t
(** Bitonic table sort (pads to a power of two; valid rows lead). *)

val group_by : Table.t -> keys:string list -> aggs:Dataflow.agg list -> Table.t
(** Bitonic sort + aggregation network (sum/count/min/max). *)

val distinct : Table.t -> string list -> Table.t
