(** Logical query plans — the automatic query planner the paper names as
    future work (§7). A plan is a relational-algebra tree over
    secret-shared base tables, with inferred output schemas and candidate
    keys (public schema metadata, §2.1). *)

open Orq_core

type node =
  | Scan of scan
  | Filter of Expr.pred * node
  | Project of string list * node
  | Map of string * Expr.num * node
  | Join of join
  | Aggregate of agg_node
  | Order_limit of (string * Tablesort.order) list * int option * node

and scan = {
  s_table : Table.t;
  s_keys : string list list;  (** candidate keys declared by the schema *)
}

and join = { j_left : node; j_right : node; j_on : string list }

and agg_node = {
  a_keys : string list;
  a_aggs : Dataflow.agg list;
  a_input : node;
}

(** {2 Constructors} *)

val scan : ?keys:string list list -> Table.t -> node
val filter : Expr.pred -> node -> node
val map : string -> Expr.num -> node -> node
val join : node -> node -> on:string list -> node
val aggregate : keys:string list -> aggs:Dataflow.agg list -> node -> node
val order_by : (string * Tablesort.order) list -> node -> node
val top : (string * Tablesort.order) list -> int -> node -> node

(** {2 Inference} *)

type info = {
  i_cols : string list;  (** output columns *)
  i_keys : string list list;  (** candidate keys *)
  i_rows : int;  (** physical row bound *)
}

val subset : 'a list -> 'a list -> bool
val infer : node -> info

(** {2 Public bounds} *)

type shape = {
  sh_rows : int;  (** physical row bound *)
  sh_doms : (string * Dom.t) list;  (** each output column's domain *)
}

val bounds : ?scan:(Table.t -> shape) -> node -> shape
(** The bound pass: every output column's public domain, from the scans'
    shapes ([scan], by default the shared tables' row counts and column
    domains) alone, by the rules the
    operators apply at run time ({!Expr.bound}, {!Dataflow.agg_dom}) over
    row bounds no smaller than theirs and without row-wise facts, so it
    refuses whatever the run would, before any share moves. Join keys
    take the hull of both sides' domains.
    @raise Dom.Refused naming the first expression or aggregate whose
    bound exceeds the ring. *)

val unique_on : node -> string list -> bool
(** Does the subtree expose a candidate key within [cols]? *)

(** {2 Predicate analysis} *)

val num_cols : Expr.num -> string list
val pred_cols : Expr.pred -> string list
val conjuncts : Expr.pred -> Expr.pred list
val conjoin : Expr.pred list -> Expr.pred

(** {2 EXPLAIN} *)

val explain : node -> string
