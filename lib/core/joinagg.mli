(** The composite oblivious join-aggregation operator (§3.3, Protocol 3;
    variants §3.4; correctness Appendix C; trimming heuristic C.3):
    concatenate, TableSort on (V_LR, keys, Tid), the network's boundary
    pre-pass (whose distance-1 level is DISTINCT), per-variant validity
    rules, then one propagation for column copies, invalidation
    propagation, and fused decomposable aggregations. The
    left input must have unique join keys; many-to-many joins
    pre-aggregate first (§3.6, done by {!Dataflow}). *)

open Orq_proto

type variant =
  | V_inner
  | V_left_outer
      (** paper semantics (Appendix C.1): "an inner join, plus all rows
          from the left" — matched left rows also survive with NULL
          right-columns (unlike SQL LEFT JOIN) *)
  | V_right_outer
  | V_full_outer
  | V_anti  (** right-outer validity + cross-table valid propagation *)

type trim_mode = [ `Auto | `Always | `Never ]

val should_trim : Ctx.t -> left_n:int -> right_m:int -> bool
(** The C.3 heuristic: trim iff 3·α·N < lg L · lg ω, α = m/n. *)

val join :
  Ctx.t -> variant -> ?copy:string list -> ?trim:trim_mode -> left:Table.t ->
  right:Table.t -> on:string list -> unit -> Table.t
(** The full operator. [copy] names left columns to propagate into
    matching right rows. Inner/anti results are optionally trimmed to
    |right| rows. *)

type grouped = {
  g_table : Table.t;
      (** join keys and copied left columns, n+m rows; validity is the
          join's *)
  g_last : Share.flags;  (** each join-key group's last row *)
  g_results : Share.shared list;  (** the network results of the specs *)
}

val join_grouped :
  Ctx.t -> variant -> ?copy:string list ->
  aggs:(find:(string -> Column.t) -> tid:Share.shared -> Aggnet.spec list) ->
  left:Table.t -> right:Table.t -> on:string list -> unit -> grouped
(** Decomposable aggregations on the join-key groups, inside the join's
    own TableSort and network (§3.3). [aggs] builds the specs from the
    sorted right columns ([find]; zero on left rows) and the sorted Tid
    bit; it runs fused with the network's pre-pass. Results land in each
    group's last row: the group's row is valid iff join validity ∧
    [g_last]. Inner and left-outer only. *)

val join_unique :
  Ctx.t -> ?copy:string list -> ?trim:trim_mode -> left:Table.t ->
  right:Table.t -> on:string list -> unit -> Table.t
(** Unique-key inner join (Appendix C): with unique keys on *both* sides
    the aggregation network is skipped — one adjacent-row multiplex, a
    PSI-style oblivious join bounded by min(|L|, |R|). *)
