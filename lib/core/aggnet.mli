(** The aggregation network (§3.1, Protocol 1; correctness Appendix C.2):
    a Hillis–Steele doubling network over a table sorted on its grouping
    key. Copy-style functions propagate each group's *first* row into all
    its rows; self-decomposable functions accumulate the group into its
    *last* row — O(n log n) work, O(log n) rounds. Multiple functions run
    in one control flow, reusing the per-level group-boundary bits. Pads
    internally to a power of two with invalid rows (the padding behind the
    paper's Q12 scaling outlier); the validity bit must be part of every
    aggregation key. Group marks come back as packed flags
    ({!Share.flags}). *)

open Orq_proto

type func =
  | Copy  (** propagate the group's first row downward (f(x, y) = x) *)
  | Sum  (** running sum on arithmetic shares; total in the last row *)
  | Min of int  (** running minimum at the given width *)
  | Max of int

(** Which key set guards a function: the aggregation key K_a, or the
    extended K_s = K_a + table-id used by the join's valid-bit
    propagation. *)
type keyset = Group | Group_and_tid

type spec = {
  col : Share.shared;
  func : func;
  keys : keyset;
  width : int;  (** logical bit width of the column (metering) *)
}

type boundaries
(** The network's pre-pass over one sorted table: every doubling level's
    group-boundary bits (and, with a tid column, the tid equality bits). *)

val boundaries :
  Ctx.t -> keys:(Share.shared * int) list -> ?tid:Share.shared -> unit ->
  boundaries
(** All levels' equality ladders over a table already sorted on [keys]
    (which must include the validity column) as one fused batch. Pass
    [tid] iff a [Group_and_tid] function will {!propagate}. *)

val first_of_group : Ctx.t -> boundaries -> Share.flags
(** Each group's first row (oblivious DISTINCT), derived locally from the
    distance-1 level: row i is first iff ¬eq(K[i-1], K[i]). *)

val last_of_group : Ctx.t -> boundaries -> Share.flags
(** Each group's last row — the one holding the group aggregate — derived
    locally: row i is last iff ¬eq(K[i], K[i+1]). *)

val propagate : Ctx.t -> boundaries -> spec list -> Share.shared list
(** The level-ordered propagation over the table [boundaries] was
    computed on. Returns updated columns in spec order. *)

val run :
  Ctx.t -> keys:(Share.shared * int) list -> ?tid:Share.shared ->
  spec list -> Share.shared list
(** {!boundaries} then {!propagate}; [tid] supplies the table-id column
    for [Group_and_tid] functions. *)

val distinct_bits :
  Ctx.t -> keys:(Share.shared * int) list -> Share.flags
(** Mark each group's first row in a sorted table with its own equality
    ladder — oblivious DISTINCT for tables that run no network. *)

val last_of_group_bits :
  Ctx.t -> keys:(Share.shared * int) list -> Share.flags
(** Mark each group's last row with its own equality ladder. *)
