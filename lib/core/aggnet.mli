(** The aggregation network (§3.1, Protocol 1; correctness Appendix C.2):
    a Hillis–Steele doubling network over a table sorted on its grouping
    key. Copy-style functions propagate each group's *first* row into all
    its rows; self-decomposable functions accumulate the group into its
    *last* row — O(n log n) work, O(log n) rounds. Multiple functions run
    in one control flow, reusing the per-level group-boundary bits. Pads
    internally to a power of two with invalid rows (the padding behind the
    paper's Q12 scaling outlier); the validity bit must be part of every
    aggregation key. Group marks come back as packed flags
    ({!Share.flags}).

    For invertible aggregates (SUM, COUNT, AVG) {!compact} is the second
    path: group totals by prefix sums and one stable one-bit compaction
    of the group ends, in a constant number of rounds. [Dataflow]
    chooses between the two by price; MIN/MAX and the join's Copy
    propagation run the network only. *)

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

(** {2 Group totals by compaction}

    The second physical path for invertible aggregates (SUM, COUNT and
    the two halves of AVG): a group's total is the difference of two
    prefix sums at consecutive group ends, which one stable one-bit
    compaction brings together in a constant number of rounds instead of
    the network's ⌈log₂ n⌉ levels. Its price is
    {!Orq_proto.Primcost.aggcompact}; the network's is
    {!Orq_proto.Primcost.aggnet}. *)

type total =
  | Prefix of Share.shared * int
      (** an arithmetic column summed per group; its products are charged
          and its total moves at the given result width *)
  | Rows  (** the group's row count (local: its prefix is public) *)

val compact :
  Ctx.t -> last:Share.flags -> total list -> (Share.chunked * int) list ->
  Share.shared list * Share.flags * Share.chunked list
(** [compact ctx ~last totals cols] over a table sorted on its grouping
    key whose group-end marks are [last] ({!last_of_group_bits}): one
    daBit per row converts [last]; one fused round ranks the rows on it
    (non-ends first, then the ends in order) and forms Q = last·P for
    each [Prefix] column's prefix sums P; one Protocol-5 application
    moves [cols] (each at its width), [last] and the Q lanes to their
    ranks, a [Prefix] lane at its width and a [Rows] lane at
    [Ring.index_bits (n + 1)] for [n] rows. Returns the totals
    (Q_i − Q_(i−1), local) in the order of [totals], each correct modulo
    2^w for its lane's width w (read them through a conversion at most
    that wide) — a group's total sits in its end row, a non-end row
    holds zero — the moved [last] and the moved [cols]. Labelled
    ["aggnet"]. The only opening is Protocol 5's shuffled destination
    vector, uniform whatever [last] holds. *)
