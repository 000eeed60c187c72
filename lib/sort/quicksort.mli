(** Oblivious iterative quicksort (§3.2, Appendix B, Protocol 9):
    shuffle-then-sort. After a random sharded shuffle the results of pivot
    comparisons may be opened — for unique keys any outcome is consistent
    with many permutations of the data (Hamada et al.) — and the iterative
    control flow partitions every active segment in the same vectorized
    comparison round: O(log n) comparison rounds. After floor(1.75 lg n)
    partition levels one round compares every pair within each remaining
    segment and places rows by rank, so the round count depends on n
    alone unless the recursion ends sooner.

    Keys must be unique for security (TableSort appends the row index);
    composite keys compare lexicographically, ascending. *)

open Orq_proto

val sort :
  Ctx.t -> keys:(Share.shared * int) list -> (Share.shared * int) list ->
  Share.shared list * Share.shared list
(** [sort ctx ~keys carry] = (sorted key columns, sorted carry columns).
    Keys and [carry] pair each column with its width; the initial shuffle
    moves every column at its width (see {!Orq_shuffle.Permops}). *)
