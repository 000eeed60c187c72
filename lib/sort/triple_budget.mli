(** Preprocessing budget for two-party quicksort (Appendix B.4): triples
    for [2 n lg n] comparisons suffice ≈99.9% of the time (McDiarmid &
    Hayward concentration), with an additive 10k-triple buffer below
    n = 2000. *)

val expected_comparisons : int -> float
(** q_n = 2 n ln n - (4 - 2γ) n + 2 ln n + O(1) ≤ 1.39 n lg n. *)

val comparison_budget : int -> int

val epsilon : int -> float
(** Multiplicative headroom of the budget over the expectation. *)

val overflow_probability_bound : int -> float
(** Upper bound on exceeding the budget (Theorem 1 of McDiarmid &
    Hayward); the paper targets 2^-10. *)

val triples_for_sort : n:int -> w:int -> int
(** Beaver triples to pregenerate for sorting [n] elements of [w] bits
    (plus the uniqueness padding: an index of
    {!Orq_util.Ring.index_bits}[ n] bits). *)
