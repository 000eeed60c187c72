(** Preprocessing budget for two-party quicksort (Appendix B.4).

    Quicksort consumes a data-dependent number of secure comparisons, but
    Beaver triples must be generated ahead of time. Following McDiarmid &
    Hayward's concentration bounds for randomized quicksort, the paper
    budgets [2 n lg n] comparisons — sufficient in about 99.9% of runs
    (failures fall back to online triple generation, a performance but not
    a security event) — with an additive buffer of 10,000 triples for tiny
    inputs (n < 2000) where the asymptotic bound is loose. *)

let log2f x = log x /. log 2.

(** Expected number of quicksort comparisons with uniform random pivots:
    q_n = 2 n ln n - (4 - 2 gamma) n + 2 ln n + O(1) <= 1.39 n lg n. *)
let expected_comparisons n =
  if n <= 1 then 0.
  else
    let nf = float_of_int n in
    let gamma = 0.5772156649 in
    (2. *. nf *. log nf) -. ((4. -. (2. *. gamma)) *. nf) +. (2. *. log nf)

(** The paper's budget: triples for [2 n lg n] comparisons, plus the small-
    input buffer. *)
let comparison_budget n =
  if n <= 1 then 0
  else
    let base =
      int_of_float (ceil (2. *. float_of_int n *. log2f (float_of_int n)))
    in
    if n < 2000 then base + 10_000 else base

(** Multiplicative headroom of the budget over the expectation
    ((1 + epsilon) in the paper's analysis; >= 1.43 for n >= 1300). *)
let epsilon n =
  let e = expected_comparisons n in
  if e <= 0. then infinity else (float_of_int (comparison_budget n) /. e) -. 1.

(** Upper bound on the probability that a run exceeds the budget, from
    Theorem 1 of McDiarmid & Hayward:
    p <= n^(-2 eps (ln ln n - ln (1/eps))). The paper targets p = 2^-10. *)
let overflow_probability_bound n =
  if n < 1300 then 0. (* covered by the additive buffer *)
  else
    let nf = float_of_int n in
    let eps = min (epsilon n) 0.43 in
    let expo = -2. *. eps *. (log (log nf) -. log (1. /. eps)) in
    nf ** expo

(** Number of Beaver triples to pregenerate for sorting [n] elements of
    width [w] bits: each comparison is an O(w)-gate circuit, and each
    element carries the uniqueness padding, an index of
    [Ring.index_bits n] bits. *)
let triples_for_sort ~n ~w =
  comparison_budget n * (w + Orq_util.Ring.index_bits n)
