(** The audited declassification allowlist.

    Every place the engine opens a secret-shared value — and every piece of
    control flow driven by an opened value — must be registered here with a
    written justification, or {!Lint} fails the build. The registry is the
    human-readable half of the zero-leakage argument: the lint proves the
    list is exhaustive, the justifications argue each entry is safe.

    Two safety classes:

    - regular entries are *safe-by-argument*: the opened value is masked by
      fresh randomness (share conversions), routed through a fresh random
      shuffle first (permutation protocols, shuffle-then-reveal quicksort),
      or is the analyst's final output (§3.1);
    - [d_leaky = true] entries are *leak-by-design* baselines kept for
      benchmark comparison only; the lint reports them separately and
      refuses them outside [lib/baselines/]. *)

type rule =
  | Declass  (** an [open_*] call site *)
  | Branch  (** control flow whose scrutinee flows from an opened value *)
  | In_parallel  (** an interactive primitive inside a [Parallel] lambda *)

let rule_label = function
  | Declass -> "declass"
  | Branch -> "branch"
  | In_parallel -> "parallel"

type entry = {
  d_site : string;  (** ["Module.function"], module = capitalized basename *)
  d_rule : rule;
  d_callee : string;  (** opened primitive or flagged construct; ["*"] = any *)
  d_leaky : bool;  (** leak-by-design baseline, only valid in lib/baselines/ *)
  d_why : string;  (** the written safety argument, with a paper reference *)
}

let ok site rule callee why =
  { d_site = site; d_rule = rule; d_callee = callee; d_leaky = false; d_why = why }

let leaky site rule callee why =
  { d_site = site; d_rule = rule; d_callee = callee; d_leaky = true; d_why = why }

let all : entry list =
  [
    (* --- protocol layer: the primitives themselves --- *)
    ok "Mpc.open_f" Declass "open_f_many"
      "the single packed-flag opening is a one-lane call of the batched \
       packed opening primitive";
    (* --- share conversions: openings of freshly masked values --- *)
    ok "Convert.bit_b2a_flags_many" Declass "open_f_many"
      "opens b xor r per packed word with r a fresh dealer daBit; the \
       opened bits are uniformly random (§2.3 conversion correlations)";
    ok "Convert.b2a" Declass "open_"
      "opens bit-decomposed x xor r against per-bit daBits; each opened bit \
       is uniform";
    ok "Convert.a2b_many" Declass "open_many"
      "opens x + r with r a fresh edaBit mask; uniform in the ring (§2.3)";
    (* --- permutation protocols: openings behind a fresh random shuffle --- *)
    ok "Permops.apply_elementwise_table" Declass "open_"
      "Protocol 5: opens rho routed through a fresh random sharded \
       permutation pi — the opened vector is rho o pi^{-1}, uniform for \
       uniform pi (Appendix A.4); one opening whatever the number of data \
       columns or their chunking";
    ok "Permops.compose" Declass "open_"
      "Protocol 6: opens sigma behind a fresh sharded permutation; uniform \
       (Appendix A.4)";
    ok "Permops.convert" Declass "open_"
      "Protocol 7: opens the shuffled permutation, whose multiset of values \
       (0..n-1) is public and whose order is uniform behind the fresh \
       shuffle";
    (* --- sorting: shuffle-then-reveal (quarantined: distributional) --- *)
    ok "Quicksort.sort" Declass "open_f"
      "shuffle-then-reveal quicksort (Hamada et al., Appendix B.1): \
       comparison bits opened after the initial random shuffle of unique \
       rows; their joint distribution depends only on n, not the data";
    ok "Quicksort.sort" Branch "*"
      "partition control flow driven by the post-shuffle comparison bits \
       above; trace is data-independent in distribution (Appendix B.1) — \
       certified modulo-quicksort by the transcript certifier";
    (* --- linear join: keyed fingerprints behind independent shuffles --- *)
    ok "Linjoin.join" Declass "open_many"
      "LINQ-style linear join (PAPERS.md): opens per-row key fingerprints \
       f = PRF_k(key) after (a) displacing every invalid row by a fresh \
       uniform mask, (b) routing each side through an independent fresh \
       random shuffle, and (c) keying the fingerprint with per-query \
       secret constants (a secret multiplier and two keyed squarings \
       standing in for a shared-key PRF). The opened multisets reveal \
       only the declared LINQ profile — each side's valid key-multiplicity \
       histogram and the cross-side match structure, behind uniform row \
       positions — which Joincost prices as this operator's leakage class; \
       the zero-leakage alternative remains the sort-based Joinagg";
    ok "Linjoin.join" Branch "*"
      "plaintext hash matching over the opened fingerprints above: \
       control flow is a function of the declared opened values only, and \
       drives nothing but local gathers and public validity masks (no \
       further interactive work depends on it, so transcripts stay \
       shape-deterministic for the certifier)";
    (* --- result delivery --- *)
    ok "Table.reveal" Declass "open_many"
      "the analyst's output opening (§3.1): invalid rows are zero-masked \
       and the table shuffled before opening, so only valid result rows \
       carry information";
    ok "Table.reveal" Branch "*"
      "row filtering on the opened validity bits of the final shuffled \
       result — the output size is part of the analyst's result (§3.1)";
    (* --- leak-by-design baselines (benchmark comparison only) --- *)
    leaky "Leaky_join.inner_join" Declass "open_"
      "insecure baseline: opens join keys and validity in the clear to \
       price the cost of obliviousness; never part of the secure engine";
    leaky "Leaky_join.inner_join" Branch "*"
      "insecure baseline: hash-join control flow over plaintext keys";
  ]

let find ~site ~rule ~callee =
  List.find_opt
    (fun e ->
      e.d_site = site && e.d_rule = rule
      && (e.d_callee = "*" || e.d_callee = callee))
    all
