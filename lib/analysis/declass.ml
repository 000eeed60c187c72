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
    (* --- fused openings: a value opened in the round that produced it --- *)
    ok "Shardedperm.apply_open" Declass "reshare_open_unmetered"
      "SH-HM: the last pass's two senders send both halves of their fresh \
       2-of-2 split to both other parties; the third party, the one the \
       split would have been reshared to, sees a uniform split of a value \
       every party is about to learn, so the view is the reshare-then-open \
       view and the opening costs no round of its own. Only the lanes this \
       application permuted are opened";
    ok "Shardedperm.apply_open" Declass "open_many"
      "SH-DM and Mal-HM: the application's output opened in one fused round \
       after it, exactly as its callers opened it before the fused form \
       (2PC's second correlation direction leaves the sender without the \
       receiver's share; Fantastic Four's opening needs redundant delivery \
       and a digest from outside the sending group)";
    ok "Permops.shuffle_open_table" Declass "apply_open"
      "Protocol 4 then an opening of chosen shuffled columns; each caller \
       argues why its columns may open behind the fresh random shuffle";
    ok "Compare.lt_lex_open" Declass "band_open_f"
      "SH-HM: the comparison's last AND broadcasts its 3-of-3 additive \
       outputs, xored with the linear tail, to both peers in its own \
       round; the outputs are zero-shared, so each party learns only the \
       opened bit. Callers argue why the bit may open";
    ok "Compare.lt_lex_open" Declass "open_f"
      "SH-DM and Mal-HM: the comparison bit opened in a round after the \
       circuit, as before the fused form; callers argue why it may open";
    (* --- share conversions: openings of freshly masked values --- *)
    ok "Convert.bit_b2a_many" Declass "open_f_many"
      "opens b xor r per packed word with r a fresh dealer daBit; the \
       opened bits are uniformly random (§2.3 conversion correlations). \
       Full-width b2a opens its bit planes through this one core";
    ok "Convert.a2b_many" Declass "open_many"
      "opens x + r with r a fresh edaBit mask; uniform in the ring (§2.3)";
    (* --- permutation protocols: openings behind a fresh random shuffle --- *)
    ok "Permops.apply_elementwise_table" Declass "apply_open"
      "Protocol 5: opens rho routed through a fresh random sharded \
       permutation pi — the opened vector is rho o pi^{-1}, uniform for \
       uniform pi (Appendix A.4); one opening whatever the number of data \
       columns or their chunking, and apply_open produces it in pi's own \
       application, so under SH-HM it takes no round of its own";
    ok "Permops.compose" Declass "apply_open"
      "Protocol 6: opens sigma behind a fresh sharded permutation; uniform \
       (Appendix A.4); opened by the application that shuffled it, in its \
       last round under SH-HM";
    ok "Permops.convert" Declass "apply_open"
      "Protocol 7: opens the shuffled permutation, whose multiset of values \
       (0..n-1) is public and whose order is uniform behind the fresh \
       shuffle; opened by that shuffle's application, in its last round \
       under SH-HM";
    (* --- sorting: shuffle-then-reveal (quarantined: distributional) --- *)
    ok "Quicksort.sort" Declass "lt_lex_open"
      "shuffle-then-reveal quicksort (Hamada et al., Appendix B.1): \
       comparison bits opened after the initial random shuffle of unique \
       rows; their joint distribution depends only on n, not the data. \
       The bit opens in the comparison's last AND round under SH-HM";
    ok "Quicksort.sort" Branch "*"
      "partition control flow driven by the post-shuffle comparison bits \
       above; trace is data-independent in distribution (Appendix B.1) — \
       certified modulo-quicksort by the transcript certifier";
    (* --- linear join: keyed fingerprints behind independent shuffles --- *)
    ok "Linjoin.join" Declass "shuffle_open_table"
      "LINQ-style linear join (PAPERS.md): opens per-row key fingerprints \
       f = PRF_k(key) after (a) displacing every invalid row by a fresh \
       uniform mask, (b) routing each side through an independent fresh \
       random shuffle, and (c) keying the fingerprint with per-query \
       secret constants (a secret multiplier and two keyed squarings \
       standing in for a shared-key PRF). The opened multisets reveal \
       only the declared LINQ profile — each side's valid key-multiplicity \
       histogram and the cross-side match structure, behind uniform row \
       positions — which Joincost prices as this operator's leakage class; \
       the zero-leakage alternative remains the sort-based Joinagg. Each \
       side's fingerprints open with the shuffle that moved them, in its \
       last round under SH-HM";
    ok "Linjoin.join" Branch "*"
      "plaintext hash matching over the opened fingerprints above: \
       control flow is a function of the declared opened values only, and \
       drives nothing but local gathers and public validity masks (no \
       further interactive work depends on it, so transcripts stay \
       shape-deterministic for the certifier)";
    (* --- result delivery --- *)
    ok "Table.reveal" Declass "shuffle_open_table"
      "the analyst's output opening (§3.1): invalid rows are zero-masked \
       and the table shuffled before opening, so only valid result rows \
       carry information; the columns open with that shuffle, in its last \
       round under SH-HM";
    ok "Table.reveal" Branch "*"
      "row filtering on the opened validity bits of the final shuffled \
       result — the output size is part of the analyst's result (§3.1) — \
       and ordering the opened rows by the plan's public ORDER BY spec";
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
