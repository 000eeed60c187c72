(** Logical-plan rewrites: filter pushdown (conjuncts sink below joins
    toward their scans), join orientation (the unique-key side moves to
    the operator's left, §3.3), and automatic §3.6 pre-aggregation (a
    decomposable COUNT/SUM above a many-to-many join becomes
    pre-aggregation + one-to-many join + multiplicity product +
    post-aggregation — the Figure 3 evaluation, derived mechanically).
    Semi, anti and outer joins, DISTINCT, whole-table aggregates and
    [With_scalar] pass through unchanged. *)

val run : Plan.node -> Plan.node
(** The full pipeline: pushdown, then pre-aggregation, then orientation.
    It rebuilds the tree, so a plan whose nodes are shared (a DAG, as the
    registered queries build) loses the sharing: run those unoptimized. *)
