(** Lower a logical plan onto the ORQ dataflow operators (optimizing is
    the caller's step: {!Optimize.run} first, as {!Sql.run} does),
    with a top-down needed-columns analysis that prunes scan payloads and
    derives join [~copy] lists. Joins still carrying duplicate keys on
    both sides take the oblivious quadratic fallback, exactly as §2.1
    prescribes for queries outside the tractable class. *)

val run : ?need:string list -> Plan.node -> Orq_core.Table.t * int
(** Compile and execute; returns the result table and the number of joins
    that needed the quadratic fallback. *)
