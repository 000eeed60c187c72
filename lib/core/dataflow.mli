(** The ORQ dataflow API (§2.2): relational operators as transformations
    on secret-shared tables, chained to build query plans (the model of
    the paper's Listing 1). Every operator is fully oblivious: output
    sizes and access patterns depend only on public input sizes. *)

type order = Tablesort.order = Asc | Desc

(** {2 Row-local operators} *)

val filter : Table.t -> Expr.pred -> Table.t
(** SELECT ... WHERE: evaluate the predicate obliviously and fold it into
    the validity column. *)

val map : Table.t -> dst:string -> Expr.num -> Table.t
(** Attach a derived column (e.g. Revenue = Price * (100 - Disc) / 100)
    at the width of its domain ({!Expr.bound}).
    [If (p, Col x, Const 0)] over an unsigned [x] records the fact
    [Le (dst, x)].
    @raise Dom.Refused before any share moves if the bound exceeds the
    ring. *)

(** {2 Sort / limit / distinct} *)

val order_by : Table.t -> (string * order) list -> Table.t
(** ORDER BY: valid rows float to the top, then the user keys apply. *)

val limit : Table.t -> int -> Table.t
(** LIMIT k after an ORDER BY: keep the first k physical rows. *)

val distinct : Table.t -> string list -> Table.t
(** DISTINCT on a composite key: sort, keep each group's first row. *)

(** {2 GROUP BY aggregation} *)

type aggfn =
  | Sum
  | Count
  | Min
  | Max
  | Avg  (** fully private: non-restoring division on secret sum/count *)

type agg = { src : string; dst : string; fn : aggfn }

val agg_dom : rows:int -> Dom.t -> agg -> Dom.t
(** The domain of an aggregation over groups of at most [rows] rows of a
    source with the given domain (ignored for COUNT): SUM ≤ rows·hi,
    COUNT ∈ [0, rows], and AVG, MIN and MAX within an unsigned source's
    domain (a signed source is read as its bit pattern).
    @raise Dom.Refused if the bound, or an AVG's hidden sum, exceeds the
    ring. *)

val aggregate :
  ?carry:string list -> Table.t -> keys:string list -> aggs:agg list -> Table.t
(** GROUP BY (the paper's [.aggregate()]): sort on (validity, keys), then
    one of two physical paths ({!agg_path}), and keep one valid row per
    group. Its columns are the keys, the [carry] columns (read from the
    group's last row, so each should depend on the keys) and the results
    in the order of [aggs], on either path; every other input column is
    dropped before the sort.
    AVG divides with its quotient bounded by the width of an unsigned
    source (a signed one keeps the sum width), and the result takes that
    width. Facts ({!Table.fact}): two SUMs in the call whose sources hold
    [Le (a, b)] give [Le] on their results, and a SUM of an unsigned
    source records [Sum_of] a part of the input's valid rows. Each result
    takes the domain {!agg_dom} gives it over the input's rows.
    @raise Dom.Refused before the sort if a bound exceeds the ring. *)

type agg_path =
  | Network
      (** the aggregation network (§3.1, Protocol 1): ⌈log₂ n⌉
          multiplication levels; any aggregation *)
  | Compaction
      (** SUM, COUNT and AVG only: local prefix sums, then one stable
          one-bit compaction of the group ends ({!Aggnet.compact}) in a
          constant number of rounds *)

val agg_path :
  ?carry:string list -> Table.t -> keys:string list -> aggs:agg list -> agg_path
(** The path {!aggregate} takes: [Network] unless every aggregation is
    SUM, COUNT or AVG; otherwise the cheaper of
    {!Orq_proto.Primcost.aggnet} and {!Orq_proto.Primcost.aggcompact} as
    modeled network time under {!Joincost.profile}, then fewer rounds,
    then fewer bits, a tie keeping the network. Public shape only (rows,
    protocol, widths), so a shape twin chooses alike. *)

val aggregate_by :
  agg_path -> ?carry:string list -> Table.t -> keys:string list ->
  aggs:agg list -> Table.t
(** {!aggregate} on the given path, whatever it costs.
    @raise Invalid_argument for [Compaction] over a MIN or MAX. *)

(** {2 Whole-table aggregation} *)

val global_aggregate : Table.t -> aggs:agg list -> Table.t
(** No grouping key: SUM/COUNT/AVG via a validity-masked local reduction
    (no sorting — why the paper's Q6 is its cheapest query); MIN/MAX via a
    log-depth compare tree. One-row result. AVG and the facts are as in
    {!aggregate}, a SUM recording [Sum_of] all the input's valid rows.
    An empty input leaves MIN at its width's maximum and MAX at zero. *)

val with_scalar :
  Table.t -> scalar:Table.t -> src:string -> dst:string -> Table.t
(** Broadcast the single row of [scalar] (e.g. a global aggregate) as a
    constant column of [t] — local share replication. When [src] is a
    global SUM, each column of [t] that is a grouped SUM of the same
    column over the same table gets [Le (col, dst)]. *)

(** {2 Joins} *)

val inner_join :
  ?copy:string list -> ?trim:Joinagg.trim_mode -> Table.t -> Table.t ->
  on:string list -> Table.t
(** INNER JOIN (one-to-many: the left input must have unique keys —
    pre-aggregate first for many-to-many, §3.6). [copy] propagates left
    columns into matching right rows. *)

val group_join_applies :
  Table.t -> Table.t -> on:string list -> keys:string list -> aggs:agg list ->
  bool
(** Whether {!group_join} evaluates this GROUP BY over the one-to-many
    join: [on] ⊆ [keys] ⊆ [on] ∪ left columns, and every aggregation is
    COUNT or reads a right non-key column. *)

val group_join :
  ?outer:bool -> Table.t -> Table.t -> on:string list -> keys:string list ->
  aggs:agg list -> Table.t
(** GROUP BY [keys] over the one-to-many (left-unique) join on [on],
    aggregated inside the join (§3.3): one row per join-key group, the
    group's last. COUNT counts the group's matched right rows. Inner joins
    price this against the linear join plus {!aggregate} ({!Joincost});
    [~outer:true] is the left-outer join, where an unmatched left row's
    group reads zero for SUM/COUNT/MIN/MAX and its AVG (a division by a
    zero count) is undefined. Output: [keys] then the aggregation
    results. *)

val semi_join : Table.t -> Table.t -> on:string list -> Table.t
(** Keep left rows that match some right row (swapped inner join of
    Appendix C.1; handles duplicates on both sides). A sort join trims
    its output by the C.3 heuristic ({!Joinagg.should_trim}). *)

val anti_join : Table.t -> Table.t -> on:string list -> Table.t
(** Keep left rows with no match in right; a sort join trims as
    {!semi_join}'s does. *)

(** {2 Set operations} *)

val concat_tables : Table.t -> Table.t -> Table.t
(** UNION ALL of tables with identical schemas. *)
