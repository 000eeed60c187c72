(** Plaintext reference relational engine — the role SQLite plays in the
    paper's validation (§5.1): a small, obviously correct, in-memory
    evaluator over integer columns, against which every MPC query in the
    test suite is checked row-multiset for row-multiset. *)

type row = int list

type t = { schema : string list; rows : row list }

val create : string list -> row list -> t
val of_cols : (string * int array) list -> t
val nrows : t -> int
val schema : t -> string list
val col_idx : t -> string -> int

val get : t -> string -> row -> int
(** Row accessor: [get t name row]. *)

val filter : t -> ((string -> row -> int) -> row -> bool) -> t
val map : t -> dst:string -> ((string -> row -> int) -> row -> int) -> t
val project : t -> string list -> t
val rename_col : t -> from:string -> into:string -> t
val distinct : t -> string list -> t

val sort : t -> (string * int) list -> t
(** Stable sort by named columns; +1 ascending, -1 descending per key. *)

val limit : t -> int -> t

(** {2 Joins} *)

val inner_join : t -> t -> on:string list -> t
(** Natural inner join; non-key column names must be disjoint (as in the
    MPC engine). *)

val semi_join : t -> t -> on:string list -> t
val anti_join : t -> t -> on:string list -> t

(** {2 Aggregation} *)

type aggfn = Sum | Count | Min | Max | Avg

type agg = { src : string; dst : string; fn : aggfn }

val group_by : t -> keys:string list -> aggs:agg list -> t
(** Output schema is keys @ agg destinations. *)

val rows_sorted : t -> string list -> int list list
(** Canonical multiset of rows over [names], sorted. *)

val concat : t -> t -> t
