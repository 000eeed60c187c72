(** Secret-shared relational tables (§3.1): named shared columns plus the
    special validity column of secret-shared bits. Operators never delete
    rows — they invalidate them — so the physical row count (the only
    quantity a computing party observes) depends only on public input
    sizes. Invalid rows are masked and shuffled before any opening. *)

open Orq_proto

type order = Asc | Desc

(** Public facts about column values on valid rows, derived from plan
    shape alone (never from data), so shape twins derive the same ones.
    Secret division reads them to bound its quotient; {!reveal} reads
    [Ordered]. Operators that permute or invalidate rows keep them, except
    that a re-sort drops [Ordered]; overwriting, projecting away or
    renaming a column drops its facts; tables built from fresh columns
    start with none. *)
type fact =
  | Le of string * string
      (** unsigned column [a] <= unsigned column [b], row by row *)
  | Sum_of of { col : string; src : Column.t; over : Share.shared; whole : bool }
      (** [col] sums the unsigned column [src] over valid rows (under
          validity [over]) of the table that held it: all of them when
          [whole], a subset otherwise. [src] and [over] identify that
          table physically. *)
  | Ordered of (string * order) list
      (** valid rows are in ORDER BY order on these columns, most
          significant first *)

type t = {
  ctx : Ctx.t;
  name : string;
  cols : (string * Column.t) list;
  valid : Share.shared;  (** boolean single-bit validity column *)
  nrows : int;
  facts : fact list;
}

val ctx : t -> Ctx.t
val nrows : t -> int
val col_names : t -> string list

val find : t -> string -> Column.t
(** @raise Invalid_argument naming the available columns if absent. *)

val width : t -> string -> int

val key_dom : t -> t -> string -> Dom.t
(** [key_dom a b k]: the hull of column [k]'s domains in [a] and [b], the
    domain of a join key drawn from either side. *)

val column : t -> string -> Share.shared
val mem : t -> string -> bool

val create :
  Ctx.t -> string -> ?valid:int array -> (string * int * int array) list -> t
(** Data-owner-side construction from plaintext columns
    (name, bit width, values); all rows valid unless a validity vector is
    supplied. *)

val of_columns :
  Ctx.t -> string -> valid:Share.shared -> (string * Column.t) list -> t

val rename : t -> string -> t

val add_facts : t -> fact list -> t

val le : t -> string -> string -> bool
(** [le t a b]: whether [t] holds the fact [Le (a, b)]. *)

val set_col : t -> string -> Column.t -> t

val project : t -> string list -> t
(** PROJECT: keep only the named columns (validity is always kept). *)

val rename_col : t -> from:string -> into:string -> t

val take_rows : t -> int -> t
(** Restrict to the first [k] physical rows (public change; LIMIT). *)

val pad_rows : t -> int -> t
(** Data-owner padding (§3.1): append invalid zero-valued dummy rows,
    hiding the true input cardinality. *)

val park : t -> unit
(** Park every data column into budget-managed chunks (streaming operator
    boundary; no-op when already parked). Validity stays monolithic. *)

val and_valid : t -> Share.flags -> t
(** AND predicate flags into the validity column (the oblivious filter:
    physical size unchanged, selectivity hidden). Validity itself stays a
    0/1 word column, since it moves through sharded permutations; this is
    where single-bit predicates meet it. *)

val reveal : t -> (string * int array) list
(** Open to the analyst: invalid rows are masked to zero and the table
    shuffled before opening, so only valid rows carry information. The
    shuffle destroys their order; a table with an [Ordered] fact gets its
    opened valid rows sorted by that spec in the clear (signed keys as
    two's complement, ties in shuffled order). *)

val peek : t -> (string * int array) list * int array
(** Test-only: reconstruct all columns and validity bits directly. *)

val valid_rows_sorted : t -> string list -> int list list
(** Test-only canonical form: the multiset of valid rows over the named
    columns, sorted. *)
