(** TableSort (§3.2): sort a table on a composite key without re-sorting
    every column per key — the key columns are packed locally into
    ascending words, one base sort extracts the composite key's sorting
    permutation, and it is applied to all columns once. Single-key sorts
    take a fast path carrying every column through the base sort. Signed
    key columns sort via the order-preserving sign-bit flip. *)

open Orq_proto

type order = Table.order = Asc | Desc

val sort_cols :
  Ctx.t -> keys:(Share.chunked * int * order) list ->
  (Share.chunked * int) list -> Share.chunked list * Share.chunked list
(** Sort rows lexicographically by the key columns (width and direction
    each); returns (sorted keys, sorted others). Keys and the
    [(column, width)] pairs of others move at their widths (boolean
    columns are masked to them on receipt). A multi-key sort runs one
    base sort over the packed keys: radixsort when every key alone would
    be radix-sorted ({!Orq_sort.Sortwrap.default_algo_for_width}),
    quicksort otherwise. Tracked columns stream chunk at a time; whole
    ({!Share.wrap}ped) columns are single chunks. The wire cost does not
    depend on the chunking. *)

val sort : ?valid:order -> Table.t -> (string * order) list -> Table.t
(** Sort a table by named columns; [valid] makes the validity bit the
    leading key in that direction, and its sorted key column becomes the
    result's validity (it is not carried a second time). Parked columns
    stream and stay parked. The result drops any [Table.Ordered] fact of
    the input. *)
