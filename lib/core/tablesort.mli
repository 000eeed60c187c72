(** TableSort (§3.2) with its sorting wrapper (Appendix B.2): sort a
    table on a composite key without re-sorting every column per key —
    the key columns are packed locally into ascending words for one base
    sort. A radix sort either carries every column through its digits
    and unpacks the sorted words ({!Carry}), or extracts the composite
    key's sorting permutation (the carried index column ends as
    sigma^{-1}, which Protocol 8 inverts) and applies it to all columns
    once ({!Sigma}), whichever moves fewer bits ({!radix_path}).
    Quicksort carries a single key's columns and extracts the
    permutation for several keys. Descending keys sort as their w-bit
    complement and signed keys via the order-preserving sign-bit flip,
    both one local xor undone on the sorted key. *)

open Orq_proto

type order = Table.order = Asc | Desc

type algo = Quicksort | Radixsort

(** The two paths of a radix sort: carry every column through the
    digits, or extract, invert and apply the sorting permutation
    (Protocol 11). *)
type radix_path = Carry | Sigma

val radix_path :
  Ctx.kind -> n:int -> keys:int list -> payload:int list -> radix_path
(** The path a radix sort of [n] rows on keys of widths [keys] carrying
    columns of widths [payload] takes: {!Carry} unless {!Sigma} moves
    strictly fewer online bits ({!Orq_proto.Primcost.tablesort_carry},
    {!Orq_proto.Primcost.tablesort_sigma}). Carry-through always takes
    fewer rounds, so the choice never moves more bits than either path
    and never pays rounds that do not save bits. Public shape only. *)

val sort_cols :
  Ctx.t -> ?algo:algo -> ?radix:radix_path ->
  keys:(Share.chunked * int * order) list -> (Share.chunked * int) list ->
  Share.chunked list * Share.chunked list
(** Sort rows lexicographically by the key columns (width and direction
    each); returns (sorted keys, sorted others). [algo] picks the base
    sort; by default radixsort when every key is at most 32 bits,
    quicksort otherwise (the engine rule of §3.2). A radix sort takes
    [radix], by default {!radix_path}; [radix] implies radixsort, and
    with [~algo:Quicksort] raises [Invalid_argument].

    Width contract: keys and the [(column, width)] pairs of others move
    at their widths (see {!Orq_shuffle.Shardedperm.apply}: boolean
    columns are masked to them on receipt, arithmetic ones must be at
    [ctx.ell]); quicksort's index column moves at
    {!Orq_util.Ring.index_bits}[ n] for [n] rows.

    Tracked columns stream chunk at a time (quicksort works on whole
    vectors and repacks its result like the key); whole
    ({!Share.wrap}ped) columns are single chunks and never touch the
    chunk store. The wire cost does not depend on the chunking. Zero
    rows come back as they went in, unmetered. *)

val sort :
  ?valid:order -> ?radix:radix_path -> Table.t -> (string * order) list ->
  Table.t
(** Sort a table by named columns; [valid] makes the validity bit the
    leading key in that direction, and its sorted key column becomes the
    result's validity (it is not carried a second time). [radix] forces
    a radix path as in {!sort_cols}. Parked columns
    stream and stay parked. The result drops any [Table.Ordered] fact of
    the input. *)
