(** The general sorting wrapper (Appendix B.2, Protocol 11): index
    padding, base-sort dispatch, and sorting-permutation extraction. After
    sorting, the carried index column holds [sigma(I) = sigma^{-1}];
    Protocol 8 inverts it into the elementwise permutation TableSort
    composes and applies to the remaining columns. *)

open Orq_proto

type algo = Quicksort | Radixsort

type dir = Asc | Desc

val default_algo_for_width : int -> algo
(** Radixsort for narrow keys (≤ 32 bits), quicksort above — the engine
    default (§3.2). *)

val sort_with_perm :
  Ctx.t -> ?algo:algo -> dir:dir -> w:int -> Share.chunked ->
  (Share.chunked * int) list ->
  Share.chunked * Share.chunked list * Share.shared
(** Sort by a single key column (index tiebreak), returning the sorted
    key, the sorted carry columns, and the sorting permutation sigma as a
    whole vector.

    Width contract: the key is [w] bits wide and each carry comes paired
    with its width. Every permutation the base sort applies moves the key
    at [w], each carry at its width and the index column at
    [ctx.perm_bits] (see {!Orq_shuffle.Shardedperm.apply}: boolean
    columns are masked to their width on receipt, arithmetic carries must
    be at [ctx.ell]).

    Radixsort streams tracked columns chunk at a time and carries an
    index column tracked like the key; quicksort (wide keys) works on
    whole vectors and repacks its result like the key. A whole
    ({!Share.wrap}ped) input never touches the chunk store. *)

val sort :
  Ctx.t -> ?algo:algo -> dir:dir -> w:int -> Share.chunked ->
  (Share.chunked * int) list -> Share.chunked * Share.chunked list
(** As above without extracting the permutation (single-key sorts that
    carry all their columns need none). *)
