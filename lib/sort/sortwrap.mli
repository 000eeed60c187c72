(** The general sorting wrapper (Appendix B.2, Protocol 11): index
    padding, base-sort dispatch, and sorting-permutation extraction. After
    sorting, the carried index column holds [sigma(I) = sigma^{-1}];
    Protocol 8 inverts it into the elementwise permutation TableSort
    applies to all columns of the table at once. *)

open Orq_proto

type algo = Quicksort | Radixsort

type dir = Asc | Desc

val default_algo_for_width : int -> algo
(** Radixsort for narrow keys (≤ 32 bits), quicksort above — the engine
    default (§3.2). *)

val sort :
  Ctx.t -> ?algo:algo -> dir:dir -> w:int -> Share.chunked ->
  (Share.chunked * int) list -> Share.chunked * Share.chunked list
(** Sort by a single key column (index tiebreak), returning the sorted
    key and the sorted carry columns.

    Width contract: the key is [w] bits wide and each carry comes paired
    with its width. Every permutation the base sort applies moves the key
    at [w], each carry at its width and quicksort's index column at
    {!Orq_util.Ring.index_bits}[ n] for [n] rows (see
    {!Orq_shuffle.Shardedperm.apply}: boolean columns are masked to their
    width on receipt, arithmetic carries must be at [ctx.ell]).

    Radixsort streams tracked columns chunk at a time; quicksort (wide
    keys) works on whole vectors and repacks its result like the key. A
    whole ({!Share.wrap}ped) input never touches the chunk store. *)

val sorting_perm :
  Ctx.t -> algo:algo -> (Share.shared * int) list -> Share.shared
(** [sorting_perm ctx ~algo words] is the elementwise permutation sigma
    that stably sorts the rows ascending by the composite key the
    [(word, width)] columns form, most significant first: the base sort
    carries (radixsort) or compares last (quicksort) the index column at
    {!Orq_util.Ring.index_bits}[ n], which ends as sigma^{-1}; Protocol 8
    inverts it.
    Under radixsort each word moves only its still-unranked bits. Whole
    vectors in and out. *)
