(** The general sorting wrapper (Appendix B.2, Protocol 11): input padding,
    base-sort dispatch, and sorting-permutation extraction.

    Each row is tagged with its (public, then secret-shared) index. For
    quicksort the index joins the comparison key, making rows unique (a
    security requirement of the shuffle-then-reveal approach) and the sort
    stable; radixsort is stable by construction and carries the index as
    data. After sorting, the index column holds [sigma(I) = sigma^{-1}];
    inverting it with Protocol 8 yields the elementwise sorting permutation
    [sigma] that TableSort applies to all columns of the table at once. *)

open Orq_proto
module Permops = Orq_shuffle.Permops
module Localperm = Orq_shuffle.Localperm

type algo = Quicksort | Radixsort

type dir = Asc | Desc

let default_algo_for_width w = if w <= 32 then Radixsort else Quicksort

(* Rematerialize a whole-vector result with the tracking of the input it
   replaces. *)
let repack_like (like : Share.chunked) (s : Share.shared) =
  if Share.chunked_tracked like then Share.park s else Share.wrap s

(* Shared index column 0..n-1 (the publicShare padding step), with the
   width it travels and compares at: its values are below the public n. *)
let index_column (ctx : Ctx.t) n =
  ( Share.public_vec ctx Share.Bool (Localperm.identity n),
    Orq_util.Ring.index_bits n )

(** [sort ctx ?algo ~dir ~w key carry] sorts rows by the single [w]-bit
    key column, returning the sorted key and the sorted carry columns
    (given as [(column, width)] pairs). Radixsort streams the columns;
    quicksort sorts on (key, index) for uniqueness and stability, and as
    its shuffle-then-open control flow keys on whole opened vectors, it
    unparks its input and repacks the result like the key. *)
let sort (ctx : Ctx.t) ?algo ~(dir : dir) ~w (key : Share.chunked)
    (carry : (Share.chunked * int) list) : Share.chunked * Share.chunked list =
  match Option.value algo ~default:(default_algo_for_width w) with
  | Radixsort -> (
      Ctx.with_label ctx "radixsort" @@ fun () ->
      let rdir = match dir with Asc -> Radixsort.Asc | Desc -> Radixsort.Desc in
      match Radixsort.sort_c ctx ~bits:w ~dir:rdir [ (key, w) ] carry with
      | [ key' ], carry' -> (key', carry')
      | _ -> assert false)
  | Quicksort -> (
      Ctx.with_label ctx "quicksort" @@ fun () ->
      let n = Share.chunked_length key in
      let qdir = match dir with Asc -> Quicksort.Asc | Desc -> Quicksort.Desc in
      let index, iw = index_column ctx n in
      let keys =
        [
          { Quicksort.col = Share.unpark key; width = w; dir = qdir };
          { Quicksort.col = index; width = iw; dir = Quicksort.Asc };
        ]
      in
      match
        Quicksort.sort ctx ~keys
          (List.map (fun (c, cw) -> (Share.unpark c, cw)) carry)
      with
      | [ key'; _ ], carry' ->
          (repack_like key key', List.map (repack_like key) carry')
      | _ -> assert false)

(** [sorting_perm ctx ~algo words] sorts rows ascending by the composite
    key the whole [(word, width)] columns form (most significant first)
    and returns the elementwise sorting permutation [sigma]: the base
    sort carries the index column to [sigma(I) = sigma^{-1}], which
    Protocol 8 inverts. Radixsort carries the index as data while the
    words shift out their ranked bits; quicksort compares (words, index)
    lexicographically. *)
let sorting_perm (ctx : Ctx.t) ~(algo : algo)
    (words : (Share.shared * int) list) : Share.shared =
  let n =
    match words with
    | (w, _) :: _ -> Share.length w
    | [] -> invalid_arg "Sortwrap.sorting_perm: no key words"
  in
  let index, iw = index_column ctx n in
  let inv =
    match algo with
    | Radixsort -> (
        Ctx.with_label ctx "radixsort" @@ fun () ->
        match
          Radixsort.sort_c ctx ~keep:false
            (List.map (fun (w, ww) -> (Share.wrap w, ww)) words)
            [ (Share.wrap index, iw) ]
        with
        | [], [ inv ] -> Share.unpark inv
        | _ -> assert false)
    | Quicksort -> (
        Ctx.with_label ctx "quicksort" @@ fun () ->
        let key (col, width) = { Quicksort.col; width; dir = Quicksort.Asc } in
        let keys = List.map key (words @ [ (index, iw) ]) in
        match List.rev (fst (Quicksort.sort ctx ~keys [])) with
        | inv :: _ -> inv
        | [] -> assert false)
  in
  Permops.invert ctx inv
