(** The general sorting wrapper (Appendix B.2, Protocol 11): input padding,
    base-sort dispatch, and sorting-permutation extraction.

    Each row is tagged with its (public, then secret-shared) index. For
    quicksort the index joins the comparison key, making rows unique (a
    security requirement of the shuffle-then-reveal approach) and the sort
    stable; radixsort is stable by construction and carries the index as
    data. After sorting, the index column holds [sigma(I) = sigma^{-1}];
    inverting it with Protocol 8 yields the elementwise sorting permutation
    [sigma] that TableSort composes and applies to the remaining columns. *)

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

(* Shared index column 0..n-1 (the publicShare padding step). *)
let index_column (ctx : Ctx.t) n =
  Share.public_vec ctx Share.Bool (Localperm.identity n)

(* Base-sort dispatch. Returns the sorted key and carry and, when [perm]
   is set, the sorted index column [sigma^{-1}] as a whole vector.
   Radixsort streams the columns and carries the index as data at
   [ctx.perm_bits], tracked like the key, so a whole-vector sort never
   charges the chunk store.
   Quicksort always sorts on (key, index) for uniqueness and stability; its
   shuffle-then-open control flow keys on whole opened vectors, so it
   unparks its input and repacks the result like the key. *)
let run_base (ctx : Ctx.t) algo dir ~w ~perm key carry =
  match algo with
  | Radixsort ->
      Ctx.with_label ctx "radixsort" @@ fun () ->
      let rdir = match dir with Asc -> Radixsort.Asc | Desc -> Radixsort.Desc in
      let n = Share.chunked_length key and ncarry = List.length carry in
      let index =
        if perm then [ (repack_like key (index_column ctx n), ctx.perm_bits) ]
        else []
      in
      let key', cols' =
        Radixsort.sort_c ctx ~bits:w ~dir:rdir (key, w) (carry @ index)
      in
      let pi =
        if not perm then None
        else begin
          let pi = List.nth cols' ncarry in
          let s = Share.unpark pi in
          Share.dispose_c pi;
          Some s
        end
      in
      (key', Quicksort.take ncarry cols', pi)
  | Quicksort -> (
      Ctx.with_label ctx "quicksort" @@ fun () ->
      let n = Share.chunked_length key in
      let qdir = match dir with Asc -> Quicksort.Asc | Desc -> Quicksort.Desc in
      let keys =
        [
          { Quicksort.col = Share.unpark key; width = w; dir = qdir };
          {
            Quicksort.col = index_column ctx n;
            width = ctx.perm_bits;
            dir = Quicksort.Asc;
          };
        ]
      in
      match
        Quicksort.sort ctx ~keys
          (List.map (fun (c, cw) -> (Share.unpark c, cw)) carry)
      with
      | [ key'; idx' ], carry' ->
          ( repack_like key key',
            List.map (repack_like key) carry',
            if perm then Some idx' else None )
      | _ -> assert false)

(** [sort_with_perm ctx ?algo ~dir ~w key carry] sorts rows by the single
    [w]-bit key column (plus index tiebreak), returning the sorted key,
    the sorted carry columns (given as [(column, width)] pairs), and the
    elementwise sorting permutation [sigma]. *)
let sort_with_perm (ctx : Ctx.t) ?algo ~(dir : dir) ~w (key : Share.chunked)
    (carry : (Share.chunked * int) list) :
    Share.chunked * Share.chunked list * Share.shared =
  let algo = Option.value algo ~default:(default_algo_for_width w) in
  match run_base ctx algo dir ~w ~perm:true key carry with
  | key', carry', Some pi -> (key', carry', Permops.invert ctx pi)
  | _, _, None -> assert false

(** [sort ctx ?algo ~dir ~w key carry] as above but without extracting the
    sorting permutation (single-key sorts that carry all their columns
    through the base sort do not need it). *)
let sort (ctx : Ctx.t) ?algo ~(dir : dir) ~w (key : Share.chunked)
    (carry : (Share.chunked * int) list) : Share.chunked * Share.chunked list =
  let algo = Option.value algo ~default:(default_algo_for_width w) in
  let key', carry', _ = run_base ctx algo dir ~w ~perm:false key carry in
  (key', carry')
