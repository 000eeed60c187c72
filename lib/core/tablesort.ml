(** TableSort (§3.2, Protocol 2): sort a table on a composite key without
    re-sorting every column for every key.

    Sorting permutations are extracted per key column (least-significant
    key first, so per-key stability composes into lexicographic order),
    composed right-to-left as elementwise permutations, and the final
    permutation is applied to all columns of the table once. A single-key
    sort takes the fast path of carrying every column through the base sort
    directly — no extraction or inversion needed. *)

open Orq_proto
module Sortwrap = Orq_sort.Sortwrap
module Permops = Orq_shuffle.Permops

type order = Asc | Desc

let to_dir = function Asc -> Sortwrap.Asc | Desc -> Sortwrap.Desc

(** [sort_cols ctx ~keys others] sorts rows lexicographically by the key
    columns (each with width and direction); returns (sorted keys, sorted
    others). Every permutation moves each key and each [(column, width)]
    of [others] at its width. Tracked columns stream chunk at a time
    through the base sort and the final table-wide permutation
    application; the multi-key
    sigma-extraction pipeline works on one whole key column at a time (a
    bounded single-column working set). *)
let sort_cols (ctx : Ctx.t) ~(keys : (Share.chunked * int * order) list)
    (others : (Share.chunked * int) list) :
    Share.chunked list * Share.chunked list =
  match keys with
  | [] -> invalid_arg "Tablesort.sort_cols: no keys"
  | [ (k, w, o) ] ->
      let k', others' = Sortwrap.sort ctx ~dir:(to_dir o) ~w k others in
      ([ k' ], others')
  | _ ->
      (* compose sorting permutations from the least-significant key *)
      let pi = ref None in
      List.iter
        (fun (k, w, o) ->
          let k = Share.wrap (Share.unpark k) in
          let t =
            match !pi with
            | None -> k
            | Some p ->
                List.hd (Permops.apply_elementwise_table ctx [ (k, w) ] p)
          in
          let _, _, sigma =
            Sortwrap.sort_with_perm ctx ~dir:(to_dir o) ~w t []
          in
          pi :=
            Some
              (match !pi with
              | None -> sigma
              | Some p -> Permops.compose ctx p sigma))
        (List.rev keys);
      let p = Option.get !pi in
      let key_cols = List.map (fun (k, w, _) -> (k, w)) keys in
      let nk = List.length key_cols in
      let all = Permops.apply_elementwise_table ctx (key_cols @ others) p in
      (Orq_sort.Quicksort.take nk all, Orq_sort.Quicksort.drop nk all)

(** Sort a whole table by named columns; [lead] prepends extra key columns
    (e.g. the validity bit) ahead of the named ones. Parked columns stream
    chunk at a time and stay parked; whole columns flow through as single
    untracked chunks. *)
let sort ?(lead : (Share.shared * int * order) list = []) (t : Table.t)
    (specs : (string * order) list) : Table.t =
  let ctx = Table.ctx t in
  (* signed key columns sort correctly after the order-preserving
     two's-complement -> unsigned map (flip the sign bit); the flip is
     undone on the sorted output *)
  let flip_of name =
    let c = Table.find t name in
    if c.Column.signed then 1 lsl (c.Column.width - 1) else 0
  in
  (* boolean payload; arithmetic columns convert as whole vectors *)
  let chunked_bool c =
    match Column.enc c with
    | Share.Bool -> Column.chunked c
    | Share.Arith -> Share.wrap (Column.as_bool ctx c)
  in
  let flip_c f ck =
    if f = 0 then ck else Share.map_chunks (fun s -> Mpc.xor_pub s f) ck
  in
  let keys =
    List.map (fun (s, w, o) -> (Share.wrap s, w, o)) lead
    @ List.map
        (fun (name, o) ->
          let c = Table.find t name in
          (flip_c (flip_of name) (chunked_bool c), c.Column.width, o))
        specs
  in
  let key_names = List.map fst specs in
  let others =
    List.filter_map
      (fun (n, c) ->
        if List.mem n key_names then None
        else Some (n, (chunked_bool c, c.Column.width)))
      t.Table.cols
  in
  let sorted_keys, sorted_others =
    sort_cols ctx ~keys ((Share.wrap t.Table.valid, 1) :: List.map snd others)
  in
  let nlead = List.length lead in
  let sorted_named = Orq_sort.Quicksort.drop nlead sorted_keys in
  let recol c res = { c with Column.payload = res } in
  match sorted_others with
  | valid' :: rest ->
      let cols' =
        List.map
          (fun (n, c) ->
            match List.assoc_opt n (List.combine key_names sorted_named) with
            | Some data -> (n, recol c (flip_c (flip_of n) data))
            | None ->
                let data =
                  List.assoc n (List.combine (List.map fst others) rest)
                in
                (n, recol c data))
          t.Table.cols
      in
      { t with Table.cols = cols'; valid = Share.unpark valid' }
  | [] -> assert false
