(** TableSort (§3.2): sort a table on a composite key without re-sorting
    every column for every key.

    Where Protocol 2 extracts one sorting permutation per key column and
    composes them, the key columns here are packed locally into a few
    ascending words, one base sort extracts the sorting permutation of
    the whole composite key, and that permutation is applied to all
    columns of the table once. A single-key sort takes the fast path of
    carrying every column through the base sort directly — no extraction
    or inversion needed. *)

open Orq_proto
module Sortwrap = Orq_sort.Sortwrap
module Permops = Orq_shuffle.Permops
module Ring = Orq_util.Ring

type order = Table.order = Asc | Desc

let to_dir = function Asc -> Sortwrap.Asc | Desc -> Sortwrap.Desc

(* Bits per packed key word. Radixsort takes 60 bits, the widest
   multiple of both 2 and 3 that fits a word, so that every word below
   the top one splits into whole digits of any protocol's width;
   quicksort takes whole words, so that its lexicographic compare runs
   over as few columns as possible. *)
let word_bits = function
  | Sortwrap.Radixsort -> 60
  | Sortwrap.Quicksort -> Ring.word_bits

(** [pack ~bits keys] is the composite key of [keys] (most significant
    first) as ascending Bool words, most significant first: the key bits
    are concatenated, each [Desc] key xored with its all-ones mask so that
    it sorts ascending, and the result is cut from its least significant
    bit into [bits]-bit words; the top word holds the rest. Local: shifts,
    masks and xors of the whole key columns. *)
let pack ~bits (keys : (Share.chunked * int * order) list) :
    (Share.shared * int) list =
  let total = List.fold_left (fun acc (_, w, _) -> acc + w) 0 keys in
  let nwords = (total + bits - 1) / bits in
  let words = Array.make nwords None in
  let add j piece =
    words.(j) <-
      Some (match words.(j) with None -> piece | Some x -> Mpc.xor x piece)
  in
  ignore
    (List.fold_left
       (fun hi (k, w, o) ->
         (* the key fills composite bits [lo, hi) *)
         let lo = hi - w in
         let k = Mpc.and_mask (Share.unpark k) (Ring.mask w) in
         let k = match o with Asc -> k | Desc -> Mpc.xor_pub k (Ring.mask w) in
         for j = lo / bits to (hi - 1) / bits do
           let base = j * bits in
           let piece =
             if lo >= base then Mpc.lshift k (lo - base)
             else Mpc.rshift k (base - lo)
           in
           add j
             (if hi > base + bits then Mpc.and_mask piece (Ring.mask bits)
              else piece)
         done;
         lo)
       total keys);
  List.init nwords (fun i ->
      let j = nwords - 1 - i in
      (Option.get words.(j), min total ((j + 1) * bits) - (j * bits)))

(** [sort_cols ctx ~keys others] sorts rows lexicographically by the key
    columns (each with width and direction); returns (sorted keys, sorted
    others). Every permutation moves each key and each [(column, width)]
    of [others] at its width. A multi-key sort packs the keys ({!pack})
    and runs one base sort on the words: radixsort when the engine would
    radix-sort every key on its own
    ({!Sortwrap.default_algo_for_width}), quicksort otherwise. Tracked
    columns stream chunk at a time through the final table-wide
    permutation application; the packed words and the permutation are
    whole vectors. *)
let sort_cols (ctx : Ctx.t) ~(keys : (Share.chunked * int * order) list)
    (others : (Share.chunked * int) list) :
    Share.chunked list * Share.chunked list =
  match keys with
  | [] -> invalid_arg "Tablesort.sort_cols: no keys"
  | [ (k, w, o) ] ->
      let k', others' = Sortwrap.sort ctx ~dir:(to_dir o) ~w k others in
      ([ k' ], others')
  | _ ->
      let radix (_, w, _) =
        Sortwrap.default_algo_for_width w = Sortwrap.Radixsort
      in
      let algo =
        if List.for_all radix keys then Sortwrap.Radixsort
        else Sortwrap.Quicksort
      in
      let words = pack ~bits:(word_bits algo) keys in
      let sigma = Sortwrap.sorting_perm ctx ~algo words in
      let key_cols = List.map (fun (k, w, _) -> (k, w)) keys in
      let nk = List.length key_cols in
      let all = Permops.apply_elementwise_table ctx (key_cols @ others) sigma in
      (Orq_sort.Quicksort.take nk all, Orq_sort.Quicksort.drop nk all)

(** Sort a whole table by named columns; [valid] prepends the validity
    bit as the leading key, whose sorted column is then the new validity
    (otherwise validity rides as a carried column). Parked columns stream
    chunk at a time and stay parked; whole columns flow through as single
    untracked chunks. *)
let sort ?valid (t : Table.t) (specs : (string * order) list) : Table.t =
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
  let valid_col = (Share.wrap t.Table.valid, 1) in
  let keys =
    (match valid with Some o -> [ (fst valid_col, 1, o) ] | None -> [])
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
  let carried = List.map snd others in
  let sorted_keys, sorted_others =
    sort_cols ctx ~keys (if valid = None then valid_col :: carried else carried)
  in
  let valid', sorted_named, rest =
    match (valid, sorted_keys, sorted_others) with
    | Some _, v :: named, rest | None, named, v :: rest -> (v, named, rest)
    | _ -> assert false
  in
  let recol = Column.with_chunked in
  let cols' =
    List.map
      (fun (n, c) ->
        match List.assoc_opt n (List.combine key_names sorted_named) with
        | Some data -> (n, recol c (flip_c (flip_of n) data))
        | None ->
            let data = List.assoc n (List.combine (List.map fst others) rest) in
            (n, recol c data))
      t.Table.cols
  in
  let facts =
    List.filter (function Table.Ordered _ -> false | _ -> true) t.Table.facts
  in
  { t with Table.cols = cols'; valid = Share.unpark valid'; facts }
