(** TableSort (§3.2, Protocol 2) and its sorting wrapper (Appendix B.2,
    Protocol 11): sort a table on a composite key without re-sorting
    every column for every key.

    Where Protocol 2 extracts one sorting permutation per key column and
    composes them, the key columns here are packed locally into a few
    ascending words and one base sort orders the whole composite key. A
    radix sort then takes one of two paths, whichever moves fewer bits
    ({!radix_path}): it carries every column through its digits and
    unpacks the sorted words into the keys (carry-through), or it carries
    an index column that ends as the sorting permutation's inverse,
    inverts it and applies the permutation to all columns once
    (Protocol 11). Quicksort carries a single key's columns through and
    takes the permutation route for several keys.

    The base sorts sort ascending. A descending key is xored with its
    w-bit complement before the sort (local), which reverses its order
    and keeps ties stable; the complement is undone on the sorted key. A
    signed key's sign-bit flip rides in the same public xor. *)

open Orq_proto
module Permops = Orq_shuffle.Permops
module Localperm = Orq_shuffle.Localperm
module Ring = Orq_util.Ring

type order = Table.order = Asc | Desc

type algo = Quicksort | Radixsort

type radix_path = Carry | Sigma

(* The engine's base-sort rule (§3.2): radixsort when every key is at
   most 32 bits, quicksort otherwise. *)
let default_algo keys =
  if List.for_all (fun (_, w, _) -> w <= 32) keys then Radixsort else Quicksort

(* Bits per packed key word. Radixsort takes 60 bits, the widest
   multiple of both 2 and 3 that fits a word, so that every word below
   the top one splits into whole digits of any protocol's width;
   quicksort takes whole words, so that its lexicographic compare runs
   over as few columns as possible. *)
let word_bits = function Radixsort -> 60 | Quicksort -> Ring.word_bits

(* The public word a [w]-bit key in order [o] is xored with so that it
   sorts ascending: its complement when descending. *)
let complement w o = match o with Asc -> 0 | Desc -> Ring.mask w

let xor_c c ck = if c = 0 then ck else Share.map_chunks (fun s -> Mpc.xor_pub s c) ck

(* Rematerialize a whole-vector result with the tracking of the input it
   replaces. *)
let repack_like (like : Share.chunked) (s : Share.shared) =
  if Share.chunked_tracked like then Share.park s else Share.wrap s

(* Shared index column 0..n-1 (the publicShare padding step), with the
   width it travels and compares at: its values are below the public n. *)
let index_column (ctx : Ctx.t) n =
  ( Share.public_vec ctx Share.Bool (Localperm.identity n),
    Ring.index_bits n )

(* The widths of the words a composite key of [total] bits packs into
   at [bits] bits per word, most significant first: cut from the least
   significant bit, the top word holding the rest. *)
let word_widths ~bits total =
  let nwords = (total + bits - 1) / bits in
  List.init nwords (fun i ->
      let j = nwords - 1 - i in
      min total ((j + 1) * bits) - (j * bits))

let sum_widths = List.fold_left ( + ) 0

let key_widths keys = List.map (fun (_, w, _) -> w) keys

(* [pack ~bits keys] is the composite key of the [(column, width, xor)]
   [keys] (most significant first) as ascending Bool words, most
   significant first, each with its width ({!word_widths}): each key is
   masked to its width and xored with its public word and the key bits
   are concatenated. Local: shifts, masks and xors of the whole key
   columns. A lone key that fits a word is its own word, xored chunk at
   a time. *)
let pack ~bits (keys : (Share.chunked * int * int) list) :
    (Share.chunked * int) list =
  match keys with
  | [ (k, w, c) ] when w <= bits -> [ (xor_c c k, w) ]
  | _ ->
      let total = sum_widths (key_widths keys) in
      let widths = word_widths ~bits total in
      let nwords = List.length widths in
      let words = Array.make nwords None in
      let add j piece =
        words.(j) <-
          Some (match words.(j) with None -> piece | Some x -> Mpc.xor x piece)
      in
      ignore
        (List.fold_left
           (fun hi (k, w, c) ->
             (* the key fills composite bits [lo, hi) *)
             let lo = hi - w in
             let k = Mpc.and_mask (Share.unpark k) (Ring.mask w) in
             let k = if c = 0 then k else Mpc.xor_pub k c in
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
      List.mapi
        (fun i ww -> (Share.wrap (Option.get words.(nwords - 1 - i)), ww))
        widths

(* The inverse of [pack ~bits keys] on the sorted words: each key's bits
   gathered from the words it spans and xored with its public word
   again, tracked like the key it replaces. Local. *)
let unpack ~bits (keys : (Share.chunked * int * int) list)
    (words : Share.chunked list) : Share.chunked list =
  match (keys, words) with
  | [ (_, w, c) ], [ word ] when w <= bits -> [ xor_c c word ]
  | _ ->
      let words = Array.of_list (List.rev_map Share.unpark words) in
      let total = sum_widths (key_widths keys) in
      let _, out =
        List.fold_left
          (fun (hi, out) (k, w, c) ->
            let lo = hi - w in
            let piece j =
              let base = j * bits in
              let x =
                if lo >= base then Mpc.rshift words.(j) (lo - base)
                else Mpc.lshift words.(j) (base - lo)
              in
              Mpc.and_mask x (Ring.mask w)
            in
            let v = ref (piece (lo / bits)) in
            for j = (lo / bits) + 1 to (hi - 1) / bits do
              v := Mpc.xor !v (piece j)
            done;
            let v = if c = 0 then !v else Mpc.xor_pub !v c in
            (lo, repack_like k v :: out))
          (total, []) keys
      in
      List.rev out

(* Quicksort on one key: sort rows ascending by the [w]-bit key,
   carrying the [(column, width)] columns through. It sorts on (key,
   index) for uniqueness and stability, and as its shuffle-then-open
   control flow keys on whole opened vectors, it unparks its input and
   repacks the result like the key. *)
let quick_carry (ctx : Ctx.t) ~w (key : Share.chunked)
    (carry : (Share.chunked * int) list) : Share.chunked * Share.chunked list =
  Ctx.with_label ctx "quicksort" @@ fun () ->
  let index, iw = index_column ctx (Share.chunked_length key) in
  match
    Orq_sort.Quicksort.sort ctx
      ~keys:[ (Share.unpark key, w); (index, iw) ]
      (List.map (fun (c, cw) -> (Share.unpark c, cw)) carry)
  with
  | [ key'; _ ], carry' -> (repack_like key key', List.map (repack_like key) carry')
  | _ -> assert false

(* The carry-through radix path: one radix sort on the packed words
   carrying every other column through each digit, then the sorted words
   unpacked into the keys. Columns stream chunk at a time; the words of
   several keys are whole. *)
let radix_carry (ctx : Ctx.t) (keys : (Share.chunked * int * int) list)
    (others : (Share.chunked * int) list) : Share.chunked list * Share.chunked list =
  let bits = word_bits Radixsort in
  let words', others' =
    Ctx.with_label ctx "radixsort" @@ fun () ->
    Orq_sort.Radixsort.sort_c ctx (pack ~bits keys) others
  in
  (unpack ~bits keys words', others')

(* The elementwise permutation sigma that stably sorts the rows
   ascending by the composite key the [(word, width)] columns form
   (most significant first): the base sort carries (radixsort) or
   compares last (quicksort) the index column, which ends as
   sigma^{-1} = sigma(I); Protocol 8 inverts it. Under radixsort each
   word moves only its still-unranked bits. *)
let sorting_perm (ctx : Ctx.t) algo (words : (Share.chunked * int) list) :
    Share.shared =
  let index, iw = index_column ctx (Share.chunked_length (fst (List.hd words))) in
  let inv =
    match algo with
    | Radixsort -> (
        Ctx.with_label ctx "radixsort" @@ fun () ->
        match
          Orq_sort.Radixsort.sort_c ctx ~keep:false words [ (Share.wrap index, iw) ]
        with
        | [], [ inv ] -> Share.unpark inv
        | _ -> assert false)
    | Quicksort -> (
        Ctx.with_label ctx "quicksort" @@ fun () ->
        let words = List.map (fun (w, ww) -> (Share.unpark w, ww)) words in
        match
          List.rev (fst (Orq_sort.Quicksort.sort ctx ~keys:(words @ [ (index, iw) ]) []))
        with
        | inv :: _ -> inv
        | [] -> assert false)
  in
  Permops.invert ctx inv

(* The permutation route: sigma from the packed words, then one
   application to every key and other column. *)
let by_sigma (ctx : Ctx.t) algo (keys : (Share.chunked * int * int) list)
    (others : (Share.chunked * int) list) : Share.chunked list * Share.chunked list =
  let sigma = sorting_perm ctx algo (pack ~bits:(word_bits algo) keys) in
  let nk = List.length keys in
  let all =
    Permops.apply_elementwise_table ctx
      (List.map (fun (k, w, _) -> (k, w)) keys @ others)
      sigma
  in
  (List.filteri (fun i _ -> i < nk) all, List.filteri (fun i _ -> i >= nk) all)

(** The radix path a sort of [n] rows on keys of widths [keys] carrying
    columns of widths [payload] takes under [kind]: the permutation route
    when it ranks strictly before carry-through by {!Primcost.rank}
    (modeled network time under the pacing profile, then rounds, then
    bits), carry-through otherwise. Both rank the same digits;
    carry-through always takes two Protocol-5 applications fewer, the
    permutation route moves fewer bits when the payload is wide. Public
    shape only. *)
let radix_path (kind : Ctx.kind) ~n ~(keys : int list) ~(payload : int list) =
  let digits =
    Orq_sort.Radixsort.digits kind
      (word_widths ~bits:(word_bits Radixsort) (sum_widths keys))
  in
  let carry = Primcost.tablesort_carry kind ~n ~digits ~keys ~payload
  and sigma = Primcost.tablesort_sigma kind ~n ~digits ~keys ~payload in
  if compare (Primcost.rank sigma) (Primcost.rank carry) < 0 then Sigma else Carry

(* {!sort_cols} over [(column, width, xor)] keys: each key sorts
   ascending after the xor with its public word, and comes back as it
   went in. *)
let sort_xored (ctx : Ctx.t) (algo : algo option) (radix : radix_path option)
    (keys : (Share.chunked * int * int) list)
    (others : (Share.chunked * int) list) :
    Share.chunked list * Share.chunked list =
  let algo =
    match (algo, radix) with
    | Some Quicksort, Some _ -> invalid_arg "Tablesort.sort_cols: a radix path under quicksort"
    | Some a, _ -> a
    | None, Some _ -> Radixsort
    | None, None -> default_algo keys
  in
  match keys with
  | [] -> invalid_arg "Tablesort.sort_cols: no keys"
  | (k, _, _) :: _ when Share.chunked_length k = 0 ->
      (List.map (fun (k, _, _) -> k) keys, List.map fst others)
  | (k, _, _) :: _ -> (
      match (algo, keys) with
      | Quicksort, [ (k, w, c) ] ->
          let k', others' = quick_carry ctx ~w (xor_c c k) others in
          ([ xor_c c k' ], others')
      | Quicksort, _ -> by_sigma ctx Quicksort keys others
      | Radixsort, _ -> (
          let path =
            match radix with
            | Some p -> p
            | None ->
                radix_path ctx.Ctx.kind ~n:(Share.chunked_length k)
                  ~keys:(key_widths keys)
                  ~payload:(List.map snd others)
          in
          match path with
          | Carry -> radix_carry ctx keys others
          | Sigma -> by_sigma ctx Radixsort keys others))

(** [sort_cols ctx ?algo ?radix ~keys others] sorts rows
    lexicographically by the key columns (each with width and direction);
    returns (sorted keys, sorted others). Every permutation moves each key
    and each [(column, width)] of [others] at its width. [algo] defaults
    to radixsort when every key is at most 32 bits and quicksort
    otherwise; a radix sort takes [radix], by default {!radix_path}. The
    keys pack into words ({!pack}) for one base sort. Tracked columns
    stream chunk at a time; the packed words of several keys and the
    permutation are whole vectors. Zero rows return as they came. *)
let sort_cols (ctx : Ctx.t) ?algo ?radix
    ~(keys : (Share.chunked * int * order) list)
    (others : (Share.chunked * int) list) :
    Share.chunked list * Share.chunked list =
  sort_xored ctx algo radix
    (List.map (fun (k, w, o) -> (k, w, complement w o)) keys)
    others

(** Sort a whole table by named columns; [valid] prepends the validity
    bit as the leading key, whose sorted column is then the new validity
    (otherwise validity rides as a carried column). Parked columns stream
    chunk at a time and stay parked; whole columns flow through as single
    untracked chunks. [radix] forces a radix path as in {!sort_cols}. *)
let sort ?valid ?radix (t : Table.t) (specs : (string * order) list) : Table.t =
  let ctx = Table.ctx t in
  (* boolean payload; arithmetic columns convert as whole vectors *)
  let chunked_bool c =
    match Column.enc c with
    | Share.Bool -> Column.chunked c
    | Share.Arith -> Share.wrap (Column.as_bool ctx c)
  in
  let valid_col = (Share.wrap t.Table.valid, 1) in
  let keys =
    (match valid with Some o -> [ (fst valid_col, 1, complement 1 o) ] | None -> [])
    @ List.map
        (fun (name, o) ->
          let c = Table.find t name in
          (* signed key columns sort correctly after the
             order-preserving two's-complement -> unsigned map (flip
             the sign bit) *)
          let flip = if c.Column.signed then 1 lsl (c.Column.width - 1) else 0 in
          (chunked_bool c, c.Column.width, flip lxor complement c.Column.width o))
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
    sort_xored ctx None radix keys (if valid = None then valid_col :: carried else carried)
  in
  let valid', sorted_named, rest =
    match (valid, sorted_keys, sorted_others) with
    | Some _, v :: named, rest | None, named, v :: rest -> (v, named, rest)
    | _ -> assert false
  in
  let sorted =
    List.combine key_names sorted_named
    @ List.combine (List.map fst others) rest
  in
  let cols' =
    List.map (fun (n, c) -> (n, Column.with_chunked c (List.assoc n sorted))) t.Table.cols
  in
  let facts =
    List.filter (function Table.Ordered _ -> false | _ -> true) t.Table.facts
  in
  { t with Table.cols = cols'; valid = Share.unpark valid'; facts }
