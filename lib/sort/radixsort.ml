(** ORQ's hybrid oblivious radixsort (§3.2, Appendix B.1, Protocol 10).

    Walk the key in digits from least to most significant, compute each
    digit's stable sorting permutation with {!Genbitperm.gen_digit} and
    *eagerly apply it to the whole working table* (Bogdanov-style), using
    the efficient elementwise-permutation application of Asharov et al.
    The paper ranks one bit at a time; under honest majority this ranks
    2-bit digits (see [digit_bits]), so a digit costs 3 ranking rounds
    plus the table application (4 rounds under SH-HM) — 7 rounds per 2
    key bits instead of 12 — and the table moves once per 2 bits. An odd
    bit count ends with a 1-bit digit (2 ranking rounds). Compared with
    the compose-then-apply variant ({!Radix_compose}) this trades a
    little bandwidth for fewer rounds — the hybrid the paper reports as
    up to 1.44x faster.

    Stable by construction, so no uniqueness padding is needed for
    correctness; the wrapper still carries an index column when the sorting
    permutation must be extracted. Descending order flips each bit before
    ranking, which reverses the digit order and preserves stability. *)

open Orq_proto

type dir = Asc | Desc

(* Key bits per ranked digit. Under honest majority (3PC, 4PC) products
   consume no preprocessing, so a 2-bit digit only adds the one-hot
   product and two multiplication lanes while saving a whole table
   permutation. Under 2PC a 2-bit digit saves one permutation-correlation
   pair (512n preprocessing bits) but spends two more Beaver triples
   (768n), so 2PC ranks single bits. *)
let digit_bits : Ctx.kind -> int = function
  | Ctx.Sh_hm | Ctx.Mal_hm -> 2
  | Ctx.Sh_dm -> 1

(* Bits [lo, lo + l) of the key as packed flag columns, least significant
   first: fused extraction straight into flag lanes, one visit per chunk
   for all [l] bits, repacked bit-granularly into whole columns. *)
let extract_digit (y : Share.chunked) lo l : Share.flags array =
  let bits s = Array.init l (fun j -> Mpc.extract_bit_f s (lo + j)) in
  match Share.chunked_nchunks y with
  | 0 -> bits (Share.unpark y)
  | nc ->
      let per_chunk =
        Array.init nc (fun k -> Share.with_chunk_c y k bits)
      in
      Array.init l (fun j ->
          Share.flags_concat_many (Array.map (fun c -> c.(j)) per_chunk))

(** [sort_c ctx ~bits ?skip ~dir (key, kw) carry] stably sorts the rows
    [(key, carry...)] on the [bits] key bits starting at bit [skip],
    returning the rearranged columns. Every column is paired with its
    width: each digit's table application moves the key at [kw] and each
    carry at its own width. Key and carry stream chunk at a time
    through bit extraction and the table-wide permutation application;
    the per-digit ranking ({!Genbitperm}) runs over whole packed flag
    columns, a 1-bit-per-row working set per digit bit, 63x smaller than
    the table it ranks. A whole ({!Share.wrap}ped) input is one chunk. *)
let sort_c (ctx : Ctx.t) ~bits ?(skip = 0) ?(dir = Asc)
    ((key : Share.chunked), kw) (carry : (Share.chunked * int) list) :
    Share.chunked * Share.chunked list =
  Share.check_enc_c Bool key;
  let widths = kw :: List.map snd carry in
  let y = ref key and rest = ref (List.map fst carry) in
  let owned = ref false in
  let lo = ref skip and hi = skip + bits in
  while !lo < hi do
    let l = min (digit_bits ctx.kind) (hi - !lo) in
    let digit = extract_digit !y !lo l in
    let digit =
      match dir with Asc -> digit | Desc -> Array.map Mpc.bnot_f digit
    in
    let sigma = Genbitperm.gen_digit ctx digit in
    let cols =
      Orq_shuffle.Permops.apply_elementwise_table ctx
        (List.combine (!y :: !rest) widths)
        sigma
    in
    (* advance the shuffle stream by one sharded permutation per key bit,
       as a 1-bit digit does, so the permutations later operators draw —
       and with them a later quicksort's data-dependent recursion — do not
       depend on the digit width *)
    for _ = 2 to l do
      Orq_shuffle.Shardedperm.skip ctx (Share.chunked_length !y)
    done;
    if !owned then List.iter Share.dispose_c (!y :: !rest);
    owned := true;
    lo := !lo + l;
    match cols with
    | y' :: rest' ->
        y := y';
        rest := rest'
    | [] -> assert false
  done;
  (!y, !rest)

(** {!sort_c} on whole vectors, every column moved at [ctx.ell]. *)
let sort (ctx : Ctx.t) ~bits ?skip ?dir key carry =
  let at_ell s = (Share.wrap s, ctx.ell) in
  let k, c =
    sort_c ctx ~bits ?skip ?dir (at_ell key) (List.map at_ell carry)
  in
  (Share.unpark k, List.map Share.unpark c)
