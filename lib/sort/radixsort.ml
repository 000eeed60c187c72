(** ORQ's hybrid oblivious radixsort (§3.2, Appendix B.1, Protocol 10).

    Walk the key in digits from least to most significant, compute each
    digit's stable sorting permutation with {!Genbitperm.gen_digit} and
    *eagerly apply it to the whole working table* (Bogdanov-style), using
    the efficient elementwise-permutation application of Asharov et al.
    The paper ranks one bit at a time; under honest majority this ranks
    3-bit digits (see [digit_bits]): a digit costs 4 ranking rounds (the
    bit conversion, two rounds of one-hot products, the ranking inner
    product) plus the table application (3 rounds under SH-HM) — 7
    rounds per 3 key bits instead of 15 — and the table moves once per 3
    bits. A word's last 2 bits form a 2-bit digit (3 + 3 rounds), its
    last 4 two of them, and a lone bit a 1-bit digit (2 + 3 rounds).
    Compared with the compose-then-apply variant ({!Radix_compose}) this
    trades a little bandwidth for fewer rounds — the hybrid the paper
    reports as up to 1.44x faster.

    Stable by construction, so no uniqueness padding is needed for
    correctness; TableSort still carries an index column when the sorting
    permutation must be extracted. Keys sort ascending: TableSort
    complements a descending key before the sort and after it. *)

open Orq_proto

(* Key bits of the next digit to rank, with [r] bits of the current word
   left. Under honest majority (3PC, 4PC) products consume no
   preprocessing and a ranking's sum is one multiplication lane
   ({!Mpc.dot}), so a 3-bit digit adds only its one-hot products while
   saving two whole table permutations; a remainder of one bit is ranked
   as two 2-bit digits rather than 3 + 1 (the same rounds, fewer lanes).
   Under 2PC a wider digit saves permutation-correlation pairs (512n
   preprocessing bits each) but spends a Beaver triple (384n) per
   one-hot product and per ranking term, so 2PC ranks single bits. A
   function of the protocol and the public widths only. *)
let digit_bits (kind : Ctx.kind) r =
  match kind with
  | Ctx.Sh_hm | Ctx.Mal_hm -> if r = 4 then 2 else min 3 r
  | Ctx.Sh_dm -> 1

(** [digits kind widths] is the digit schedule of {!sort_c} over every
    bit of words of [widths] (most significant first): each digit's
    width, least significant first. *)
let digits (kind : Ctx.kind) widths =
  let rec word r =
    if r = 0 then []
    else
      let l = digit_bits kind r in
      l :: word (r - l)
  in
  List.concat_map word (List.rev widths)

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

(** [sort_c ctx ?bits ?skip ?keep words carry] stably sorts the rows
    [(words..., carry...)] on bits [skip, skip + bits) of the composite
    key formed by the [words], most significant first ([bits] defaults to
    every bit above [skip]). Every column is paired with its width: each
    digit's table application moves each word and each carry at its own
    width. A digit never straddles two words, so a word whose width is
    not a multiple of 3 ends with narrower digits ([digit_bits]).

    With [keep] (the default) the words come back sorted. Without it the
    caller gets only the carry back, so a word shifts out its ranked bits
    as it goes: each digit moves the word's unranked bits only, at that
    narrower width, and a word with nothing left to rank stops moving.

    Words and carry stream chunk at a time through bit extraction and the
    table-wide permutation application; the per-digit ranking
    ({!Genbitperm}) runs over whole packed flag columns, a 1-bit-per-row
    working set per digit bit, 63x smaller than the table it ranks. A
    whole ({!Share.wrap}ped) input is one chunk. *)
let sort_c (ctx : Ctx.t) ?bits ?(skip = 0) ?(keep = true)
    (words : (Share.chunked * int) list) (carry : (Share.chunked * int) list)
    : Share.chunked list * Share.chunked list =
  List.iter (fun (c, _) -> Share.check_enc_c Bool c) words;
  let word = Array.of_list (List.map fst words) in
  let width = Array.of_list (List.map snd words) in
  let nw = Array.length word in
  (* composite position of each word's bit 0 *)
  let base = Array.make nw 0 in
  for i = nw - 2 downto 0 do
    base.(i) <- base.(i + 1) + width.(i + 1)
  done;
  let total = if nw = 0 then 0 else base.(0) + width.(0) in
  let hi = match bits with Some b -> skip + b | None -> total in
  if skip < 0 || hi > total then invalid_arg "Radixsort.sort_c: bit range";
  let n = if nw = 0 then 0 else Share.chunked_length word.(0) in
  (* low bits each word has shifted out (none for a kept word); the
     columns this sort made itself and may release *)
  let shifted = Array.make nw 0 and owned = Array.make nw false in
  let release i =
    if owned.(i) then Share.dispose_c word.(i);
    owned.(i) <- false
  in
  let rest = ref (List.map fst carry) and rest_owned = ref false in
  let lo = ref skip in
  while !lo < hi do
    let i = ref (nw - 1) in
    while base.(!i) + width.(!i) <= !lo do decr i done;
    let i = !i in
    let l = digit_bits ctx.kind (min hi (base.(i) + width.(i)) - !lo) in
    let digit = extract_digit word.(i) (!lo - base.(i) - shifted.(i)) l in
    let sigma = Genbitperm.gen_digit ctx digit in
    lo := !lo + l;
    if not keep then begin
      let k = !lo - base.(i) - shifted.(i) in
      shifted.(i) <- shifted.(i) + k;
      let w' =
        if shifted.(i) < width.(i) then
          Some (Share.map_chunks (fun s -> Mpc.rshift s k) word.(i))
        else None
      in
      release i;
      Option.iter
        (fun w' ->
          word.(i) <- w';
          owned.(i) <- true)
        w'
    end;
    (* a word with no unranked bits left has stopped moving *)
    let moved =
      List.filter (fun j -> shifted.(j) < width.(j)) (List.init nw Fun.id)
    in
    let cols =
      Orq_shuffle.Permops.apply_elementwise_table ctx
        (List.map (fun j -> (word.(j), width.(j) - shifted.(j))) moved
        @ List.combine !rest (List.map snd carry))
        sigma
    in
    (* advance the shuffle stream by one sharded permutation per key bit,
       as a 1-bit digit does, so the permutations later operators draw —
       and with them a later quicksort's data-dependent recursion — do not
       depend on the digit width *)
    for _ = 2 to l do
      Orq_shuffle.Shardedperm.skip ctx n
    done;
    if !rest_owned then List.iter Share.dispose_c !rest;
    rest_owned := true;
    rest :=
      List.fold_left
        (fun cols j ->
          release j;
          word.(j) <- List.hd cols;
          owned.(j) <- true;
          List.tl cols)
        cols moved
  done;
  ((if keep then Array.to_list word else []), !rest)

(** {!sort_c} on whole vectors, every column moved at [ctx.ell]. *)
let sort (ctx : Ctx.t) ~bits ?skip key carry =
  let at_ell s = (Share.wrap s, ctx.ell) in
  match sort_c ctx ~bits ?skip [ at_ell key ] (List.map at_ell carry) with
  | [ k ], c -> (Share.unpark k, List.map Share.unpark c)
  | _ -> assert false
