(** ORQ's hybrid oblivious radixsort (§3.2, Appendix B.1, Protocol 10).

    For each key bit from least to most significant, compute the bit's
    stable sorting permutation with {!Genbitperm} and *eagerly apply it to
    the whole working table* (Bogdanov-style), using the efficient
    elementwise-permutation application of Asharov et al. Compared to the
    compose-then-apply variant ({!Radix_compose}) this trades a little
    bandwidth for [7 (l - 1)] fewer rounds — the hybrid the paper reports as
    up to 1.44x faster.

    Stable by construction, so no uniqueness padding is needed for
    correctness; the wrapper still carries an index column when the sorting
    permutation must be extracted. Descending order flips each bit before
    ranking, which preserves stability. *)

open Orq_proto

type dir = Asc | Desc

(** [sort_c ctx ~bits ?skip ~dir key carry] stably sorts the rows
    [(key, carry...)] on the [bits] key bits starting at bit [skip],
    returning the rearranged columns. Key and carry stream chunk at a time
    through bit extraction and the table-wide permutation application;
    the per-bit ranking ({!Genbitperm}) runs over one whole packed flag
    column, a 1-bit-per-row working set 63x smaller than the table it
    ranks. A whole ({!Share.wrap}ped) input is one chunk. *)
let sort_c (ctx : Ctx.t) ~bits ?(skip = 0) ?(dir = Asc) (key : Share.chunked)
    (carry : Share.chunked list) : Share.chunked * Share.chunked list =
  Share.check_enc_c Bool key;
  let y = ref key and rest = ref carry in
  let owned = ref false in
  for i = skip to skip + bits - 1 do
    (* fused bit extraction straight into packed flag lanes, one pass per
       chunk and share vector, repacked bit-granularly into one column *)
    let b =
      match Share.chunked_nchunks !y with
      | 0 -> Mpc.extract_bit_f (Share.unpark !y) i
      | nc ->
          Share.flags_concat_many
            (Array.init nc (fun k ->
                 Share.with_chunk_c !y k (fun s -> Mpc.extract_bit_f s i)))
    in
    let b = match dir with Asc -> b | Desc -> Mpc.bnot_f b in
    let sigma = Genbitperm.gen_f ctx b in
    let cols =
      Orq_shuffle.Permops.apply_elementwise_table ctx (!y :: !rest) sigma
    in
    if !owned then List.iter Share.dispose_c (!y :: !rest);
    owned := true;
    match cols with
    | y' :: rest' ->
        y := y';
        rest := rest'
    | [] -> assert false
  done;
  (!y, !rest)

(** {!sort_c} on whole vectors. *)
let sort ctx ~bits ?skip ?dir key carry =
  let k, c =
    sort_c ctx ~bits ?skip ?dir (Share.wrap key) (List.map Share.wrap carry)
  in
  (Share.unpark k, List.map Share.unpark c)
