(** ORQ's hybrid oblivious radixsort (§3.2, Appendix B, Protocol 10):
    per-digit stable sorting permutations applied *eagerly* to the whole
    working table (Bogdanov-style) through the efficient
    elementwise-permutation application of Asharov et al. Digits are 3
    bits under honest majority (a word's remainder of 1 bit as two 2-bit
    digits, a 1-bit word as one bit) and 1 bit under 2PC (the paper's
    hybrid ranks single bits). Under SH-HM a digit of 1, 2 or 3 bits
    takes 5, 6 or 7 rounds ({!Orq_proto.Primcost.rank_digit} plus
    {!Orq_proto.Primcost.applyperm}), so an l-bit sort with l a multiple
    of 3 takes [7 l / 3] rounds against the compose-based protocol's
    [11 l - 6] (up to 1.44x faster in the paper at 1-bit digits).
    Whatever the digit width, a sort draws one sharded permutation per
    key bit from the shuffle stream ([Ctx.perm_prg]).
    Stable and ascending (a descending key arrives complemented). *)

open Orq_proto

val digits : Ctx.kind -> int list -> int list
(** [digits kind widths] is the digit schedule of {!sort_c} over every
    bit of words of [widths] (most significant first): each digit's width
    in bits, least significant digit first. A function of the protocol
    and the public widths only. *)

val sort_c :
  Ctx.t -> ?bits:int -> ?skip:int -> ?keep:bool ->
  (Share.chunked * int) list -> (Share.chunked * int) list ->
  Share.chunked list * Share.chunked list
(** [sort_c ctx ?bits ?skip ?keep words carry] stably sorts rows
    [(words..., carry...)] on bits [skip, skip + bits) of the composite
    key the [words] form, most significant first ([bits] defaults to all
    bits above [skip]). A digit never straddles two words.

    Width contract: every column comes paired with its width, and each
    digit's table application moves each word and each carry at its own
    width (see {!Orq_shuffle.Shardedperm.apply}): a boolean column is
    masked to its width on receipt, so a width below the data's true
    width corrupts it; an arithmetic carry must be at [ctx.ell].

    With [keep] (default [true]) the result is (sorted words, sorted
    carry), bare and in input order. With [~keep:false] the words are not
    returned: each shifts out its ranked bits ({!Mpc.rshift}) and moves
    only its unranked bits, and the result is ([], sorted carry).

    The columns stream chunk at a time; only the packed 1-bit-per-row
    flag column and the ranking permutation are whole. The wire cost does
    not depend on the chunking. *)

val sort :
  Ctx.t -> bits:int -> ?skip:int -> Share.shared ->
  Share.shared list -> Share.shared * Share.shared list
(** {!sort_c} on whole vectors with every column at [ctx.ell]. *)
