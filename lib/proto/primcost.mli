(** The primitive price list: the online communication transcript of each
    MPC primitive as a closed-form function of {b public shape only} —
    protocol kind, bit width [w] and element count [n]. Nothing here ever
    sees a share or a value.

    The forms are the protocol analyses of Table 1 and Appendix A (ABY /
    Araki / Fantastic Four): an opening moves each [w·n]-bit share vector
    once per receiving party (plus digests under Mal-HM's redundant
    delivery), a multiplication/AND is one round of masked-difference
    exchange, comparisons are the fused logarithmic ladders of §B, and a
    sharded-permutation application pays the Table-1 per-pass totals.

    This is the {e model}; the {e meter} ({!Mpc}'s lane charges,
    [Shardedperm.apply_cost], {!Dealer}) charges the same traffic from its
    own code and deliberately does not read this module — only
    {!hash_bits} is shared. The analysis tests compare the two derivations
    event for event, so an implementation change that makes a primitive's
    trace depend on anything beyond (kind, w, n) breaks a test instead of
    silently moving both sides. The certifier folds transcripts with
    {!tally_of}, and the physical join planner ([Joincost]) prices its
    candidates from these forms. *)

module Comm = Orq_net.Comm

val hash_bits : int
(** Mal-HM digest size: each opened vector travels with one digest per
    receiving party for redundant delivery. *)

val open_ : Ctx.kind -> w:int -> n:int -> Comm.event array
(** Opening a [w]-bit vector of [n] elements: one round. *)

val mul : Ctx.kind -> w:int -> n:int -> Comm.event array
(** Multiplication / bitwise AND / OR / MUX on [w]-bit vectors: one round
    of masked-difference exchange. *)

val b2a : Ctx.kind -> w:int -> n:int -> Comm.event array
(** Boolean-to-arithmetic conversion of [n] [w]-bit values via per-bit
    daBits: the [w·n] masked bits open in one width-1 round (the
    correlations are preprocessing). [~w:1] is the single-bit
    conversion. *)

val eq : Ctx.kind -> w:int -> n:int -> Comm.event array
(** Equality of [w]-bit vectors: XOR locally, then the logarithmic
    OR-fold — one round per level at halving stride widths, ⌈log₂ w⌉
    rounds (zero for w = 1). *)

val lt : Ctx.kind -> w:int -> n:int -> Comm.event array
(** Less-than on [w]-bit vectors: the (lt, eq) block-combination ladder
    of §B — an initial width-[w] AND, then one level per doubling block
    size, each AND packing both combination products over doubled-length
    operands, except the last, which forms the lt product alone.
    ⌈log₂ w⌉ + 1 rounds. *)

val add : Ctx.kind -> w:int -> n:int -> Comm.event array
(** Sum of two shared [w]-bit vectors (the Sklansky adder): the generate
    AND over the [w − 1] carry positions (the top carry is never read;
    none for [w = 1]), then one AND per prefix level, ⌈log₂(w − 1)⌉ of
    them. Level j charges its live positions: a G product at every carry
    position with bit j set, and a P product at those with a higher bit
    set too. *)

val a2b : Ctx.kind -> ell:int -> w:int -> n:int -> Comm.event array
(** Arithmetic-to-boolean conversion of [n] values to [w] bits: the
    masked values open at [ell] bits, then a public-minuend subtraction:
    {!add} without the generate AND, which is local. *)

val shuffle : Ctx.kind -> w:int -> n:int -> Comm.event array
(** One sharded-permutation application over [n] elements of [w] bits
    (Table 1): a payload round followed by the remaining passes as one
    payload-free barrier. *)

val shuffle_open :
  Ctx.kind -> w:int -> opened:int list -> n:int -> Comm.event array
(** One sharded-permutation application over [n] elements moving [w]
    reshared bits per element plus one lane per width in [opened], those
    lanes then opened ([Shardedperm.apply_open]). Under SH-HM the opening
    rides the last pass: 3 rounds, 8·w·n bits per opened lane and 8
    messages. Under SH-DM and Mal-HM it is {!shuffle} over all the bits
    followed by one fused opening round of the [opened] lanes. *)

val applyperm : Ctx.kind -> w:int -> n:int -> Comm.event array
(** Protocol 5 ([Permops.apply_elementwise_table]) over [n] rows moving
    [w] data bits per row: the data application and the opened
    application of rho at [Ring.index_bits n] bits, run as fused tracks
    (3 rounds under SH-HM, one more than the shuffle elsewhere). *)

val rank_digit : Ctx.kind -> l:int -> n:int -> Comm.event array
(** One [l]-bit digit's stable ranking over [n] rows
    ([Genbitperm.gen_digit], [l] in 1..3): the [l] bits' conversion as
    one width-1 lane of [l·n] flags ({!b2a}), one round per one-hot degree
    2 .. [l] ([l] choose degree products), then the ranking inner
    product: one lane under honest majority, 2^[l] − 1 Beaver lanes under
    SH-DM. Every product is at [Ring.index_bits n] bits. The table
    application each digit then pays is {!applyperm}. *)

val lt_lex_open : Ctx.kind -> ws:int list -> n:int -> Comm.event array
(** Lexicographic less-than over columns of widths [ws], opened
    ([Compare.lt_lex_open]): every column's ladder in fused rounds (one
    column's stops before the level whose blocks span the word), the
    packed merge of the (lt, eq) pairs down to two pairs, then the last
    AND, which forms only the lt product. Under SH-HM that AND opens in
    its own round (6 bits and 6 messages per element); elsewhere it is a
    width-1 AND followed by a width-1 opening. *)

val tally_of : Comm.event array -> Comm.tally
(** Sequential composition: rounds and traffic both add. *)

val fuse : Comm.tally -> Comm.tally -> Comm.tally
(** Two independent tracks run side by side: their rounds overlap (the
    maximum) while their traffic adds. *)

(** {2 TableSort's radix paths}

    The two ways a radix TableSort over [n] rows sorts key columns of
    widths [keys] and carries payload columns of widths [payload]. Both
    rank the same [digits] (each digit's width, least significant first:
    [Radixsort.digits] of the packed key words), so their ranking costs
    are equal; they differ in what the table applications move. *)

val tablesort_carry :
  Ctx.kind -> n:int -> digits:int list -> keys:int list -> payload:int list ->
  Comm.tally
(** Carry-through: every digit's ranking ({!rank_digit}) then one
    Protocol-5 application ({!applyperm}) of every key and payload bit. *)

val tablesort_sigma :
  Ctx.kind -> n:int -> digits:int list -> keys:int list -> payload:int list ->
  Comm.tally
(** The sorting-permutation route (Protocol 11): every digit's ranking
    then one application of the key bits not yet ranked and the
    [Ring.index_bits n]-bit index; then the inversion of sigma^{-1} (one
    application of the index) and the final application of every key and
    payload bit. Two applications more than {!tablesort_carry}. *)

(** {2 GROUP BY paths}

    The two physical paths of a GROUP BY whose aggregations are all
    invertible (SUM, COUNT, AVG), from the table already sorted on
    (validity, keys) to the group totals; what both paths share (the
    sort, the sources' conversions, the finishing conversions and
    divisions) is left out. [keys] are the widths of the key columns,
    validity included; [sums] the result widths of the summed columns;
    [n] the rows. *)

val aggnet : Ctx.kind -> n:int -> keys:int list -> sums:int list -> Comm.tally
(** The aggregation network (Protocol 1) over Sum lanes ([Aggnet.run]):
    the group-boundary ladders of all ⌈log₂ n⌉ doubling levels as one
    fused batch over the rows padded to a power of two, one fused bit
    conversion of every level's boundaries, then one multiplication
    round per level (no conversion and no level without a lane). Zero
    for one row. *)

val aggcompact :
  Ctx.kind -> n:int -> keys:int list -> sums:int list -> local:int ->
  moved:int -> Comm.tally
(** Group totals by prefix sums and a one-bit compaction: the
    adjacent-row ladder marking group ends ([Aggnet.last_of_group_bits]),
    then [Aggnet.compact] with one secret lane per [sums] width and
    [local] row-count lanes, carrying [moved] bits per row besides the
    group-end bit and the total lanes (each [sums] lane at its width, a
    row-count lane at [Ring.index_bits (n + 1)]): one bit conversion, one
    fused round of the index-width ranking and the lane products, and one
    Protocol-5 application. *)
