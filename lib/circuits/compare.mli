(** Oblivious comparisons on boolean-shared, bit-packed values: XOR +
    logarithmic OR-fold equality and divide-and-conquer less-than —
    [O(log w)] AND rounds for [w]-bit values, as assumed by the paper's
    sorting analysis (Appendix B). Every result is single-bit and comes
    back as packed flags ({!Share.flags}): the word-based ladders end in a
    local bit extraction, and merges, AND trees and negations run over
    packed words.

    The [_many] entry points run k independent comparison lanes (possibly
    of different widths) in lockstep, one fused round per ladder level, so
    the batched round count is the {e maximum} lane depth instead of the
    sum; traffic is unchanged. Single-pair functions are the one-lane
    special case. *)

open Orq_proto

val eq : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.flags
(** [eq ctx ~w x y]: [x = y] over the low [w] bits; [log2 w] AND
    rounds. *)

val eq_many :
  Ctx.t -> (Share.shared * Share.shared * int) array -> Share.flags array
(** k independent equalities (lanes are (x, y, width) triples) in
    max-lane-depth fused rounds; lanes drop out as their strides expire. *)

val lt : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.flags
(** [lt ctx ~w x y]: [x < y] over [w]-bit naturals. Two's-complement
    callers flip both operands' top bits first (a local xor). The last
    level forms the lt product alone: the eq product beside it is never
    read. *)

val lt_many :
  Ctx.t -> (Share.shared * Share.shared * int) array -> Share.flags array
(** k independent less-than tests in max-lane-depth fused rounds. *)

val le : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.flags
val ge : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.flags

val lt_lex :
  Ctx.t -> (Share.shared * Share.shared * int) list -> Share.flags
(** Lexicographic less-than over (x, y, width) column pairs — the
    composite-key comparator of TableSort and the sorting wrapper. All
    columns' (lt, eq) ladders run in one fused lockstep pass, then a
    log-depth associative merge over packed flags combines them; its last
    merge forms the lt product alone. *)

val lt_lex_open :
  Ctx.t -> (Share.shared * Share.shared * int) list -> Orq_util.Bits.t
(** {!lt_lex} opened to all parties. Under SH-HM the circuit's last AND
    opens in its own round ({!Mpc.band_open_f}): one round fewer than
    computing the comparison and then opening it, and that round forms
    only the opened product. Under SH-DM and Mal-HM it is {!lt_lex} then
    {!Mpc.open_f}, transcript for transcript. *)

val eq_composite :
  Ctx.t -> (Share.shared * Share.shared * int) list -> Share.flags
(** Conjunction of per-column equality over composite keys: one fused
    equality pass, then a log-depth packed AND tree. *)

val eq_composite_many :
  Ctx.t -> (Share.shared * Share.shared * int) list array ->
  Share.flags array
(** Batched {!eq_composite}: every group's column equalities join one
    fused ladder and the AND trees reduce in lockstep — the aggregation
    network uses this to evaluate the group bits of all its levels at
    once. *)
