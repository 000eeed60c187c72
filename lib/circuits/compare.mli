(** Oblivious comparisons on boolean-shared, bit-packed values: XOR +
    logarithmic OR-fold equality and divide-and-conquer less-than —
    [O(log w)] AND rounds for [w]-bit values, as assumed by the paper's
    sorting analysis (Appendix B). Results are single-bit boolean shares in
    the LSB.

    The [_many] entry points run k independent comparison lanes (possibly
    of different widths) in lockstep, one fused round per ladder level, so
    the batched round count is the {e maximum} lane depth instead of the
    sum; traffic is unchanged. Single-pair functions are the one-lane
    special case. *)

open Orq_proto

val eq : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.shared
(** [eq ctx ~w x y]: single-bit sharing of [x = y] over the low [w] bits;
    [log2 w] AND rounds. *)

val eq_many :
  Ctx.t -> (Share.shared * Share.shared * int) array -> Share.shared array
(** k independent equalities (lanes are (x, y, width) triples) in
    max-lane-depth fused rounds; lanes drop out as their strides expire. *)

val lt : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.shared
(** [lt ctx ~w x y]: single-bit sharing of [x < y] over [w]-bit naturals.
    Two's-complement callers flip both operands' top bits first (a local
    xor). *)

val lt_many :
  Ctx.t -> (Share.shared * Share.shared * int) array -> Share.shared array
(** k independent less-than tests in max-lane-depth fused rounds. *)

val gt : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.shared
val le : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.shared
val ge : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.shared

val lt_lex :
  Ctx.t -> (Share.shared * Share.shared * int) list -> Share.shared
(** Lexicographic less-than over (x, y, width) column pairs — the
    composite-key comparator of TableSort and the sorting wrapper. All
    columns' (lt, eq) ladders run in one fused lockstep pass, then a
    log-depth associative merge combines them. *)

val lt_lex_open_f :
  Ctx.t -> (Share.shared * Share.shared * int) list -> Orq_util.Bits.t
(** {!lt_lex} opened to all parties as packed flags. The multi-bit
    ladders stay word-based and the column merge runs over packed flags
    (per-word randomness and local work). Under SH-HM the circuit's last
    AND opens in its own round ({!Mpc.band_open_f}): one round fewer than
    computing the comparison and then opening it, and that round forms
    only the opened product, so it moves fewer bits too. Under SH-DM and
    Mal-HM it is the packed comparison then {!Mpc.open_f}, transcript for
    transcript. *)

val eq_composite :
  Ctx.t -> (Share.shared * Share.shared * int) list -> Share.shared
(** Conjunction of per-column equality over composite keys: one fused
    equality pass, then a log-depth AND tree. *)

val eq_composite_many_f :
  Ctx.t -> (Share.shared * Share.shared * int) list array ->
  Share.flags array
(** Batched {!eq_composite} as packed flag lanes: every group's column
    equalities join one fused ladder and the AND trees reduce in lockstep
    over packed words — the aggregation network uses this to evaluate the
    group bits of all its levels at once. *)
