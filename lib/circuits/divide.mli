(** Oblivious integer division, quotient only. A secret divisor runs the
    paper's non-restoring circuit (§5.1): one [wd + 2]-bit adder per
    quotient bit ([w], or [qw] when the caller bounds the quotient below
    [2^qw] and the dividend's top bits seed the remainder), the ±D step a
    local D ⊕ ext(t) with the shared carry-in t. A public divisor of an
    unsigned arithmetic dividend in [[0, hi]] runs multiply-high: a local
    product by the public m = ⌈2^s/d⌉, one A2B at bitlen(hi·m) bits and
    a shift by s, when that width fits the ring. A public divisor of a
    boolean dividend (or of a product too wide) runs the cheaper of a
    narrow non-restoring loop and a carry-save digit split, chosen from
    [(w, d)] alone; powers of two are local. Every choice reads public
    shape only. *)

open Orq_proto

val udiv :
  Ctx.t -> ?qw:int -> w:int -> wd:int -> Share.shared -> Share.shared ->
  Share.shared
(** [udiv ctx ?qw ~w ~wd x d] = the quotient of the [w]-bit boolean [x]
    by a secret boolean divisor below [2^wd] ([wd] is clamped to
    [[1, w]]). When the caller knows the quotient is below [2^qw] ([qw]
    is clamped to [[1, w]], default [w]), the top [w - qw] bits of [x]
    are below the divisor: they seed the partial remainder and only [qw]
    iterations run. Takes {!udiv_rounds} online rounds. A quotient that
    breaks the bound, and division by zero, give unspecified output. *)

val udiv_rounds : w:int -> wd:int -> ?qw:int -> unit -> int
(** Closed-form online round count of {!udiv} (with round fusion on),
    [qw] times the rounds of one [(wd + 2)]-bit adder, a function of the
    public [(w, wd, qw)] only. *)

val udiv_pub :
  Ctx.t -> ?hi:int -> w:int -> Share.shared -> int -> Share.shared
(** [udiv_pub ctx ?hi ~w x d] = the boolean quotient of the unsigned
    [w]-bit [x] by the public constant [d]. A boolean [x] runs the narrow
    loop or the digit split. An arithmetic [x] is read as a value in
    [[0, hi]] ([hi] defaults to, and is clamped to, [2^w - 1]): a row
    outside that range gets an unspecified quotient. It runs
    multiply-high when the product fits the ring and the A2B at [w] bits
    plus the boolean circuits otherwise, and [d > hi] gives 0 with no
    communication. Takes {!pub_rounds}[ ?hi ~enc ~w d] online rounds.
    @raise Invalid_argument if [d < 1]. *)

val pub_rounds : ?hi:int -> enc:Share.enc -> w:int -> int -> int
(** Closed-form online round count of {!udiv_pub} (with round fusion on)
    for a dividend in encoding [enc], a function of the public
    [(enc, hi, w, d)] only. For a boolean dividend: 0 for [d = 1], powers
    of two and [d >= 2^w]; for an arithmetic one, the A2B's rounds
    included. *)
