(** Oblivious integer division. A secret divisor runs the paper's
    non-restoring circuit (§5.1): one shift-and-add iteration with a
    sign-selected ±divisor per quotient bit ([w], or [qw] when the
    caller bounds the quotient below [2^qw] and the dividend's top bits
    seed the remainder), the remainder carried at the divisor's width
    plus two bits. A public divisor runs the cheaper of a narrow
    non-restoring loop and a carry-save digit split, chosen from [(w, d)]
    alone; powers of two are local. Quotient bits need no correction, a
    negative final remainder gets +D. Inputs are unsigned [w]-bit boolean
    sharings. *)

open Orq_proto

val udiv :
  Ctx.t -> ?qw:int -> w:int -> wd:int -> Share.shared -> Share.shared ->
  Share.shared * Share.shared
(** [udiv ctx ?qw ~w ~wd x d] = (quotient, remainder) of the [w]-bit [x]
    by a secret divisor below [2^wd] ([wd] is clamped to [[1, w]]). When
    the caller knows the quotient is below [2^qw] ([qw] is clamped to
    [[1, w]], default [w]), the top [w - qw] bits of [x] are below the
    divisor: they seed the partial remainder and only [qw] iterations
    run. Takes {!udiv_rounds} online rounds. A quotient that breaks the
    bound, and division by zero, give unspecified output. *)

val udiv_rounds : w:int -> wd:int -> ?qw:int -> unit -> int
(** Closed-form online round count of {!udiv} (with round fusion on), a
    function of the public [(w, wd, qw)] only. *)

val udiv_pub :
  Ctx.t -> w:int -> Share.shared -> int -> Share.shared * Share.shared
(** [udiv_pub ctx ~w x d] = (quotient, remainder) of the [w]-bit [x] by
    the public constant [d]. Takes {!pub_rounds}[ ~w d] online rounds, a
    function of the public [(w, d)] only.
    @raise Invalid_argument if [d < 1]. *)

val pub_rounds : w:int -> int -> int
(** Closed-form online round count of {!udiv_pub} (with round fusion on):
    0 for [d = 1], powers of two and [d >= 2^w]. *)
