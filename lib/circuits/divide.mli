(** Oblivious integer division. A secret divisor runs the paper's
    non-restoring circuit (§5.1): [w] iterations of shift-and-add with a
    sign-selected ±divisor, the remainder carried at the divisor's width
    plus two bits. A public divisor runs the cheaper of a narrow
    non-restoring loop and a carry-save digit split, chosen from [(w, d)]
    alone; powers of two are local. Quotient bits need no correction, a
    negative final remainder gets +D. Inputs are unsigned [w]-bit boolean
    sharings. *)

open Orq_proto

val udiv :
  Ctx.t -> w:int -> wd:int -> Share.shared -> Share.shared ->
  Share.shared * Share.shared
(** [udiv ctx ~w ~wd x d] = (quotient, remainder) of the [w]-bit [x] by a
    secret divisor below [2^wd] ([wd] is clamped to [[1, w]]); division
    by zero is unspecified. *)

val udiv_pub :
  Ctx.t -> w:int -> Share.shared -> int -> Share.shared * Share.shared
(** [udiv_pub ctx ~w x d] = (quotient, remainder) of the [w]-bit [x] by
    the public constant [d]. Takes {!pub_rounds}[ ~w d] online rounds, a
    function of the public [(w, d)] only.
    @raise Invalid_argument if [d < 1]. *)

val pub_rounds : w:int -> int -> int
(** Closed-form online round count of {!udiv_pub} (with round fusion on):
    0 for [d = 1], powers of two and [d >= 2^w]. *)
