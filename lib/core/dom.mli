(** Public value domains: the closed interval [lo, hi] every valid row of
    a column lies in. Base columns declare theirs as schema metadata;
    derived columns get theirs by interval arithmetic. A column's width is
    read off its domain. Bounds saturate instead of wrapping, and a domain
    wider than {!max_width} bits is {!Refused}. *)

type t = { lo : int; hi : int }

exception Refused of string
(** An expression or aggregate whose public bound exceeds the ring; the
    message names it and its bound. *)

val v : int -> int -> t
(** [v lo hi]; raises [Invalid_argument] if [lo > hi]. *)

val point : int -> t
val zero : t

val of_width : int -> t
(** Every unsigned [w]-bit value. *)

val signed : t -> bool
(** [lo < 0]: the column holds two's-complement values. *)

val width : t -> int
(** Bits that hold every value: unsigned when [lo >= 0], two's complement
    otherwise; at least one. *)

val mem : int -> t -> bool
val hull : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Quotient of unsigned operands: [[0, a.hi / max 1 b.lo]]. *)

val div_pub : t -> int -> t
(** Quotient of an unsigned operand by a public divisor [d >= 1]. *)

val sum : n:int -> t -> t
(** A sum of at most [n] values of the domain, empty sums included. *)

val max_width : int
(** Two bits below the ring word. *)

val to_string : t -> string

val check : what:string -> t -> t
(** The domain itself when it fits {!max_width} bits.
    @raise Refused naming [what] and the bound otherwise. *)
