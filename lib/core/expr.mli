(** Expression combinators for filters and derived columns (§2.2),
    compiled into oblivious circuit evaluations. Numeric subexpressions
    carry a public domain ({!Dom}) by interval arithmetic, and their width
    and signedness follow from it; comparisons switch to the signed
    comparator when needed, sign-extending narrower boolean operands
    locally. An expression whose bound exceeds the ring is refused before
    it is evaluated. *)

open Orq_proto

type num =
  | Col of string
  | Const of int
  | Add of num * num
  | Sub of num * num
  | Mul of num * num
  | Div of num * num
      (** private divisor: non-restoring circuit; [k·x / y] with a
          {!Table.fact} [Le (x, y)] runs only [bitlen k] quotient bits *)
  | Div_pub of num * int
      (** public divisor: multiply-high on an unsigned arithmetic
          dividend, the boolean circuits otherwise *)
  | If of pred * num * num  (** oblivious CASE WHEN (multiplexed) *)

and pred =
  | Cmp of [ `Eq | `Neq | `Lt | `Le | `Gt | `Ge ] * num * num
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | True

(** {2 Convenience constructors} *)

val col : string -> num
val const : int -> num
val ( +! ) : num -> num -> num
val ( -! ) : num -> num -> num
val ( *! ) : num -> num -> num
val ( ==. ) : num -> num -> pred
val ( <>. ) : num -> num -> pred
val ( <. ) : num -> num -> pred
val ( <=. ) : num -> num -> pred
val ( >. ) : num -> num -> pred
val ( >=. ) : num -> num -> pred
val ( &&. ) : pred -> pred -> pred
val ( ||. ) : pred -> pred -> pred

(** {2 Public bounds} *)

val bound : col:(string -> Dom.t) -> le:(string -> string -> bool) -> num -> Dom.t
(** The domain of an expression from its columns' domains and the
    row-wise facts [le a b] ({!Table.fact} [Le]): Const is its point,
    Add/Sub/Mul interval arithmetic, If the hull of its branches, Div the
    interval quotient of unsigned operands (at most [k] for [k·x / y]
    when [le x y]), Div_pub the quotient's interval; a signed dividend
    divides as its bit pattern.
    @raise Dom.Refused naming the first subexpression wider than the ring. *)

val bound_pred : col:(string -> Dom.t) -> le:(string -> string -> bool) -> pred -> unit
(** {!bound} on every comparison operand. *)

(** {2 Evaluation} *)

val eval_pred : Table.t -> pred -> Share.flags
(** The predicate per row, as packed flags.
    @raise Dom.Refused before any share moves, as {!bound_pred}. *)

val eval_col : Table.t -> num -> Column.t
(** Evaluate into a fresh boolean-encoded column at its domain's width.
    @raise Dom.Refused before any share moves, as {!bound}. *)
