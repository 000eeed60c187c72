(** Expression combinators for filters and derived columns (§2.2),
    compiled into oblivious circuit evaluations. Numeric subexpressions
    track bit width and signedness; comparisons switch to the signed
    comparator when needed, sign-extending narrower boolean operands
    locally. *)

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
  | Div_pub of num * int  (** public divisor *)
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
val ( /! ) : num -> num -> num
val ( ==. ) : num -> num -> pred
val ( <>. ) : num -> num -> pred
val ( <. ) : num -> num -> pred
val ( <=. ) : num -> num -> pred
val ( >. ) : num -> num -> pred
val ( >=. ) : num -> num -> pred
val ( &&. ) : pred -> pred -> pred
val ( ||. ) : pred -> pred -> pred
val not_ : pred -> pred

(** {2 Evaluation} *)

type value = { data : Share.shared; width : int; signed : bool }

val eval_pred : Table.t -> pred -> Share.flags
(** The predicate per row, as packed flags. *)

val eval_col : Table.t -> num -> Column.t
(** Evaluate into a fresh boolean-encoded column. *)
