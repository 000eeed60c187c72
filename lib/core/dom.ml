(** Public value domains: the closed integer interval [lo, hi] every
    valid row of a column lies in.

    A base column's domain is data-owner metadata declared next to the
    schema (keys bounded by a table's public cardinality); a derived
    column's follows from its operands' by interval arithmetic. The
    column's width is read off its domain, so circuits run no wider than
    the public data needs. Bounds saturate at the native integer range
    instead of wrapping, and any domain wider than {!max_width} bits is
    refused before it is evaluated. *)

type t = { lo : int; hi : int }

exception Refused of string

let v lo hi =
  if lo > hi then invalid_arg (Printf.sprintf "Dom.v: empty interval [%d, %d]" lo hi);
  { lo; hi }

let point c = { lo = c; hi = c }
let zero = point 0

(* Bits of a non-negative integer: 0 for 0. *)
let bitlen x =
  let rec go k x = if x = 0 then k else go (k + 1) (x lsr 1) in
  go 0 x

(** [of_width w]: every unsigned [w]-bit value (a full word's as the
    non-negative native range). *)
let of_width w = { lo = 0; hi = Orq_util.Ring.mask (min w (Orq_util.Ring.word_bits - 1)) }

let signed d = d.lo < 0

(** Bits that hold every value of [d]: unsigned when [lo >= 0], two's
    complement otherwise; at least one. *)
let width d =
  if d.lo >= 0 then max 1 (bitlen d.hi)
  else 1 + max (bitlen (max 0 d.hi)) (bitlen (lnot d.lo))

let mem x d = d.lo <= x && x <= d.hi
let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

(* Saturating arithmetic: an overflowing bound pins to the native range
   and then fails {!check}. *)
let sat_add a b =
  let s = a + b in
  if a >= 0 && b >= 0 && s < 0 then max_int
  else if a < 0 && b < 0 && s >= 0 then min_int
  else s

let sat_neg a = if a = min_int then max_int else -a

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else
    let mag x = if x = min_int then max_int else abs x in
    if mag a > max_int / mag b then if (a < 0) <> (b < 0) then min_int else max_int
    else a * b

let add a b = { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
let sub a b = { lo = sat_add a.lo (sat_neg b.hi); hi = sat_add a.hi (sat_neg b.lo) }

let mul a b =
  let ps = [ sat_mul a.lo b.lo; sat_mul a.lo b.hi; sat_mul a.hi b.lo; sat_mul a.hi b.hi ] in
  { lo = List.fold_left min max_int ps; hi = List.fold_left max min_int ps }

(** The quotient of unsigned [a] by unsigned [b]: at most [a.hi] over the
    least non-zero divisor (a zero divisor's output is unspecified). *)
let div a b = { lo = 0; hi = a.hi / max 1 b.lo }

(** The quotient of unsigned [a] by the public [d >= 1]. *)
let div_pub a d = { lo = a.lo / d; hi = a.hi / d }

(** A sum of at most [n] values of [d], empty sums included. *)
let sum ~n d = { lo = sat_mul n (min d.lo 0); hi = sat_mul n (max d.hi 0) }

(** The widest domain the engine evaluates: two bits below the ring word,
    so an unsigned operand read under a signed comparison gains its sign
    bit and still fits. *)
let max_width = Orq_util.Ring.word_bits - 2

(* A saturated end reads as what it stands for: beyond the native range. *)
let to_string d =
  let bound x =
    if x = max_int then "2^62 or more" else if x = min_int then "-2^62 or less" else string_of_int x
  in
  Printf.sprintf "[%s, %s]" (bound d.lo) (bound d.hi)

(** [check ~what d] is [d] when it fits {!max_width} bits; otherwise
    raises {!Refused} naming [what] and its bound. *)
let check ~what d =
  if width d <= max_width then d
  else
    let bits =
      if d.hi = max_int || d.lo = min_int then "over 62 bits"
      else Printf.sprintf "%d bits" (width d)
    in
    raise
      (Refused
         (Printf.sprintf "%s: bound %s needs %s, the ring holds %d" what
            (to_string d) bits max_width))
