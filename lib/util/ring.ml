(** Ring arithmetic over Z_2^63, the ring of native OCaml integers.

    All ORQ secret sharing is defined over the ring Z_2^ell. We fix the
    machine word to the native [int] (63 bits on 64-bit platforms), whose
    [+], [-], [*] operations wrap modulo 2^63 in two's complement, giving us
    the ring operations for free on unboxed arrays. Narrower widths
    (ell < 63) are handled by masking where a protocol requires it; metering
    is parameterized on the logical bit width separately (see {!Orq_net.Comm}).
*)

(** Number of bits in the ring word. *)
let word_bits = Sys.int_size (* 63 on 64-bit platforms *)

(** All-ones word: the ring element 2^63 - 1, also the full bit mask. *)
let ones = -1

(** [mask ell] is a word with the low [ell] bits set. [ell] must be in
    [0, word_bits]. *)
let mask ell =
  assert (ell >= 0 && ell <= word_bits);
  if ell = word_bits then ones else (1 lsl ell) - 1

(** [to_signed x] reinterprets the ring element as a signed integer, which
    for native ints is the identity. Kept for documentation symmetry. *)
let to_signed (x : int) = x

(** [popcount x] counts set bits. *)
let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

(** [log2_ceil n] is the smallest [k] with [2^k >= n]; [log2_ceil 0 = 0]. *)
let log2_ceil n =
  let rec go k p = if p >= n then k else go (k + 1) (p * 2) in
  if n <= 1 then 0 else go 0 1

(** [index_bits n] is the width of an index into a public length-[n]
    vector: [log2_ceil n] bits hold every value below [n], and at least
    one bit is kept so that a length-1 vector still has a width. *)
let index_bits n = max 1 (log2_ceil n)

(** [next_pow2 n] is the smallest power of two [>= n] (and [>= 1]). *)
let next_pow2 n = 1 lsl log2_ceil n

(** [is_pow2 n]. *)
let is_pow2 n = n > 0 && n land (n - 1) = 0
