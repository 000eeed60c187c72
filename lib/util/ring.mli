(** Ring arithmetic over Z_2^63, the ring of native OCaml integers.

    All ORQ secret sharing is defined over the ring Z_2^ell; the machine
    word is the native [int] (63 bits on 64-bit platforms), whose
    arithmetic wraps modulo 2^63 in two's complement. Narrower widths are
    handled by masking; communication metering is parameterized on the
    logical bit width separately. *)

val word_bits : int
(** Number of bits in the ring word (63 on 64-bit platforms). *)

val ones : int
(** All-ones word: the ring element 2^63 - 1, also the full bit mask. *)

val mask : int -> int
(** [mask ell] is a word with the low [ell] bits set;
    [ell] must be in [0, word_bits]. *)

val to_signed : int -> int
(** Reinterpret a ring element as a signed integer (the identity for
    native ints; kept for documentation symmetry). *)

val popcount : int -> int
(** Number of set bits. *)

val log2_ceil : int -> int
(** [log2_ceil n] is the smallest [k] with [2^k >= n]; [log2_ceil 0 = 0]. *)

val index_bits : int -> int
(** [index_bits n = max 1 (log2_ceil n)]: the width of a permutation
    index, destination or position vector over [n] rows. Every such value
    is below [n], and [n] is public, so the width depends on public shape
    only. *)

val next_pow2 : int -> int
(** Smallest power of two [>= n] (and [>= 1]). *)

val is_pow2 : int -> bool
