(** [genBitPerm] (Asharov et al.) over L-bit digits: the elementwise
    sharing of a secret digit vector's *stable* sorting permutation — rows
    ordered by digit value, original order preserved within each value.

    With the one-hot digit e_d, running counts s_d = prefix_sum e_d and
    class offsets C_d = N_0 + ... + N_{d-1}, the destination is
    t_0 + sum_{d >= 1} e_d (t_d - t_0) - 1 where t_d = C_d + s_d. Prefix
    sums and offsets are local; the online cost is one fused bit
    conversion, one round of one-hot products per degree 2 .. L (one
    product at L = 2; three, then the triple product, at L = 3), and the
    sum as one inner product ({!Mpc.dot}) at
    {!Orq_util.Ring.index_bits}[ n] for [n] rows, exact because every
    destination is below [n] <= 2^k and reduction modulo 2^k is a ring
    homomorphism: 2 rounds for a bit, 3 for a 2-bit digit, 4 for a 3-bit
    one, under every protocol ({!Primcost.rank_digit}). *)

open Orq_proto

val broadcast_last : Share.shared -> Share.shared
(** Broadcast the last element of a sharing to every position (linear);
    an empty sharing stays empty. *)

val gen_digit : Ctx.t -> Share.flags array -> Share.shared
(** [gen_digit ctx flags]: arithmetic elementwise sorting permutation of
    the 1-, 2- or 3-bit digit whose bits, least significant first, are the
    packed flag vectors [flags]; any other count raises
    [Invalid_argument]. With one flag this is genBitPerm. *)

val gen_digit_of : Ctx.t -> Share.shared array -> Share.shared
(** {!gen_digit} from bits already converted to 0/1 arithmetic sharings,
    least significant first: the ranking alone, 1 round for a bit, 2 for
    a 2-bit digit and 3 for a 3-bit one. *)
