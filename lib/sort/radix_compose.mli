(** The compose-based radixsort of Asharov et al. (CCS'22), reimplemented
    as in the paper's Appendix B.3 comparison: per-bit sorting
    permutations are composed into a running elementwise permutation and
    the data moves only once — fewer bytes for very wide elements, more
    rounds (under SH-HM [11 l - 6] vs the hybrid's 7 per 3 key bits).
    Ranks 1-bit digits under every protocol. *)

open Orq_proto

val sort_with_perm :
  Ctx.t -> bits:int -> ?skip:int -> Share.shared ->
  Share.shared list -> (Share.shared * Share.shared list) * Share.shared
(** As {!sort}, also returning the composed sorting permutation. *)

val sort :
  Ctx.t -> bits:int -> ?skip:int -> Share.shared ->
  Share.shared list -> Share.shared * Share.shared list
