(** Non-vectorized radixsort baseline, standing in for MP-SPDZ's
    radixsort (Figure 7, Table 11) and SecretFlow's SBK sorts (Figure 6,
    Table 10): the same genBitPerm + eager-application algorithm, but with
    secure operations issued row by row — each conversion and
    multiplication is its own round and its own small framed message,
    the execution profile the paper attributes the baselines' gaps to. *)

open Orq_proto

val sort :
  Ctx.t -> bits:int -> Share.shared -> Share.shared list ->
  Share.shared * Share.shared list
