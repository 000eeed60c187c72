(** Oblivious bitonic sorting network — the O(n log² n) approach of
    Secrecy and TEE systems (§6), kept as a baseline. Requires a
    power-of-two row count; handles duplicates; not stable. The
    [(column, width)] keys sort ascending. *)

open Orq_proto

val sort :
  Ctx.t -> keys:(Share.shared * int) list -> Share.shared list ->
  Share.shared list * Share.shared list
