(** Oblivious bitonic sorting network — the O(n log² n) approach of
    Secrecy and TEE systems (§6), kept as a baseline. Requires a
    power-of-two row count; handles duplicates; not stable. *)

open Orq_proto

type dir = Asc | Desc

type key = { col : Share.shared; width : int; dir : dir }

val sort :
  Ctx.t -> keys:key list -> Share.shared list ->
  Share.shared list * Share.shared list
