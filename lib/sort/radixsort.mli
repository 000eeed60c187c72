(** ORQ's hybrid oblivious radixsort (§3.2, Appendix B, Protocol 10):
    per-bit stable sorting permutations applied *eagerly* to the whole
    working table (Bogdanov-style) through the efficient
    elementwise-permutation application of Asharov et al. — trading a
    little bandwidth for [7(l-1)] fewer rounds than the compose-based
    protocol (up to 1.44x faster in the paper). Stable; descending order
    flips each bit, preserving stability. *)

open Orq_proto

type dir = Asc | Desc

val sort_c :
  Ctx.t -> bits:int -> ?skip:int -> ?dir:dir -> Share.chunked ->
  Share.chunked list -> Share.chunked * Share.chunked list
(** [sort_c ctx ~bits ?skip ~dir key carry] stably sorts rows
    [(key, carry...)] on the [bits] key bits starting at bit [skip]. The
    columns stream chunk at a time; only the packed 1-bit-per-row flag
    column and the ranking permutation are whole. The wire cost does not
    depend on the chunking. *)

val sort :
  Ctx.t -> bits:int -> ?skip:int -> ?dir:dir -> Share.shared ->
  Share.shared list -> Share.shared * Share.shared list
(** {!sort_c} on whole vectors. *)
