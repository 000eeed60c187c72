(** Packed single-bit vectors: one flag per bit, {!Ring.word_bits} (= 63)
    flags per ring word.

    Canonical form: bits at positions [>= n] in the last word are zero —
    preserved by every operation here, so word equality is exact. {!words} exposes the underlying word array so the MPC layer
    can run the fused {!Vec} protocol kernels directly over packed words;
    treat it as read/write shared state, not a copy. *)

type t = { n : int; w : int array }

val bpw : int
(** Flags per word (= {!Ring.word_bits} = 63 on 64-bit platforms). *)

val length : t -> int
val words : t -> int array
val of_words : int -> int array -> t
(** Wrap a raw word array (takes ownership; tail re-masked to canonical
    form). The array must have exactly ⌈n / bpw⌉ words. *)

val copy : t -> t
val get : t -> int -> int

val pack : int array -> t
(** Pack the LSB of each element of a word vector. *)

val pack_bit : int array -> int -> t
(** [pack_bit v k] packs bit [k] of each element — fused radix-digit
    extraction straight into packed form. *)

val unpack : t -> int array
(** Unpack to a 0/1 word vector. *)

val extend : t -> int array
(** Unpack each flag to a 0 / all-ones word — packed-to-mux-mask in one
    pass. *)

val xor : t -> t -> t
val bnot : t -> t
val xor_into : t -> t -> unit
val xor3 : t -> t -> t -> t

val random : Prg.t -> int -> t
(** [random prg n]: n uniform flags from ⌈n / bpw⌉ PRG draws (one call
    per 63 flags instead of one per flag). *)

val concat_many : t array -> t
(** The flags of each input in order, one word-level pass per input. *)
