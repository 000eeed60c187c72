(** Conversions between arithmetic and boolean sharings (§2.3) —
    protocol-agnostic, consuming dealer correlations (daBits / edaBits)
    plus generic openings and adder circuits. *)

open Orq_proto

val bit_b2a_many : Ctx.t -> Share.flags array -> Share.shared array
(** Packed single-bit flags to arithmetic 0/1 sharings, lane by lane; all
    lane openings share one fused width-1 round:
    c = open(b xor r), [b]_A = c + [r]_A (1 - 2c), with packed daBit masks
    and bulk word xors. The one B2A core. *)

val bit_b2a : Ctx.t -> Share.flags -> Share.shared
(** Packed flags to an arithmetic 0/1 sharing: a one-lane
    {!bit_b2a_many}. *)

val b2a : ?w:int -> ?signed:bool -> Ctx.t -> Share.shared -> Share.shared
(** Full-width boolean-to-arithmetic conversion over packed bit planes:
    the [w] planes form one flag lane of [w * n] for {!bit_b2a_many}
    (one daBit draw, one opening round), recombined locally. With
    [~signed:true] the [w]-bit value is two's complement (the top bit
    weighs -2^(w-1)); default unsigned. *)

val a2b : ?w:int -> Ctx.t -> Share.shared -> Share.shared
(** Arithmetic-to-boolean: mask with a doubly shared random value
    (edaBits), open x + r, subtract [r] in a boolean adder. Correct modulo
    2^w (two's complement for negatives). *)

val a2b_many : Ctx.t -> (Share.shared * int) array -> Share.shared array
(** k independent A2B conversions (lanes are (x, width)): one fused
    opening round plus a max-lane-depth lockstep adder. *)
