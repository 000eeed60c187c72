(** Oblivious multiplexers (§3.1): [b ? y : x] without revealing [b]. The
    condition [b] is always packed flags ({!Share.flags}), extended to a
    mux mask locally. *)

open Orq_proto

val mux_b :
  ?width:int -> Ctx.t -> Share.flags -> Share.shared -> Share.shared ->
  Share.shared
(** Boolean mux; one AND round. *)

val mux_b_many :
  ?width:int -> Ctx.t -> Share.flags ->
  (Share.shared * Share.shared) list -> Share.shared list
(** Mux several columns under one condition in a single round. *)

val select_many :
  ?widths:int array -> Ctx.t ->
  (Share.flags * Share.shared * Share.shared) array -> Share.shared array
(** k independent muxes (lane i is (b, x, y), selecting [b ? y : x]) with
    per-lane widths, their AND legs fused into one round. *)
