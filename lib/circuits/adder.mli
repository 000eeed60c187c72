(** Sklansky addition and subtraction over boolean shares. A [w]-bit sum
    reads only the carries into bits [1, w), so the prefix runs over the
    [w − 1] carry positions and the top carry is never formed; a
    position's propagate is formed only where a later level reads it. A
    shared-operand sum costs a generate AND at [w − 1] bits (none when
    [w = 1]) plus ⌈log₂(w − 1)⌉ prefix levels; a public operand makes the
    generate local. Each level is one AND lane per adder metered at its
    live positions ({!Orq_proto.Primcost.add} prices it). Backs A2B
    conversion, division, and arithmetic on boolean columns. The [_many]
    entry points run k independent adder lanes in lockstep — each prefix
    level is one fused round across lanes, so batched depth is the max
    lane depth. *)

open Orq_proto

val add :
  ?cin:bool -> Ctx.t -> w:int -> Share.shared -> Share.shared ->
  Share.shared
(** Boolean-shared sum modulo 2^w (optional public carry-in). *)

val add_many :
  ?cin:bool -> Ctx.t -> (Share.shared * Share.shared * int) array ->
  Share.shared array
(** k independent sums (lanes are (x, y, width)) in max-lane-depth fused
    rounds; [cin] applies to every lane. *)

val sub : Ctx.t -> w:int -> Share.shared -> Share.shared -> Share.shared
(** x - y = x + not y + 1, modulo 2^w. *)

val add_pub :
  ?cin:bool -> Ctx.t -> w:int -> Share.shared -> Orq_util.Vec.t ->
  Share.shared
(** Addition with a public operand (the generate is local). *)

val sub_pub_minuend :
  Ctx.t -> w:int -> Orq_util.Vec.t -> Share.shared -> Share.shared
(** Public vector minus shared value — the A2B finishing step. *)

val sub_pub_minuend_many :
  Ctx.t -> (Orq_util.Vec.t * Share.shared * int) array -> Share.shared array
(** k independent public-minus-shared subtractions (lanes are (c, y,
    width)) — the fused A2B finishing step. *)

val sub_pub : Ctx.t -> w:int -> Share.shared -> Orq_util.Vec.t -> Share.shared

val neg : Ctx.t -> w:int -> Share.shared -> Share.shared
(** Two's-complement negation (0 - x). *)
