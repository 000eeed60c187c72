(** Attach a real transport to a protocol context (DESIGN.md, "Real
    multi-party deployment").

    Installing a {!Orq_net.Comm.channel} on [ctx.comm] makes every metered
    online round drive an actual on-the-wire exchange; the engine itself
    ([Mpc]/[Share]/operators) is unchanged. Preprocessing stays virtual
    (dealer-simulated), matching the paper's phase separation. *)

type t = Orq_net.Comm.channel = {
  ch_round : bits:int -> messages:int -> unit;
  ch_traffic : bits:int -> messages:int -> unit;
  ch_barrier : int -> unit;
  ch_refund : int -> unit;
}

val attach : Ctx.t -> t -> unit
(** Install the channel on the online meter ([ctx.comm]). *)

val detach : Ctx.t -> unit

val with_channel : Ctx.t -> t -> (unit -> 'a) -> 'a
(** Run a thunk with the channel installed, detaching on exit
    (exception-safe). @raise Invalid_argument if one is already attached —
    channels do not nest. *)
