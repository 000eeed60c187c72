(** Preprocessing correlations (trusted-dealer simulation).

    The real ORQ generates input-independent correlated randomness with
    libOTe; this repository substitutes a trusted dealer emitting the same
    correlations directly (DESIGN.md): the online protocols consuming them
    are unchanged. Dealer traffic is metered on [ctx.preproc], never on
    the online counter. *)

type triple = { ta : Share.shared; tb : Share.shared; tc : Share.shared }

val beaver : Ctx.t -> Share.enc -> elems:int -> int -> triple
(** [beaver ctx enc ~elems n]: a Beaver triple [c = a * b] (arithmetic)
    or [c = a AND b] (boolean) over [n] ring words, secret-shared; used by
    the 2PC protocol. Preprocessing is charged for [elems] logical
    elements — [n] for a word sharing, the flag count when the words are
    packed flags. *)

type dabits = { da_bool : Share.flags; da_arith : Share.shared }

val dabits : Ctx.t -> int -> dabits
(** Random bits shared simultaneously as packed boolean flags and as
    arithmetic 0/1 values; drives the protocol-agnostic bit conversions.
    The bits and their boolean sharing are drawn per word. *)

type edabits = { ed_arith : Share.shared; ed_bool : Share.shared }

val edabits : Ctx.t -> int -> edabits
(** Random ring elements shared both arithmetically and booleanly — the
    correlation behind A2B conversion. *)

val random_shared : Ctx.t -> Share.enc -> int -> Share.shared
(** A secret-shared random vector unknown to every party. *)
