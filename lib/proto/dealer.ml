(** Preprocessing correlations (trusted-dealer simulation).

    The real ORQ generates its input-independent correlated randomness with
    libOTe (random OTs -> OLE correlations and Beaver triples) and the
    permutation-correlation technique of Peceny et al. This repository
    substitutes a trusted dealer that emits the same correlations directly
    (see DESIGN.md): the *online* protocols consuming them are unchanged, and
    the paper itself reports online time for the dishonest-majority protocol.
    Dealer traffic is metered on [ctx.preproc], never on the online counter. *)

open Orq_util

(* Each correlation delivered to a party is metered as if the dealer sent it:
   [vectors] share vectors of [n] elements of [width] bits. *)
let meter_preproc (ctx : Ctx.t) ~vectors ~n ~width =
  Orq_net.Comm.round ctx.preproc ~bits:(vectors * n * width) ~messages:ctx.parties

type triple = { ta : Share.shared; tb : Share.shared; tc : Share.shared }

(** A Beaver multiplication triple [c = a * b] (arithmetic) or
    [c = a AND b] (boolean) over [n] ring words, secret-shared. Used by
    the 2PC protocol. Preprocessing is charged for [elems] logical
    elements: [n] for a word sharing, the flag count for packed flags
    (whose [n] words carry 63 flags each). *)
let beaver (ctx : Ctx.t) enc ~elems n : triple =
  let a = Prg.words ctx.prg n and b = Prg.words ctx.prg n in
  let c =
    match (enc : Share.enc) with
    | Arith -> Vec.mul a b
    | Bool -> Vec.band a b
  in
  meter_preproc ctx ~vectors:(3 * ctx.nvec) ~n:elems ~width:ctx.ell;
  { ta = Share.share ctx enc a; tb = Share.share ctx enc b; tc = Share.share ctx enc c }

type dabits = { da_bool : Share.flags; da_arith : Share.shared }

(** daBits: random bits [r] shared simultaneously as boolean flags
    (packed, {!Share.flags}) and as arithmetic 0/1 values. These drive the
    protocol-agnostic bit conversions in {!Orq_circuits.Convert}. The bits
    and their boolean sharing are drawn per word (63 flags per PRG call);
    arithmetic sharings have no packed form, so that side stays per
    element. *)
let dabits (ctx : Ctx.t) n : dabits =
  let r = Bits.random ctx.prg n in
  meter_preproc ctx ~vectors:(2 * ctx.nvec) ~n ~width:(ctx.ell + 1);
  {
    da_bool = Share.share_flags ctx r;
    da_arith = Share.share ctx Arith (Bits.unpack r);
  }

type edabits = { ed_arith : Share.shared; ed_bool : Share.shared }

(** Extended daBits: random ring elements [r] shared both arithmetically and
    booleanly; the standard correlation behind A2B conversion. *)
let edabits (ctx : Ctx.t) n : edabits =
  let r = Prg.words ctx.prg n in
  meter_preproc ctx ~vectors:(2 * ctx.nvec) ~n ~width:(2 * ctx.ell);
  { ed_arith = Share.share ctx Arith r; ed_bool = Share.share ctx Bool r }

(** A secret-shared random vector unknown to every party (e.g. masks for
    padding). *)
let random_shared (ctx : Ctx.t) enc n : Share.shared =
  let r = Prg.words ctx.prg n in
  meter_preproc ctx ~vectors:ctx.nvec ~n ~width:ctx.ell;
  Share.share ctx enc r
