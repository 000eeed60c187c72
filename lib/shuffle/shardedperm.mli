(** Sharded permutations (Appendix A.3): a secret permutation as a
    composition of local permutations, each known to one shuffle group but
    none to the adversary. Generation is PRG-based for the honest-majority
    protocols and uses preprocessing permutation correlations (Peceny et
    al.) in 2PC; application is permute-and-reshare per component, metered
    at the paper's Table 1 totals. The Mal-HM redundant resharing detects
    tampering. *)

open Orq_proto

type t = {
  n : int;
  components : int array array;  (** applied left to right *)
}

val gen : Ctx.t -> int -> t
(** Random sharded permutation of [n] elements (2PC correlations charged
    to preprocessing). *)

val skip : Ctx.t -> int -> unit
(** [skip ctx n] advances [ctx.perm_prg] exactly as [gen ctx n] would,
    without keeping the permutation or charging preprocessing. *)

val plaintext : t -> int array
(** The underlying permutation — test-only; no party could compute it. *)

val apply :
  ?inverse:bool -> Ctx.t -> (Share.chunked * int) list -> t ->
  Share.chunked list
(** Apply the permutation (or with [~inverse:true] its inverse) to several
    [(column, width)] pairs under one application: the rounds of a single
    column, bits Σ over the columns of the Table 1 cost at each column's
    width — what lets TableSort permute a whole table once.

    Width contract: every column states the width it travels at.
    - A boolean column takes any width in [1, ctx.ell]. Each receiving
      party keeps the low [width] bits of its shares (a local GF(2)-linear
      step folded into the resharing pass), so the output holds exactly
      what a [width]-bit wire delivers: a declared width below the data's
      true width yields a wrong answer, never silently under-metered
      traffic. Under [ORQ_DEBUG_CHECKS] each narrowed column is
      reconstructed first and raises [Invalid_argument] naming its
      position and width if a value does not fit.
    - An arithmetic column takes any width [w] in [1, ctx.ell] too. Each
      receiving party keeps its shares modulo 2^w (the sharing's value
      modulo 2^w, all a [w]-bit lane carries), so a narrowed lane is
      defined modulo 2^w only and reads back through a [w]-bit
      conversion. The exception is an elementwise-permutation index
      vector over n rows, at {!Orq_util.Ring.index_bits}[ n]: its values
      are below n, it is metered in the index ring and left unmasked, and
      under [ORQ_DEBUG_CHECKS] it is reconstructed and checked to fit
      like a narrowed boolean column. Any width outside [1, ctx.ell]
      raises [Invalid_argument].

    The permute and per-component resharing run chunk at a time, a column
    after another, so a tracked column streams through the
    {!Orq_util.Chunkvec} store with cold chunks evictable, and a whole
    ({!Share.wrap}ped) vector is one chunk. Metering is charged once at
    the logical-vector level, whatever the chunking. *)

val apply_open :
  ?label:string -> Ctx.t -> opened:(Share.chunked * int) list ->
  (Share.chunked * int) list -> t -> Orq_util.Vec.t list * Share.chunked list
(** [apply_open ctx ~opened cols p] applies [p] to the [opened] and [cols]
    pairs as one application (under {!apply}'s width contract) and opens
    the [opened] lanes, which that application produced; returns the
    opened vectors and the permuted [cols]. An opened arithmetic lane
    must be at [ctx.ell] or an index vector; a narrowed one raises
    [Invalid_argument].

    Under SH-HM the opening rides the last pass: its two senders send
    their halves of the fresh 2-of-2 split of each opened lane to both
    other parties, so the application keeps its 3 rounds, an opened lane
    costs 8wn bits (against 9wn and a fourth round for a reshare then an
    opening) and the round carries 8 messages. Under SH-DM and Mal-HM it
    is {!apply} then one fused {!Mpc.open_many}, transcript for
    transcript. [label], if given, wraps the application (and so the
    SH-HM opening) but not a separate opening round. *)
