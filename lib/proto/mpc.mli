(** Black-box MPC functionalities (§2.4): vectorized [+], [-], [×], [⊕],
    [∧], constants, and metered opening, instantiated for the three
    supported protocols. Everything above this module — circuits,
    shuffling, sorting, relational operators — uses only these functions,
    which is what makes ORQ protocol-agnostic.

    [bits] metering counts traffic summed over all parties; interactive
    primitives take an optional [?width] (default [ctx.ell]) giving the
    logical element width, so e.g. an AND of single-bit validity flags is
    charged 1 bit per element. *)

type shared = Share.shared

(** {2 Cross-lane round fusion}

    Each interactive primitive has one core per protocol, written over k
    independent lanes: the [_many] entry points run their lanes as one
    metered communication round (lane 0 opens the round, the others
    piggyback their bits and messages), and the single-operand entry points
    ([mul], [band], [open_], [band_f], [open_f], ...) are one-lane calls of
    the same cores. Correlations are drawn per lane in lane order, so a
    k-lane call consumes exactly the PRG stream and charges exactly the
    bits and messages of k one-lane calls; only the round count differs. *)

val fuse_rounds : Ctx.t -> (unit -> 'a) array -> 'a array
(** Run data-independent operation tracks sequentially (identical dealer
    draws and opened values) with their online rounds merged round by
    round ({!Orq_net.Comm.fuse}): the total charged is the deepest track,
    not the sum, and an attached channel exchanges exactly those rounds.
    Bits and messages keep their exact sequential tallies. The caller
    asserts no track depends on another's result. *)

(** {2 Input / constants (data-owner side; unmetered)} *)

val share_a : Ctx.t -> Orq_util.Vec.t -> shared
val share_b : Ctx.t -> Orq_util.Vec.t -> shared

(** {2 Local linear operations} *)

val add : shared -> shared -> shared
val sub : shared -> shared -> shared
val neg : shared -> shared

val add_pub : shared -> int -> shared
(** Add a public constant (affects one share vector). *)

val add_pub_vec : shared -> Orq_util.Vec.t -> shared

val mul_pub : shared -> int -> shared
(** Multiply by a public constant (scales every share vector). *)

val mul_pub_vec : shared -> Orq_util.Vec.t -> shared
val xor : shared -> shared -> shared
val xor_pub : shared -> int -> shared
val xor_pub_vec : shared -> Orq_util.Vec.t -> shared

val and_mask : shared -> int -> shared
(** Bitwise AND with a public mask (linear over GF(2)). *)

val and_mask_vec : shared -> Orq_util.Vec.t -> shared
val lshift : shared -> int -> shared
val rshift : shared -> int -> shared

val bnot : shared -> shared
(** Bitwise NOT over the full word (circuits mask to their width). *)

(** {2 Opening (reveal to all computing parties)} *)

val open_ : ?width:int -> Ctx.t -> shared -> Orq_util.Vec.t
(** Open a shared vector to all parties (a one-lane {!open_many}). Under
    [Mal_hm] every reconstructed vector is delivered redundantly (value +
    digest from distinct parties), so an injected sender corruption raises
    {!Ctx.Abort}. *)

val open_many : ?widths:int array -> Ctx.t -> shared array -> Orq_util.Vec.t array
(** Open several independent shared vectors in one fused round; each lane
    keeps its own width charge (default [ctx.ell]). *)

(** {2 Multiplication / AND} *)

val mul : ?width:int -> Ctx.t -> shared -> shared -> shared
(** Secure elementwise multiplication of arithmetic shares: Beaver (2PC),
    replicated cross-terms + resharing (3PC), redundantly verified
    cross-terms (4PC). One round each. *)

val band : ?width:int -> Ctx.t -> shared -> shared -> shared
(** Secure elementwise bitwise AND of boolean shares (same structures over
    GF(2)). *)

val mul_many :
  ?widths:int array -> Ctx.t -> shared array -> shared array -> shared array
(** k independent multiplications (possibly different lengths/widths) in
    one metered round. *)

val dot : ?width:int -> Ctx.t -> shared array -> shared array -> shared
(** [dot ?width ctx xs ys]: the elementwise inner product
    sum_i xs.(i) · ys.(i) of arithmetic term pairs of one length, in one
    round. Under SH-HM and Mal-HM every party sums its cross terms of all
    the terms before the one reshare, so the sum is metered as one
    multiplication lane at [width] (default [ctx.ell]) and a Mal-HM
    tamper of any cross term aborts as {!mul}'s does; under SH-DM it is
    one Beaver lane per term and a local sum. *)

val band_many :
  ?widths:int array -> Ctx.t -> shared array -> shared array -> shared array
(** k independent ANDs in one metered round. *)

val bor_many :
  ?widths:int array -> Ctx.t -> shared array -> shared array -> shared array
(** k independent ORs in one metered round (fused AND + local xor3). *)

(** {2 Packed single-bit flag lanes}

    Boolean primitives over {!Share.flags} (63 flags per word,
    {!Orq_util.Bits}). A packed sharing is a boolean sharing of its words,
    so the interactive ones run the word protocol cores over the word
    arrays: correlated randomness is drawn per packed *word* instead of
    per element, while each lane is metered per element at width 1 —
    byte-identical to the word primitives at [~width:1]. Every single-bit
    intermediate above this module (comparison results, group marks,
    predicates, mux conditions) is packed flags; only table columns such
    as validity stay 0/1 words ({!Share.pack_flags} at the boundary). *)

val xor_f : Share.flags -> Share.flags -> Share.flags
(** Lanewise xor (local, linear). *)

val bnot_f : Share.flags -> Share.flags
(** Flip every flag (xor with public all-ones). *)

val extract_bit_f : shared -> int -> Share.flags
(** Bit [k] of each element of a boolean sharing, extracted straight into
    packed lanes — fused [and_mask (rshift a k) 1] + {!Share.pack_flags}
    (linear over GF(2)). Mux masks come from {!Share.extend_flags}. *)

val band_f : Ctx.t -> Share.flags -> Share.flags -> Share.flags
(** Secure AND over packed flags: the protocol's word AND core over the
    packed words — one round, width-1 element charges, per-word
    Beaver/replicated randomness. *)

val band_f_many :
  Ctx.t -> Share.flags array -> Share.flags array -> Share.flags array
(** k independent packed ANDs in one fused round. *)

val bor_f_many :
  Ctx.t -> Share.flags array -> Share.flags array -> Share.flags array
(** k independent packed ORs in one fused round (fused AND + local
    xor3). *)

val open_f : Ctx.t -> Share.flags -> Orq_util.Bits.t
(** Open packed flags; metered exactly like [open_ ~width:1]. *)

val open_f_many : Ctx.t -> Share.flags array -> Orq_util.Bits.t array

val band_open_f :
  Ctx.t -> ?tail:Share.flags -> Share.flags -> Share.flags -> Orq_util.Bits.t
(** [band_open_f ctx ?tail x y] opens (x ∧ y) ⊕ tail in the AND's own
    round (SH-HM only): each party broadcasts its 3-of-3 additive AND
    output, xored with its share of [tail], to both peers — one round and
    6 bits per flag against two rounds for {!band_f} then {!open_f}.
    Raises [Invalid_argument] under the other protocols. *)

(** {2 Resharing and reductions} *)

val reshare_unmetered : Ctx.t -> mask:int -> shared -> shared
(** Rerandomize a sharing without changing the secret; traffic is metered
    by the caller (the shuffle protocols account whole-protocol totals). A
    boolean sharing keeps only the share bits under [mask] (the shares a
    party receives at a narrower wire width; GF(2)-linear, so the secret
    is masked alike); an arithmetic sharing keeps each share modulo
    [mask + 1] (a power of two), so its secret is defined modulo that
    only. *)

val reshare_open_unmetered :
  Ctx.t -> mask:int -> Share.chunked -> Orq_util.Vec.t
(** SH-HM only: the last pass of a permute-and-reshare delivered in the
    clear — both senders send their halves of the fresh 2-of-2 split to
    both other parties, so the vector (masked like {!reshare_unmetered})
    opens in the pass's own round. The randomness drawn is
    {!reshare_unmetered}'s; the traffic is metered by the calling
    permutation protocol, and the leakage lint admits only
    [Shardedperm.apply_open]. Raises [Invalid_argument] under the other
    protocols. *)

val sum_all : shared -> shared
(** Sum all elements into a 1-element arithmetic sharing (local). *)

val prefix_sum : shared -> shared
(** Local prefix sums on an arithmetic sharing. *)
