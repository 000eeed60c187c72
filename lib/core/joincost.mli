(** Cost-based physical join selection (DESIGN.md, "Cost-based physical
    planning").

    The engine carries three physical equi-join operators — the sort-based
    join-aggregation ({!Joinagg}, §3.3), the LINQ-style linear join
    ({!Linjoin}) and the quadratic oblivious baseline — and this module is
    the planner that picks between them: closed-form (rounds, bits,
    messages) estimates per candidate as a function of {b public shape
    only} (protocol kind, input cardinalities, column widths), compared as
    modeled network time under the active pacing profile.

    Because every input is public shape, the choice is a deterministic
    function of (kind, shape, mode, profile): the transcript certifier's
    shape-twin run selects the same operator as the measured run, and the
    recorded transcripts stay event-identical. The estimates are composed
    from the primitive price list {!Orq_proto.Primcost}; they are planning
    costs — ordering-faithful, not byte-exact; the certifier remains the
    ground truth for exactness.

    The [ORQ_JOIN] environment variable (auto|sort|linear|quad) forces an
    operator or restores automatic selection; [ORQ_JOIN_PROFILE]
    ({!Orq_net.Netsim.of_label}: lan|wan|geo|local) sets the pacing regime
    costs are compared under. A value of either that does not parse is
    reported on stderr and ignored. *)

open Orq_proto
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim

type op = Sort | Linear | Quad

val op_label : op -> string

type mode = Auto | Force of op

val mode_label : mode -> string

val mode_of_label : string -> mode option
(** "auto" | "sort" | "linear" | "quad". *)

val mode : unit -> mode
(** The active selection mode (initially from [ORQ_JOIN], default
    [Auto]). *)

val set_mode : mode -> unit

val profile : unit -> Netsim.profile
(** The pacing profile candidate costs are compared under (initially from
    [ORQ_JOIN_PROFILE], default LAN). *)

val cache_tag : unit -> string
(** ["<mode>:<profile>"] — the physical-plan component of the service's
    plan-cache key: two configurations that could pick different physical
    joins for the same SQL never alias to one cached response. *)

type variant = J_inner | J_semi | J_anti | J_outer

val variant_label : variant -> string

type shape = {
  j_n : int;  (** build-side (left) physical rows *)
  j_m : int;  (** probe-side (right) physical rows *)
  j_key_w : int list;  (** per-key widths, already maxed across sides *)
  j_copy_w : int list;  (** widths of left columns copied into matches *)
  j_pay_w : int list;  (** widths of the probe side's non-key columns *)
  j_aggs : bool;  (** the node carries fused aggregations *)
  j_bounded : bool;
      (** the caller requires the output bounded by the probe cardinality
          (an explicit [trim:`Always]) — rules out the materializing
          quadratic operator *)
  j_variant : variant;
}
(** The public shape of one join node — everything the cost forms are
    allowed to see. *)

val applicable : Ctx.t -> shape -> op -> bool
(** Whether an operator can implement this node: [Linear] needs an
    inner/semi/anti variant with no fused aggregations, a composite key
    that packs into one ring word, and nonempty inputs; [Quad] is the
    inner-only materializing baseline, capped at 2^18 candidate pairs
    (beyond that the n*m blowup — which also inflates every downstream
    operator's input — is physically impractical); [Sort] implements
    everything. *)

val predict : Ctx.t -> shape -> op -> Comm.tally
(** Closed-form cost of running the node with [op], including a modeled
    downstream surcharge proportional to the operator's output
    cardinality (what makes the quadratic join's n·m output pay for the
    rows it forces every later operator to process). *)

val seconds : Comm.tally -> float
(** Modeled network time of a tally under the active profile. *)

val choose : Ctx.t -> shape -> op
(** The selection rule: a forced mode wins when applicable (falling back
    to [Sort] when not); [Auto] takes the cheapest applicable candidate
    under {!seconds}. *)

(** {2 Decision log}

    Each executed join node records which operator ran and what every
    candidate was predicted to cost — the observable half of the
    cost-based decision ([orq_cli query --explain], bench JSON). The log
    is per-domain, so concurrent service workers never interleave. *)

type decision = {
  jd_node : string;  (** "left⋈right" *)
  jd_shape : shape;
  jd_chosen : op;
  jd_forced : bool;  (** chosen by a forced mode, not by price *)
  jd_cands : (op * Comm.tally * float) list;
      (** every applicable candidate with its predicted tally and modeled
          seconds under the active profile *)
}

val reset_log : unit -> unit
val log : unit -> decision list

val choose_logged : Ctx.t -> node:string -> shape -> op
(** {!choose} plus a log record — what {!Dataflow}'s join operators call
    once per node, immediately before executing the winner. *)

val log_fallback : Ctx.t -> node:string -> shape -> unit
(** Record a join outside the tractable class (duplicate keys on both
    sides) that bypassed selection for the baseline quadratic operator —
    logged as a forced [Quad] decision so explain output stays
    complete. *)
