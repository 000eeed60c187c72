(** Cost-based physical join selection (DESIGN.md, "Cost-based physical
    planning").

    The engine carries two physical equi-join operators for in-class joins
    — the sort-based join-aggregation ({!Joinagg}, §3.3) and the
    LINQ-style linear join ({!Linjoin}) — and this module is the planner
    that picks between them: closed-form (rounds, bits,
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

    Joins outside the tractable class (duplicate keys on both sides) never
    reach this module: the planner sends them to the quadratic oblivious
    fallback and reports them as a count, not as a decision.

    {!set_mode} forces an operator or restores automatic selection;
    {!Orq_proto.Primcost.set_profile} sets the pacing regime costs are
    compared under ([orq_cli --profile]). *)

open Orq_proto
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim

type op = Sort | Linear

val op_label : op -> string

type mode = Auto | Force of op

val mode_label : mode -> string

val mode : unit -> mode
(** The active selection mode (initially [Auto]). *)

val set_mode : mode -> unit

val cache_tag : unit -> string
(** ["<mode>:<profile>"] — the physical-plan component of the service's
    plan-cache key: two configurations that could pick different physical
    joins for the same SQL never alias to one cached response. *)

type variant = J_inner | J_semi | J_anti

type shape = {
  j_n : int;  (** build-side (left) physical rows *)
  j_m : int;  (** probe-side (right) physical rows *)
  j_key_w : int list;  (** per-key widths, already maxed across sides *)
  j_copy_w : int list;  (** widths of left columns copied into matches *)
  j_pay_w : int list;  (** widths of the probe side's non-key columns *)
  j_group : int list option;
      (** a GROUP BY on the join key (plus copied left columns) follows:
          the widths of its aggregation sources (COUNT: 1). [Sort] then
          aggregates inside the join's own network (grouped), [Linear] is
          the linear join followed by a sorted aggregate *)
  j_variant : variant;
}
(** The public shape of one join node — everything the cost forms are
    allowed to see. *)

val node_op_label : shape -> op -> string
(** {!op_label}, except at a grouped node: ["sort-grouped"] (aggregating
    inside the sort join's network) and ["linear+aggregate"]. *)

val node_variant_label : shape -> string
(** The variant (["inner"], ["semi"] or ["anti"]), suffixed [" grouped"]
    at a grouped node. *)

val predict : Ctx.t -> shape -> op -> Comm.tally
(** Closed-form cost of running the node with [op], including a modeled
    downstream surcharge proportional to the operator's output
    cardinality (n+m rows after an untrimmed sort join, m after the
    linear join). A grouped shape prices the sort join with the
    aggregations in its network against the linear join plus the
    aggregate's network. *)


(** {2 Decision log}

    Each join node executed inside a {!recording} records which operator
    ran and what every candidate was predicted to cost — the observable
    half of the cost-based decision (the service's and the cluster's
    Explain, the bench gates). Outside a recording nothing is kept, so
    the service, party processes and benchmarks hold no log. The log is
    per-domain, so concurrent service workers never interleave. *)

type decision = {
  jd_node : string;  (** "left⋈right" *)
  jd_shape : shape;
  jd_chosen : op;
  jd_forced : bool;  (** chosen by a forced mode, not by price *)
  jd_cands : (op * Comm.tally * float) list;
      (** every applicable candidate with its predicted tally and modeled
          seconds under the active profile *)
}

val recording : (unit -> 'a) -> 'a * decision list
(** [recording f] runs [f] and returns its result with the decisions of
    the join nodes it executed on this domain, in order. A recording
    nested inside another keeps its decisions from the outer one. *)

val choose_logged : Ctx.t -> node:string -> shape -> op
(** The selection rule, plus a log record — what {!Dataflow}'s join
    operators call once per node, immediately before executing the
    winner. The candidates are the applicable operators: [Linear] needs
    an inner/semi/anti variant (inner only when grouped), a composite key
    that packs into one ring word, and nonempty inputs; [Sort] implements
    everything. A forced mode wins when applicable (falling back to
    [Sort] when not); [Auto] takes the cheapest candidate by
    {!Orq_proto.Primcost.rank}: modeled network time under the pacing
    profile, ties broken by fewer rounds, then fewer bits. *)
