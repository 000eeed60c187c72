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
  ?width:int -> ?inverse:bool -> Ctx.t -> Share.chunked list -> t ->
  Share.chunked list
(** Apply the permutation (or with [~inverse:true] its inverse) to several
    columns under one application: the rounds of a single column, bytes
    scaling with data volume — what lets TableSort permute a whole table
    once. The permute and per-component resharing run chunk at a time, a
    column after another, so a tracked column streams through the
    {!Orq_util.Chunkvec} store with cold chunks evictable, and a whole
    ({!Share.wrap}ped) vector is one chunk. Metering is charged once at
    the logical-vector level, whatever the chunking. *)

val apply_flags : Ctx.t -> Share.flags -> t -> Share.flags
(** Apply to a packed flag sharing: the flags travel as single bits
    (width-1 {!apply_cost}), the local permutes and resharing noise run
    over packed words. *)
