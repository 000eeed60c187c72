(** Protocol context: which MPC protocol is running, its metering state,
    and the session randomness (§2.4). *)

(** The three supported protocols:
    - [Sh_dm]  — ABY, semi-honest, dishonest majority (2 parties, T = 1);
    - [Sh_hm]  — Araki et al., semi-honest, honest majority (3 parties);
    - [Mal_hm] — Fantastic Four, malicious with abort (4 parties). *)
type kind = Sh_dm | Sh_hm | Mal_hm

val all_kinds : kind list
val kind_label : kind -> string
val parties_of : kind -> int

val nvec_of : kind -> int
(** Number of share vectors in the sharing of one secret (2/3/4); in the
    replicated schemes each party holds a strict subset of them. *)

type tamper = party:int -> op:string -> int option
(** Fault injection for the maliciously secure protocol: return
    [Some delta] to corrupt the named party's contribution in the named
    operation ("mul", "open", "shuffle"). Semi-honest protocols ignore the
    hook — they do not verify. *)

type t = {
  kind : kind;
  parties : int;
  nvec : int;
  ell : int;
      (** logical element bit width used for metering (paper: 64).
          Permutation index vectors are metered at
          {!Orq_util.Ring.index_bits} of their public length instead (the
          paper fixes them at 32 bits). *)
  comm : Orq_net.Comm.t;  (** online-phase traffic *)
  preproc : Orq_net.Comm.t;  (** preprocessing traffic (dealer-simulated) *)
  prg : Orq_util.Prg.t;
  perm_prg : Orq_util.Prg.t;
      (** Dedicated stream for shuffle permutations, split off [prg] at
          creation — keeps shuffle-driven control flow independent of how
          many correlation words the protocols draw (per element for word
          sharings, per packed word for flag lanes). *)
  mutable tamper : tamper option;
}

exception Abort of string
(** Raised when the maliciously secure protocol detects cheating
    (security with abort, §2.4). *)

val create : ?seed:int -> ?ell:int -> kind -> t

val reseed : t -> int -> unit
(** Restart the session randomness (protocol and permutation streams)
    from [seed], as if the context were freshly created with it; metering
    state is untouched. Makes an execution's transcript independent of
    execution history — the query service reseeds per query. *)

val with_label : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk with an operator label pushed on the online meter's
    transcript label stack (popped on exit, exception-safe). Free when
    transcript recording is off. *)

val with_tamper : t -> tamper -> (unit -> 'a) -> 'a
(** Run a thunk with the fault-injection hook installed (restored after). *)

val tamper_delta : t -> party:int -> op:string -> int
(** The active hook's corruption for (party, op), or 0. *)
