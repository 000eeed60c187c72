(** Protocol context: which MPC protocol is running, its metering state, and
    the session randomness.

    ORQ instantiates the same operator stack over three protocols (§2.4):

    - [Sh_dm]  — ABY, semi-honest, dishonest majority (2 parties, T = 1);
    - [Sh_hm]  — Araki et al., semi-honest, honest majority (3 parties);
    - [Mal_hm] — Fantastic Four, malicious, honest majority (4 parties).

    The context also carries the fault-injection hook used to exercise the
    malicious protocol's abort behaviour in tests. *)

open Orq_util

type kind = Sh_dm | Sh_hm | Mal_hm

let all_kinds = [ Sh_dm; Sh_hm; Mal_hm ]

let kind_label = function
  | Sh_dm -> "SH-DM"
  | Sh_hm -> "SH-HM"
  | Mal_hm -> "Mal-HM"

let parties_of = function Sh_dm -> 2 | Sh_hm -> 3 | Mal_hm -> 4

(** Number of share vectors in the sharing of one secret. For the additive
    2PC scheme this equals the party count; for the replicated 3PC and 4PC
    schemes each party holds a strict subset of these vectors (2 of 3 and
    3 of 4 respectively). *)
let nvec_of = function Sh_dm -> 2 | Sh_hm -> 3 | Mal_hm -> 4

(** Fault injection for the maliciously secure protocol: return [Some delta]
    to additively corrupt the named party's contribution in the named
    operation. Semi-honest protocols ignore the hook (they do not verify),
    which the test suite demonstrates. *)
type tamper = party:int -> op:string -> int option

type t = {
  kind : kind;
  parties : int;
  nvec : int;
  ell : int;  (** logical element bit width used for metering (paper: 64) *)
  comm : Orq_net.Comm.t;  (** online-phase traffic *)
  preproc : Orq_net.Comm.t;  (** preprocessing traffic (dealer-simulated) *)
  prg : Prg.t;
  perm_prg : Prg.t;
      (** Dedicated stream for shuffle permutations. Real deployments draw
          permutations from common seeds shared by shuffle groups, entirely
          separate from dealer/correlation randomness; splitting the streams
          here mirrors that and keeps data-dependent control flow (e.g.
          quicksort partition sizes, driven by the random shuffle)
          independent of how many correlation words the protocols draw
          (per element for word sharings, per packed word for
          {!Share.flags}). *)
  mutable tamper : tamper option;
}

exception Abort of string

let create ?(seed = 0x5EED) ?(ell = 64) kind =
  let parties = parties_of kind in
  let prg = Prg.create seed in
  {
    kind;
    parties;
    nvec = nvec_of kind;
    ell;
    comm = Orq_net.Comm.create ~parties;
    preproc = Orq_net.Comm.create ~parties;
    prg;
    perm_prg = Prg.split prg 0x9E4B;
    tamper = None;
  }

(** Restart the context's randomness from [seed], exactly as if the
    context had just been created with it: both the protocol stream and
    the dedicated shuffle-permutation stream are re-derived. Metering
    state is untouched. The query service reseeds before every execution
    with a seed derived from (service seed, protocol, query) so each
    query's transcript — including data-dependent control flow like
    shuffled-quicksort recursion — is a pure function of the query, never
    of what ran before it or of which worker ran it. *)
let reseed t seed =
  Prg.reseed t.prg seed;
  Prg.sync ~dst:t.perm_prg ~src:(Prg.split t.prg 0x9E4B)

(** Run [f] with [lbl] pushed on the transcript label stack of the
    online-phase meter. Operators wrap their bodies in this so recorded
    events carry the operator path ("aggregate/radixsort/shuffle", …).
    Free when transcript recording is off. *)
let with_label t lbl f =
  Orq_net.Comm.push_label t.comm lbl;
  Fun.protect ~finally:(fun () -> Orq_net.Comm.pop_label t.comm) f

let with_tamper t f g =
  let saved = t.tamper in
  t.tamper <- Some f;
  Fun.protect ~finally:(fun () -> t.tamper <- saved) g

let tamper_delta t ~party ~op =
  match t.tamper with None -> 0 | Some f -> ( match f ~party ~op with None -> 0 | Some d -> d)
