(** Seeded pseudo-random generator (splitmix64 core).

    ORQ derives all protocol randomness — zero sharings, masks, local
    permutations, dealer correlations — from seeded PRGs so that parties
    holding a common seed derive identical streams (the "common PRG seed"
    construction of the paper's Appendix A.2). Statistically strong, not
    cryptographic: see DESIGN.md. *)

type t

val create : int -> t
(** [create seed] builds a generator with a deterministic stream. *)

val copy : t -> t
(** An independent handle continuing the same stream. *)

val reseed : t -> int -> unit
(** [reseed t seed] restarts the stream from [seed] in place, exactly as
    if [t] had just been built by [create seed]. *)

val sync : dst:t -> src:t -> unit
(** [sync ~dst ~src] overwrites [dst]'s state with [src]'s so [dst]
    continues [src]'s stream in place. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th child generator (independent stream),
    without advancing [t]. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val word : t -> int
(** A uniformly random ring word (63 bits). *)

val int_below : t -> int -> int
(** Uniform integer in [0, bound) (rejection-sampled; [bound] > 0). *)

val words : t -> int -> int array
(** [words t n] is a fresh array of [n] uniform ring words. *)
