(** High-level oblivious permutation protocols (Appendix A.4, Protocols
    4-8). Elementwise permutations are secret-shared vectors of
    destination indices; once routed through a random sharded permutation
    they may be safely opened — the opened vector is the destination
    vector of [rho ∘ pi^{-1}], uniform for uniform [pi]. *)

open Orq_proto

val shuffle_table :
  Ctx.t -> (Share.chunked * int) list -> Share.chunked list
(** Protocol 4: generate one random sharded permutation and apply it to
    every [(column, width)] pair, each metered and delivered at its width
    under {!Shardedperm.apply}'s width contract (boolean columns at any
    width up to [ctx.ell], masked to it on receipt; arithmetic columns at
    [ctx.ell]). Tracked columns stream chunk at a time; a whole
    ({!Share.wrap}ped) column is one chunk. *)

val shuffle_open_table :
  Ctx.t -> opened:(Share.chunked * int) list -> (Share.chunked * int) list ->
  Orq_util.Vec.t list * Share.chunked list
(** {!shuffle_table} over the [opened] and the other pairs under one random
    sharded permutation, then the [opened] columns opened
    ({!Shardedperm.apply_open}: under SH-HM in the shuffle's own last
    round). Returns the opened vectors and the other columns shuffled. *)

val shuffle : ?width:int -> Ctx.t -> Share.shared -> Share.shared
(** {!shuffle_table} on one whole vector at [width] (default
    [ctx.ell]). *)

val apply_elementwise_table :
  Ctx.t -> (Share.chunked * int) list -> Share.shared -> Share.chunked list
(** Protocol 5: apply a secret elementwise permutation to several
    [(column, width)] pairs; the shuffle of [rho] and its opening are paid
    once for all of them. Each column moves at its width under
    {!Shardedperm.apply}'s width contract; [rho] moves and opens at
    {!Orq_util.Ring.index_bits} of the row count, since its values are
    below that public length. The data columns stream; the index column
    [rho] is whole. *)

val compose : Ctx.t -> Share.shared -> Share.shared -> Share.shared
(** Protocol 6: [compose sigma rho] = [rho ∘ sigma] (apply [sigma] first).
    Like every protocol below, each index vector moves and opens at
    {!Orq_util.Ring.index_bits} of its length. *)

val invert : ?enc:Share.enc -> Ctx.t -> Share.shared -> Share.shared
(** Protocol 8: invert an elementwise permutation by applying it to the
    shared identity vector (Fact 1). *)

val convert : Ctx.t -> Share.shared -> Share.enc -> Share.shared
(** Protocol 7: convert an elementwise permutation between encodings —
    shuffle/open/reshare in the honest-majority settings, per-element
    conversion in 2PC. *)
