(** Plaintext permutations (Appendix A.2), represented as index maps:
    [p.(i) = j] moves the value at position [i] to position [j]. Random
    permutations are Fisher–Yates over a seeded PRG; application is
    {!Orq_util.Parallel.apply_perm}. *)

val identity : int -> int array
val random : Orq_util.Prg.t -> int -> int array

val compose : int array -> int array -> int array
(** [compose pi rho] is pi ∘ rho (apply rho first). *)

val is_permutation : int array -> bool
