(** Optional hot-path sanity checks for index/permutation vectors.

    Off by default (they cost O(n)); enabled via {!set_checks} or the
    [ORQ_DEBUG_CHECKS] environment variable. When enabled, {!Vec.scatter}
    and {!Vec.gather} validate their index arguments and raise an
    [Invalid_argument] naming the operation and the offending position
    instead of corrupting output silently. *)

val set_checks : bool -> unit
val enabled : unit -> bool

val validate_indices : op:string -> int array -> int -> unit
(** Check every index lies in [0, n); duplicates allowed (gather). *)

val validate_perm : op:string -> int array -> int -> unit
(** Check the array is a permutation of [0, n). *)
