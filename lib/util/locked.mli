(** Rank-carrying instrumented mutexes — the runtime half of the
    concurrency discipline.

    Every engine mutex is created with a name and a rank from the
    audited lock registry ([lib/analysis/lockmap.ml], enforced by
    [orq_lint concur]); acquisition is structured ({!with_lock} /
    {!wait} only). Under [ORQ_DEBUG_CHECKS=1] each thread tracks its
    held-lock stack and fails fast ({!Discipline}) on any rank
    inversion, wait on a non-innermost lock, or acquisition from a GC
    finaliser — so running the test suite with checks on validates the
    declared total lock order against real acquisition orders. With
    checks off, the wrapper costs one flag test per operation. *)

exception Discipline of string

type t

val create : name:string -> rank:int -> unit -> t
(** Create a registered lock. The static lint requires [name] and
    [rank] to be literals matching an entry in the lock registry. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run [f] with the lock held; always released, even on exceptions.
    The only sanctioned way to hold a registered lock. *)

val wait : t -> Condition.t -> unit
(** [wait l c] blocks on [c], atomically releasing [l] (which must be
    the innermost lock held) and re-acquiring it before returning. The
    only sanctioned way to block on a condition variable. *)

val finaliser_guard : ('a -> unit) -> 'a -> unit
(** Wrap a GC-finaliser body: under checks, any registered-lock
    acquisition inside [f] raises {!Discipline}. Finalisers can fire at
    any allocation point — including while the interrupted thread holds
    the very lock the finaliser would take — so they must hand work off
    lock-free (see the chunk store's graveyard). *)

val held_names : unit -> string list
(** The calling thread's held-lock names, innermost first (empty when
    checks are off). For tests. *)
