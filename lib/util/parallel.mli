(** Data-parallel execution of local vector work over a persistent pool of
    OCaml 5 domains.

    Mirrors ORQ's per-party data parallelism (§4): workers operate on
    disjoint partitions of a vector. Workers are spawned once and parked
    between dispatches (persistent pool), so per-call overhead is a
    lock/signal pair rather than a [Domain.spawn]. Defaults to 1 domain so
    tests are deterministic; benchmarks and the CLI opt in via
    {!set_num_domains} / [ORQ_DOMAINS]. Only *local* (communication-free)
    loops go through this module — metering and PRG consumption stay on
    the calling domain. *)

val set_num_domains : int -> unit
(** Configure the global default number of parallel lanes (calling domain
    included). Pools are resized lazily at the next dispatch. *)

val get_num_domains : unit -> int

val set_lanes : int -> unit
(** Override the lane budget for the *calling domain only* ([n <= 0]
    restores the global default). Pools are per dispatching domain, so
    concurrent execution workers partition the global [ORQ_DOMAINS]
    budget among themselves with this — intra-query data parallelism and
    inter-query concurrency then compose without oversubscription. *)

val set_min_chunk : int -> unit
(** Minimum elements per lane for a parallel dispatch to be worthwhile;
    an input shorter than lanes x this runs sequentially. Default 65536;
    tests lower it to reach the pool at small sizes. *)

val get_min_chunk : unit -> int

val init_from_env : unit -> unit
(** Honor [ORQ_DOMAINS] if set (entry points call this before argument
    parsing; explicit flags override). *)

val chunks : int -> int -> (int * int) list
(** [chunks n k] splits [0, n) into at most [k] contiguous (pos, len)
    spans covering it exactly. *)

val run_spans : int -> (int -> int -> unit) -> unit
(** [run_spans n f] calls [f pos len] for each chunk of [0, n), on the
    pool when more than one domain is configured and the input clears the
    {!set_min_chunk} threshold; [f] must only write to disjoint output
    ranges determined by its span. Exceptions raised by any span are
    re-raised after all spans complete. *)

val run_tasks : int -> (int -> unit) -> unit
(** [run_tasks k f] runs indexed tasks [f 0 .. f (k-1)] on the pool — for
    blocked algorithms needing an explicit decomposition shared across
    phases (e.g. the two-pass prefix sum). *)
