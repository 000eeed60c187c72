(** Fair, prioritized, bounded job queue with graceful backpressure.

    Capacity bounds the number of *in-flight* jobs — queued plus currently
    executing — so a server with [capacity = k] never holds more than [k]
    admitted queries at once. Three refinements over a plain bounded FIFO:

    - {b Priority classes.} Jobs carry one of three classes
      ({!High}/{!Normal}/{!Low}); {!pop} always serves a higher class
      before a lower one.
    - {b Per-group fairness.} Within a class, jobs are organized as one
      FIFO per client group with round-robin service across groups, so a
      group flooding the queue delays another group's job by at most one
      job per competing group — it cannot starve it.
    - {b Graceful backpressure.} {!push} blocks the caller (up to a
      timeout) while the server is at capacity instead of failing
      immediately (a zero timeout admits without blocking). Queue depth and recent queue-wait percentiles
      are observable ({!counts}, {!wait_percentiles}) so saturation is
      reported with numbers, not a bare busy bit.

    Consumption blocks ({!pop} parks the worker until a job, {!close}, or
    a {!wake} with its [should_stop] predicate true arrives). All
    operations are thread- and domain-safe. *)

type prio = High | Normal | Low

val prio_of_int : int -> prio option
val prio_label : prio -> string

type 'a t

type counts = {
  c_depth : int;  (** queued jobs, all classes *)
  c_running : int;  (** popped but not yet finished *)
  c_by_class : int array;  (** queued per class, [|high; normal; low|] *)
}

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 0]. *)

val push : 'a t -> group:int -> prio:prio -> timeout_s:float -> 'a -> bool
(** Blocking admission: wait up to [timeout_s] for an in-flight slot,
    then enqueue. [false] on timeout or if the queue is (or becomes)
    closed. *)

val pop : ?should_stop:(unit -> bool) -> 'a t -> 'a option
(** Block until a job is available ([Some job], now counted as
    executing) or the queue is closed ([None]; remaining queued jobs are
    still handed out until {!drain_remaining} collects them). The
    [should_stop] predicate is re-checked whenever the consumer wakes
    (see {!wake}) — [None] when it turns true, letting individual
    workers retire while the queue stays open. *)

val finish : 'a t -> unit
(** Mark one executing job as done, freeing its in-flight slot. *)

val wake : 'a t -> unit
(** Wake all blocked consumers so they re-check their [should_stop]
    predicate (used when retiring workers on a live resize). *)

val in_flight : 'a t -> int
(** Queued + executing jobs (admission-control view). *)

val counts : 'a t -> counts

val wait_percentiles : 'a t -> float * float
(** (p50, p95) of recent queue-wait times in seconds, over a sliding
    window of the last 512 pops; (0, 0) before any pop. *)

val capacity : 'a t -> int

val close : 'a t -> unit
(** Reject future pushes and wake blocked consumers. *)

val drain_remaining : 'a t -> 'a list
(** Atomically remove and return every still-queued job (in service
    order), so a stopping server can fail them with a proper error frame
    instead of dropping their connections. *)
