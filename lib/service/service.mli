(** Long-running oblivious query service (DESIGN.md, "Query service").

    Serves SQL queries over the shared TPC-H database through the
    automatic planner, on a Unix-domain socket speaking the {!Orq_net.Wire}
    framed protocol. Each connection is a session with its own protocol
    kind (sh-dm / sh-hm / mal-hm, selected by [Hello]); queries from all
    sessions funnel through a fair, prioritized, bounded {!Jobqueue} into
    a pool of execution {b worker domains} ([config.workers],
    live-resizable with [Set_workers]). Each worker lazily builds its own
    per-protocol backend (context + shared catalog), so workers never
    contend on protocol state and cold queries on distinct workers run
    concurrently.

    {b Determinism.} Every query executes under a session seed derived
    only from (service seed, protocol, normalized SQL) via
    {!Orq_proto.Ctx.reseed}, so its scoped {!Orq_net.Comm} tallies and
    certified transcript are byte-identical whichever worker runs it, at
    every worker count, whatever ran before — exactly those of a serial
    run. The plan cache replays the exact cold response; concurrent
    identical cold queries are coalesced single-flight (one execution,
    everyone replays its bytes).

    {b Pacing.} With [config.pace] set to a {!Orq_net.Netsim} profile,
    each worker holds its slot for the query's modeled network time after
    computing — reproducing the paper's network-bound deployment where
    per-query latency is dominated by round trips, and a pool of workers
    overlaps queries for near-linear throughput scaling on any core
    count.

    The server process ignores SIGPIPE and treats per-session failures
    (client disconnect mid-query, malformed frames) as session-local:
    the session is closed, the server keeps serving. *)

type config = {
  socket_path : string;
  sf : float;  (** TPC-H scale factor of the served catalog *)
  seed : int;  (** data-generation and protocol randomness seed *)
  workers : int;  (** execution worker domains (>= 1) *)
  max_jobs : int;  (** in-flight query bound (admission control) *)
  max_rows : int;  (** response row cap; larger results are truncated *)
  cache_capacity : int;  (** plan-cache entries; 0 disables caching *)
  admit_timeout_s : float;
      (** how long a full queue blocks an admission before refusing *)
  drain_timeout_s : float;
      (** how long {!stop} waits for in-flight queries to finish *)
  pace : Orq_net.Netsim.profile option;
      (** paced execution: workers hold their slot for the query's
          modeled network time ([None] = compute-bound, no pacing) *)
  prewarm : Orq_proto.Ctx.kind list;
      (** protocol backends each worker builds at spawn (catalog sharing
          off the query path; default none — backends build lazily) *)
  verbose : bool;  (** log sessions/queries to stderr *)
  job_hook : (unit -> unit) option;
      (** test instrumentation: runs in the worker before each execution
          (cache hits and coalesced replays do not trigger it) *)
}

val default_config : ?socket_path:string -> unit -> config
(** Defaults: sf 0.001, seed 42, 1 worker, 4 in-flight jobs, 10000
    rows, cache 64, no pacing, quiet; [ORQ_SERVICE_ADMIT_MS] (else 2000)
    and [ORQ_SERVICE_DRAIN_MS] (else 5000). [orq_cli serve] flags set the
    rest. *)

type t

val start : config -> t
(** Bind the socket (replacing any stale file), spawn the accept loop and
    the worker pool, and return immediately. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, let in-flight queries finish (up
    to [drain_timeout_s]), answer never-started jobs with an explicit
    shutdown error frame, join every worker domain and session thread,
    remove the socket file. A client mid-query gets its result or a
    proper error — never a silently dropped connection. Idempotent. *)

val wait : t -> unit
(** Block until the server is stopped (for a foreground [serve]). *)

val stats : t -> Orq_net.Wire.stats
(** The same snapshot a [Stats_req] frame returns. *)

val proto_of_label : string -> (Orq_proto.Ctx.kind, string) result
(** "sh-dm" | "2pc" | "sh-hm" | "3pc" | "mal-hm" | "4pc". *)

(** {2 Shared execution path}

    The party runtime (lib/party/) executes queries through exactly these
    functions, so a cluster's per-query results and tallies are
    byte-identical to this in-process service by construction. *)

val query_seed_for : seed:int -> proto_label:string -> sql:string -> int
(** The per-query session seed: a pure function of (service seed,
    protocol label, normalized SQL) — never of execution history. *)

val execute_sql :
  ctx:Orq_proto.Ctx.t ->
  db:Orq_workloads.Tpch_gen.mpc ->
  qseed:int ->
  max_rows:int ->
  string ->
  Orq_net.Wire.response
(** Reseed to [qseed], run the SQL through the planner over [db], reveal,
    canonicalize; parse errors and protocol aborts come back as
    [Error_r] frames. Scoped online/preprocessing tallies and modeled
    LAN/WAN times ride on the [Result]. *)

val pace_of_label : string -> (Orq_net.Netsim.profile option, string) result
(** "off" | "none" | "" (no pacing), else a {!Orq_net.Netsim.of_label}
    profile. *)

val explain_of_log :
  fallbacks:int -> Orq_core.Joincost.decision list -> Orq_net.Wire.explain
(** Render a {!Orq_core.Joincost} decision log as the [Explain_r] wire
    body. Must be called on the domain that executed the query — the
    decision log is domain-local state. *)
