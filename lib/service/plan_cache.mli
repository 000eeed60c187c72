(** Plan/result cache for the query service, with single-flight
    execution.

    Keyed by the *normalized* SQL text (token stream re-rendered
    canonically, so whitespace and keyword case do not fragment the
    cache), the session's protocol kind, the server's catalog version,
    and the physical-plan configuration ({!Orq_core.Joincost.cache_tag}:
    the active join-selection mode and pacing profile) — two
    configurations that could pick different physical join operators
    never alias to one cached response. A hit returns exactly the value
    stored by the cold run — the service stores the full response
    payload, so a cached reply is byte-identical to the uncached one,
    tallies included.

    {b Single-flight:} when several sessions miss on the same key
    concurrently, {!acquire} elects exactly one leader ([Execute]); the
    rest park until the leader {!resolve}s and then replay its
    byte-identical response ([Coalesced (Some v)]) without consuming an
    execution worker. If the leader aborts (error responses are never
    cached) followers get [Coalesced None] and retry — each retry elects
    a new leader, so every caller eventually gets a first-hand answer.

    Bounded FIFO eviction; [capacity = 0] disables storage *and*
    coalescing (every caller leads a private flight — cache-off means
    every query really executes). Thread- and domain-safe. *)

type 'a t

type 'a flight
(** A single-flight ticket held by the leader of one cold execution. *)

type 'a acquire =
  | Cached of 'a  (** stored result: replay it *)
  | Execute of 'a flight
      (** caller is the leader: execute, then {!resolve} the ticket *)
  | Coalesced of 'a option
      (** another leader finished first: [Some] its response to replay,
          [None] if it aborted (retry {!acquire}) *)

val create : capacity:int -> 'a t

val normalize : string -> string
(** Canonical form of a SQL query: lexed with {!Orq_planner.Sql.lex} and
    re-rendered one-space-separated with uppercase keywords. Unlexable
    input normalizes to its trimmed self (it will fail in parsing, and
    error responses are never cached). *)

val acquire : 'a t -> proto:string -> version:int -> sql:string -> 'a acquire
(** Look up, or join/lead the in-flight execution for this key (may
    block until the leader resolves). *)

val resolve :
  'a t -> proto:string -> version:int -> sql:string -> 'a flight -> 'a option -> unit
(** Leader completion: [Some v] stores the response and replays it to
    every follower; [None] aborts the flight (followers retry). Must be
    called exactly once per [Execute] ticket. *)

val hits : 'a t -> int
val misses : 'a t -> int

val coalesced : 'a t -> int
(** Queries served by replaying another session's in-flight execution. *)
