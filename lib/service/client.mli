(** Blocking client for the query service: one Unix-domain connection,
    request/response in lockstep over the {!Orq_net.Wire} protocol. *)

exception Service_error of string
(** Connection closed, receive timeout, or an unexpected response
    arrived. *)

type t

val connect : ?timeout_ms:int -> ?retry_ms:int -> string -> t
(** Connect to a server address in any {!Orq_net.Transport} spelling
    ([unix:/path], a bare path, [tcp:host:port], [host:port]) — the same
    client dials the in-process service or a party cluster's TCP front
    end. [timeout_ms] arms a receive timeout on the socket: an RPC whose
    response does not arrive in time raises {!Service_error} instead of
    hanging forever on a stalled server. [retry_ms] dials with bounded
    exponential-backoff retry for that many milliseconds while the server
    is still binding (default: a single attempt). *)

val close : t -> unit

val set_protocol : ?client:string -> t -> string -> (string, string) result
(** [Hello]: select this session's protocol ("sh-dm"|"sh-hm"|"mal-hm")
    and optionally a client-group name — connections sharing a group
    share one fairness lane in the server's job queue. Returns the
    server's canonical label, or the server's error. *)

val query :
  ?prio:int ->
  t ->
  string ->
  (Orq_net.Wire.query_result, Orq_net.Wire.err_code * string) result
(** Run one SQL query; blocks until the result (or error) frame. [prio]
    is a priority class (0 = high, 1 = normal, 2 = low; default
    normal). *)

val explain :
  t -> string -> (Orq_net.Wire.explain, Orq_net.Wire.err_code * string) result
(** Execute one SQL query cold (bypassing the server's plan cache) and
    return the per-join-node physical-operator decisions: the chosen
    operator plus every applicable candidate's predicted rounds, bits,
    messages, and modeled seconds under the server's active profile. *)

val ping : t -> bool
val stats : t -> Orq_net.Wire.stats

val net_stats : t -> (Orq_net.Wire.net_stats, string) result
(** Measured mesh traffic of the cluster's last query. Party clusters
    only — the in-process service answers with its error string. *)

val set_workers : t -> int -> Orq_net.Wire.stats
(** Live-resize the server's execution worker pool; returns the stats
    snapshot after the resize. *)
