(** Framed binary wire protocol for the query service (DESIGN.md, "Query
    service").

    Unlike {!Comm}/{!Netsim}, which *model* MPC traffic analytically, this
    module moves real bytes over real file descriptors: every message is a
    length-prefixed frame

    {v [u32 body length | u8 tag | payload] v}

    written to and read from a (Unix-domain) socket. Integers are
    big-endian; values are 64-bit two's complement; strings and lists are
    length-prefixed. Frames larger than {!max_frame} are rejected before
    allocation so a malformed or hostile length prefix cannot OOM the
    server. *)

exception Wire_error of string
(** Malformed input: oversized frame, truncated stream mid-frame, unknown
    tag, or payload that does not decode. Clean EOF at a frame boundary is
    not an error — the [recv_*] functions return [None] there. *)

val protocol_version : int
(** Wire-protocol version carried in {!request.Hello}. The server rejects
    a mismatching client with a clear error instead of mis-decoding later
    frames. Bump on any frame-layout change. *)

(** {2 Messages} *)

type err_code =
  | Bad_request  (** unparseable SQL, unknown table, bad proto label *)
  | Busy  (** admission control: the bounded job queue is full *)
  | Too_large  (** query or result exceeds the configured limits *)
  | Internal  (** execution failure (including a malicious-protocol abort) *)

val err_label : err_code -> string

type query_result = {
  r_cols : string list;  (** output column order of the SELECT list *)
  r_rows : int list list;  (** row-major, canonical (sorted) order *)
  r_truncated : bool;  (** rows were cut to the server's max-rows limit *)
  r_fallbacks : int;  (** quadratic oblivious join fallbacks taken *)
  r_cache_hit : bool;  (** served from the plan cache *)
  r_tally : Comm.tally;  (** online traffic scoped to this query *)
  r_pre : Comm.tally;  (** preprocessing traffic scoped to this query *)
  r_lan_s : float;  (** modeled LAN network time for [r_tally] *)
  r_wan_s : float;  (** modeled WAN network time for [r_tally] *)
  r_peak_bytes : int;
      (** peak resident share-chunk bytes while this query executed (0
          when out-of-core streaming is off; approximate when several
          queries execute concurrently — the store's accounting is
          process-wide) *)
  r_spills : int;  (** chunk spills to disk while this query executed *)
}
(** A completed query: the opened result plus its own mini §5 report —
    scoped communication tallies and modeled LAN/WAN times. *)

type stats = {
  s_sessions : int;  (** currently connected sessions *)
  s_workers : int;  (** configured execution workers *)
  s_jobs : int;  (** queries executed since startup *)
  s_rejected : int;  (** queries refused by admission control *)
  s_cache_hits : int;
  s_cache_misses : int;
  s_coalesced : int;  (** queries served by another in-flight execution *)
  s_queue_depth : int;  (** jobs queued, not yet executing *)
  s_in_flight : int;  (** jobs queued + executing *)
  s_wait_p50_ms : float;  (** recent queue-wait percentiles *)
  s_wait_p95_ms : float;
  s_exec_p50_ms : float;  (** recent execution-time percentiles *)
  s_exec_p95_ms : float;
  s_mem_live_bytes : int;  (** share-chunk bytes resident right now *)
  s_mem_peak_bytes : int;  (** high-water mark of resident chunk bytes *)
  s_mem_spilled_bytes : int;  (** total chunk bytes spilled to disk *)
  s_rss_peak_kb : int;  (** process VmHWM in KiB (0 where unavailable) *)
}
(** Scheduler observability: queue depth and latency percentiles travel
    with every stats frame, so clients see *how* saturated the server is
    rather than a binary busy signal. *)

type net_stats = {
  n_parties : int;  (** computing parties in the cluster *)
  n_queries : int;  (** queries the cluster has executed *)
  n_exchanges : int;  (** physical on-the-wire exchanges, last query *)
  n_refunds : int;  (** retired: always 0; fused rounds are exchanged merged *)
  n_bits : int;  (** payload bits measured on the wire (all parties) *)
  n_messages : int;  (** point-to-point sends measured on the wire *)
  n_payload_bytes : int;  (** actual payload bytes carried (all parties) *)
  n_frames : int;  (** frames sent on the mesh (all parties) *)
  n_wall_s : float;  (** coordinator wall-clock of the last query *)
}
(** On-the-wire measurements aggregated across a party cluster's mesh for
    its most recent query — what bench/net.ml compares against the
    {!Comm} tallies. Served only by party clusters ({!request.Net_stats_req}
    against the plain in-process service yields [Error_r]). *)

type join_cand = {
  jc_op : string;
      (** "sort" | "linear"; at a grouped node "sort-grouped" |
          "linear+aggregate" *)
  jc_rounds : int;
  jc_bits : int;
  jc_messages : int;
  jc_est_s : float;  (** modeled network seconds under the active profile *)
}
(** One priced physical-join candidate from the cost model
    ({!Orq_core.Joincost}). *)

type join_decision = {
  je_node : string;  (** "left ⋈ right" *)
  je_variant : string;  (** inner | semi | anti | outer, or "inner grouped" *)
  je_n : int;  (** build-side physical rows *)
  je_m : int;  (** probe-side physical rows *)
  je_chosen : string;
  je_forced : bool;  (** chosen by a forced mode, not by price *)
  je_cands : join_cand list;
}
(** The physical-operator decision at one join node. *)

type explain = {
  e_mode : string;  (** active join-selection mode: auto | sort | linear *)
  e_profile : string;  (** pacing profile costs were compared under *)
  e_fallbacks : int;  (** out-of-class quadratic fallbacks *)
  e_joins : join_decision list;
}
(** The response body of {!request.Explain}: every join node's physical
    operator choice with all candidates' predicted costs. *)

type request =
  | Hello of { h_version : int; h_proto : string; h_client : string }
      (** [h_version] is the client's {!protocol_version} (mismatches are
          rejected). [h_proto] sets the session protocol
          ("sh-dm"|"sh-hm"|"mal-hm"); [h_client] is an optional
          client-group name ([""] = this connection is its own group).
          Connections sharing a group share one fairness lane in the job
          queue — a client flooding from many connections still cannot
          starve other groups. *)
  | Query of { q_sql : string; q_prio : int }
      (** SQL text and its priority class (0 = high, 1 = normal, 2 = low) *)
  | Ping
  | Stats_req
  | Set_workers of int  (** live-resize the execution worker pool *)
  | Net_stats_req
      (** measured mesh traffic of the cluster's last query (party
          clusters only) *)
  | Explain of string
      (** execute the SQL cold (bypassing the plan cache) and return the
          per-join-node physical-operator decisions *)

type response =
  | Hello_ok of { session : int; proto : string }
  | Result of query_result
  | Error_r of { code : err_code; msg : string }
  | Pong
  | Stats_r of stats
  | Net_stats_r of net_stats
  | Explain_r of explain

(** {2 Framed I/O} *)

val send_request : Unix.file_descr -> request -> unit
val send_response : Unix.file_descr -> response -> unit

val recv_request : Unix.file_descr -> request option
(** Read one request frame; [None] on clean EOF before the first header
    byte. @raise Wire_error on malformed input. *)

val recv_response : Unix.file_descr -> response option

(** {2 Raw framing and codecs (party runtime, tests, fuzzing)} *)

val write_frame : Unix.file_descr -> bytes -> unit
val read_frame : Unix.file_descr -> bytes option

val encode_request : request -> bytes

val encode_response : response -> bytes
(** The canonical encoding — what the party runtime digests for its
    cross-party result-agreement check. *)

val decode_response : bytes -> response

(** {2 Codec primitives}

    Shared with the party mesh protocol (lib/party/) so the two protocols
    cannot drift apart on endianness or length prefixes. All [get_*]
    primitives are bounds-checked and raise {!Wire_error} on truncation. *)
module Codec : sig
  type cursor

  val cursor : bytes -> cursor
  val put_u8 : Buffer.t -> int -> unit
  val put_u16 : Buffer.t -> int -> unit
  val put_u32 : Buffer.t -> int -> unit
  val put_i64 : Buffer.t -> int -> unit
  val put_f64 : Buffer.t -> float -> unit
  val put_bool : Buffer.t -> bool -> unit
  val put_string : Buffer.t -> string -> unit
  val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
  val get_u8 : cursor -> int
  val get_u16 : cursor -> int
  val get_u32 : cursor -> int
  val get_i64 : cursor -> int
  val get_f64 : cursor -> float
  val get_bool : cursor -> bool
  val get_string : cursor -> string
  val get_list : cursor -> (cursor -> 'a) -> 'a list
  val finish : cursor -> unit
  (** Reject trailing bytes after a fully-decoded body. *)
end
