(** Mesh wire protocol between party processes (DESIGN.md, "Real
    multi-party deployment").

    Rides on {!Orq_net.Wire}'s length-prefixed framing (same [max_frame]
    bound, same {!Orq_net.Wire.Codec} primitives). Every frame body
    starts with the 4-byte protocol {!magic}, so a stray query-service
    client — or plain garbage — is rejected on its first frame. *)

exception Party_error of string

val magic : string
(** ["ORQP"] — leading bytes of every mesh frame body. *)

val version : int
(** Mesh protocol version, verified during the handshake. *)

type hello = {
  p_version : int;
  p_party : int;  (** sender's party id, 0-based *)
  p_parties : int;
  p_proto : string;  (** protocol kind label ("sh-dm"|"sh-hm"|"mal-hm") *)
  p_seed : int;  (** cluster data/session seed *)
  p_sf : float;  (** TPC-H scale factor of the shared catalog *)
  p_ell : int;  (** element bit width *)
}
(** Handshake: both sides must agree on every field except [p_party]
    before any round crosses the mesh. *)

type round = {
  r_seq : int;  (** exchange sequence number within the query *)
  r_events : int;  (** metering events batched into this exchange *)
  r_bits : int;  (** metered bits of the round, summed over parties *)
  r_msgs : int;  (** metered messages of the round, all parties *)
  r_payload : string;  (** this party's byte share of the round *)
}
(** One physical exchange: all payloads of one metered round batched
    into a single frame. The metered fields are identical on every party
    of a correct (deterministic) execution — the receiver checks them
    against its own. *)

type fence = {
  f_qid : int;
  f_party : int;
  f_rounds : int;  (** metered online tally of the query … *)
  f_bits : int;
  f_msgs : int;
  f_digest : int;  (** FNV digest of the encoded query response *)
  f_exchanges : int;  (** … and what was measured on the wire: *)
  f_sent_bits : int;  (** this party's share of the metered bits *)
  f_sent_msgs : int;
  f_payload_bytes : int;  (** payload bytes this party put on the wire *)
  f_frames : int;  (** mesh frames this party sent for the query *)
}
(** End-of-query barrier, broadcast to every peer: metered tally plus
    result digest (divergence detection) plus this party's measured
    on-the-wire counters (party 0 aggregates them for [Net_stats]). *)

type msg =
  | Hello_p of hello
  | Reject_p of string  (** handshake refusal, with the reason *)
  | Query_c of { q_qid : int; q_sql : string; q_max_rows : int }
      (** coordinator → peers: execute this query next *)
  | Round_p of round
  | Fence_p of fence
  | Bye_p  (** orderly cluster shutdown *)

val encode : msg -> bytes
val decode : bytes -> msg
(** @raise Party_error on bad magic or unknown tag;
    @raise Orq_net.Wire.Wire_error on a truncated body. *)

val send : Unix.file_descr -> msg -> unit

val recv : Unix.file_descr -> msg option
(** [None] on clean EOF at a frame boundary. *)

val msg_label : msg -> string
