(** Mesh wire protocol between party processes.

    Rides on {!Orq_net.Wire}'s length-prefixed framing (same [max_frame]
    bound, same big-endian {!Orq_net.Wire.Codec} primitives), with its
    own message set. Every frame body starts with a 4-byte protocol
    magic, so a stray client speaking the query-service protocol — or
    plain garbage — is rejected on the first frame instead of being
    mis-decoded. *)

module Wire = Orq_net.Wire
module C = Wire.Codec
module Comm = Orq_net.Comm

exception Party_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Party_error s)) fmt

(* Distinct from the service protocol's framing on purpose: the first
   body byte of a service frame is a tag in 0x01..0x86, never 'O'. *)
let magic = "ORQP"
let version = 2

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
    before any round crosses the mesh — a cluster mixing seeds or scale
    factors would silently diverge later. *)

type round = {
  r_seq : int;  (** exchange sequence number within the query *)
  r_events : int;  (** metering events batched into this exchange *)
  r_bits : int;  (** metered bits of the round, summed over parties *)
  r_msgs : int;  (** metered messages of the round, all parties *)
  r_payload : string;  (** this party's byte share of the round *)
}
(** One physical exchange: all payloads of one metered round batched
    into a single frame. [r_events]/[r_bits]/[r_msgs] are the metered
    totals — identical on every party of a correct (deterministic)
    execution, so the receiver checks them against its own. *)

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

let tag_hello = 0x01
and tag_reject = 0x02
and tag_query = 0x03
and tag_round = 0x04
and tag_fence = 0x05
and tag_bye = 0x06

let encode (m : msg) : bytes =
  let b = Buffer.create 64 in
  Buffer.add_string b magic;
  (match m with
  | Hello_p h ->
      C.put_u8 b tag_hello;
      C.put_u16 b h.p_version;
      C.put_u16 b h.p_party;
      C.put_u16 b h.p_parties;
      C.put_string b h.p_proto;
      C.put_i64 b h.p_seed;
      C.put_f64 b h.p_sf;
      C.put_u16 b h.p_ell
  | Reject_p msg ->
      C.put_u8 b tag_reject;
      C.put_string b msg
  | Query_c { q_qid; q_sql; q_max_rows } ->
      C.put_u8 b tag_query;
      C.put_i64 b q_qid;
      C.put_i64 b q_max_rows;
      C.put_string b q_sql
  | Round_p r ->
      C.put_u8 b tag_round;
      C.put_i64 b r.r_seq;
      C.put_i64 b r.r_events;
      C.put_i64 b r.r_bits;
      C.put_i64 b r.r_msgs;
      C.put_string b r.r_payload
  | Fence_p f ->
      C.put_u8 b tag_fence;
      C.put_i64 b f.f_qid;
      C.put_u16 b f.f_party;
      C.put_i64 b f.f_rounds;
      C.put_i64 b f.f_bits;
      C.put_i64 b f.f_msgs;
      C.put_i64 b f.f_digest;
      C.put_i64 b f.f_exchanges;
      C.put_i64 b f.f_sent_bits;
      C.put_i64 b f.f_sent_msgs;
      C.put_i64 b f.f_payload_bytes;
      C.put_i64 b f.f_frames
  | Bye_p -> C.put_u8 b tag_bye);
  Buffer.to_bytes b

let decode (body : bytes) : msg =
  if Bytes.length body < 5 then fail "mesh frame too short (%d bytes)"
      (Bytes.length body);
  if Bytes.sub_string body 0 4 <> magic then
    fail "bad protocol magic %S (want %S) — not a party mesh peer"
      (String.escaped (Bytes.sub_string body 0 4))
      magic;
  let c = C.cursor (Bytes.sub body 4 (Bytes.length body - 4)) in
  let m =
    match C.get_u8 c with
    | t when t = tag_hello ->
        let p_version = C.get_u16 c in
        let p_party = C.get_u16 c in
        let p_parties = C.get_u16 c in
        let p_proto = C.get_string c in
        let p_seed = C.get_i64 c in
        let p_sf = C.get_f64 c in
        let p_ell = C.get_u16 c in
        Hello_p { p_version; p_party; p_parties; p_proto; p_seed; p_sf; p_ell }
    | t when t = tag_reject -> Reject_p (C.get_string c)
    | t when t = tag_query ->
        let q_qid = C.get_i64 c in
        let q_max_rows = C.get_i64 c in
        let q_sql = C.get_string c in
        Query_c { q_qid; q_sql; q_max_rows }
    | t when t = tag_round ->
        let r_seq = C.get_i64 c in
        let r_events = C.get_i64 c in
        let r_bits = C.get_i64 c in
        let r_msgs = C.get_i64 c in
        let r_payload = C.get_string c in
        Round_p { r_seq; r_events; r_bits; r_msgs; r_payload }
    | t when t = tag_fence ->
        let f_qid = C.get_i64 c in
        let f_party = C.get_u16 c in
        let f_rounds = C.get_i64 c in
        let f_bits = C.get_i64 c in
        let f_msgs = C.get_i64 c in
        let f_digest = C.get_i64 c in
        let f_exchanges = C.get_i64 c in
        let f_sent_bits = C.get_i64 c in
        let f_sent_msgs = C.get_i64 c in
        let f_payload_bytes = C.get_i64 c in
        let f_frames = C.get_i64 c in
        Fence_p
          {
            f_qid;
            f_party;
            f_rounds;
            f_bits;
            f_msgs;
            f_digest;
            f_exchanges;
            f_sent_bits;
            f_sent_msgs;
            f_payload_bytes;
            f_frames;
          }
    | t when t = tag_bye -> Bye_p
    | t -> fail "unknown mesh tag 0x%02x" t
  in
  C.finish c;
  m

let send fd m = Wire.write_frame fd (encode m)

let recv fd : msg option =
  match Wire.read_frame fd with None -> None | Some b -> Some (decode b)

let msg_label = function
  | Hello_p _ -> "hello"
  | Reject_p _ -> "reject"
  | Query_c _ -> "query"
  | Round_p _ -> "round"
  | Fence_p _ -> "fence"
  | Bye_p -> "bye"
