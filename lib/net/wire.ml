(** Framed binary wire protocol for the query service. See the interface
    for the frame layout. All multi-byte integers are big-endian; values
    travel as 64-bit two's complement so full ring elements round-trip. *)

exception Wire_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Wire_error s)) fmt
let max_frame = 16 * 1024 * 1024

(* Compat guard for future wire changes: [Hello] carries the client's
   protocol version; the server rejects a mismatch with a clear error
   instead of mis-decoding later frames. Bump on any frame-layout change. *)
let protocol_version = 5

type err_code = Bad_request | Busy | Too_large | Internal

let err_label = function
  | Bad_request -> "bad-request"
  | Busy -> "busy"
  | Too_large -> "too-large"
  | Internal -> "internal"

type query_result = {
  r_cols : string list;
  r_rows : int list list;
  r_truncated : bool;
  r_fallbacks : int;
  r_cache_hit : bool;
  r_tally : Comm.tally;
  r_pre : Comm.tally;
  r_lan_s : float;
  r_wan_s : float;
  r_peak_bytes : int;
  r_spills : int;
}

type stats = {
  s_sessions : int;
  s_workers : int;
  s_jobs : int;
  s_rejected : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_coalesced : int;
  s_queue_depth : int;
  s_in_flight : int;
  s_wait_p50_ms : float;
  s_wait_p95_ms : float;
  s_exec_p50_ms : float;
  s_exec_p95_ms : float;
  s_mem_live_bytes : int;
  s_mem_peak_bytes : int;
  s_mem_spilled_bytes : int;
  s_rss_peak_kb : int;
}

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

type join_cand = {
  jc_op : string;
      (** "sort" | "linear"; at a grouped node "sort-grouped" |
          "linear+aggregate" *)
  jc_rounds : int;
  jc_bits : int;
  jc_messages : int;
  jc_est_s : float;  (** modeled network seconds under the active profile *)
}

type join_decision = {
  je_node : string;  (** "left ⋈ right" *)
  je_variant : string;  (** inner | semi | anti | outer, or "inner grouped" *)
  je_n : int;  (** build-side physical rows *)
  je_m : int;  (** probe-side physical rows *)
  je_chosen : string;
  je_forced : bool;  (** chosen by a forced mode, not by price *)
  je_cands : join_cand list;
}

type explain = {
  e_mode : string;  (** active join-selection mode: auto | sort | linear *)
  e_profile : string;  (** pacing profile costs were compared under *)
  e_fallbacks : int;  (** out-of-class quadratic fallbacks *)
  e_joins : join_decision list;
}

type request =
  | Hello of { h_version : int; h_proto : string; h_client : string }
  | Query of { q_sql : string; q_prio : int }
  | Ping
  | Stats_req
  | Set_workers of int
  | Net_stats_req
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

(* ------------------------------------------------------------------ *)
(* Encoding primitives                                                 *)
(* ------------------------------------------------------------------ *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u16 b v =
  if v < 0 || v > 0xffff then fail "u16 out of range: %d" v;
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then fail "u32 out of range: %d" v;
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_i64 b (v : int) =
  let v64 = Int64.of_int v in
  for shift = 7 downto 0 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical v64 (8 * shift)))
  done

(* Floats need all 64 bits of their representation — going through the
   63-bit OCaml int would corrupt the sign for magnitudes >= 2.0. *)
let put_f64 b (v : float) =
  let bits = Int64.bits_of_float v in
  for shift = 7 downto 0 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical bits (8 * shift)))
  done

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b put xs =
  put_u32 b (List.length xs);
  List.iter (put b) xs

let put_tally b (t : Comm.tally) =
  put_i64 b t.Comm.t_rounds;
  put_i64 b t.Comm.t_bits;
  put_i64 b t.Comm.t_messages

(* ------------------------------------------------------------------ *)
(* Decoding primitives (bounds-checked cursor over the frame body)     *)
(* ------------------------------------------------------------------ *)

type cursor = { buf : bytes; mutable pos : int }

let need c n =
  if c.pos + n > Bytes.length c.buf then
    fail "truncated payload (want %d bytes at %d of %d)" n c.pos
      (Bytes.length c.buf)

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  let a = get_u8 c in
  let b = get_u8 c in
  (a lsl 8) lor b

let get_u32 c =
  let a = get_u8 c in
  let b = get_u8 c in
  let d = get_u8 c in
  let e = get_u8 c in
  (a lsl 24) lor (b lsl 16) lor (d lsl 8) lor e

let get_i64 c =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 c))
  done;
  Int64.to_int !v

let get_f64 c =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 c))
  done;
  Int64.float_of_bits !v

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad bool byte %d" v

let get_string c =
  let n = get_u32 c in
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_list c get =
  let n = get_u32 c in
  if n > max_frame then fail "list length %d exceeds frame bound" n;
  List.init n (fun _ -> get c)

let get_tally c =
  let t_rounds = get_i64 c in
  let t_bits = get_i64 c in
  let t_messages = get_i64 c in
  { Comm.t_rounds; t_bits; t_messages }

let finish c =
  if c.pos <> Bytes.length c.buf then
    fail "trailing garbage: %d bytes after payload" (Bytes.length c.buf - c.pos)

(* ------------------------------------------------------------------ *)
(* Message bodies                                                      *)
(* ------------------------------------------------------------------ *)

let tag_hello = 0x01
and tag_query = 0x02
and tag_ping = 0x03
and tag_stats_req = 0x04
and tag_set_workers = 0x06
and tag_net_stats_req = 0x07
and tag_explain = 0x08

let tag_hello_ok = 0x81
and tag_result = 0x82
and tag_error = 0x83
and tag_pong = 0x84
and tag_stats = 0x85
and tag_net_stats = 0x86
and tag_explain_r = 0x87

let encode_request (r : request) : bytes =
  let b = Buffer.create 64 in
  (match r with
  | Hello { h_version; h_proto; h_client } ->
      put_u8 b tag_hello;
      put_u16 b h_version;
      put_string b h_proto;
      put_string b h_client
  | Query { q_sql; q_prio } ->
      put_u8 b tag_query;
      put_u8 b q_prio;
      put_string b q_sql
  | Ping -> put_u8 b tag_ping
  | Stats_req -> put_u8 b tag_stats_req
  | Set_workers n ->
      put_u8 b tag_set_workers;
      put_u32 b n
  | Net_stats_req -> put_u8 b tag_net_stats_req
  | Explain sql ->
      put_u8 b tag_explain;
      put_string b sql);
  Buffer.to_bytes b

let code_of_int = function
  | 0 -> Bad_request
  | 1 -> Busy
  | 2 -> Too_large
  | 3 -> Internal
  | v -> fail "bad error code %d" v

let int_of_code = function
  | Bad_request -> 0
  | Busy -> 1
  | Too_large -> 2
  | Internal -> 3

let encode_response (r : response) : bytes =
  let b = Buffer.create 256 in
  (match r with
  | Hello_ok { session; proto } ->
      put_u8 b tag_hello_ok;
      put_i64 b session;
      put_string b proto
  | Result q ->
      put_u8 b tag_result;
      put_list b put_string q.r_cols;
      put_list b (fun b row -> put_list b put_i64 row) q.r_rows;
      put_bool b q.r_truncated;
      put_i64 b q.r_fallbacks;
      put_bool b q.r_cache_hit;
      put_tally b q.r_tally;
      put_tally b q.r_pre;
      put_f64 b q.r_lan_s;
      put_f64 b q.r_wan_s;
      put_i64 b q.r_peak_bytes;
      put_i64 b q.r_spills
  | Error_r { code; msg } ->
      put_u8 b tag_error;
      put_u8 b (int_of_code code);
      put_string b msg
  | Pong -> put_u8 b tag_pong
  | Net_stats_r s ->
      put_u8 b tag_net_stats;
      put_i64 b s.n_parties;
      put_i64 b s.n_queries;
      put_i64 b s.n_exchanges;
      put_i64 b s.n_refunds;
      put_i64 b s.n_bits;
      put_i64 b s.n_messages;
      put_i64 b s.n_payload_bytes;
      put_i64 b s.n_frames;
      put_f64 b s.n_wall_s
  | Stats_r s ->
      put_u8 b tag_stats;
      put_i64 b s.s_sessions;
      put_i64 b s.s_workers;
      put_i64 b s.s_jobs;
      put_i64 b s.s_rejected;
      put_i64 b s.s_cache_hits;
      put_i64 b s.s_cache_misses;
      put_i64 b s.s_coalesced;
      put_i64 b s.s_queue_depth;
      put_i64 b s.s_in_flight;
      put_f64 b s.s_wait_p50_ms;
      put_f64 b s.s_wait_p95_ms;
      put_f64 b s.s_exec_p50_ms;
      put_f64 b s.s_exec_p95_ms;
      put_i64 b s.s_mem_live_bytes;
      put_i64 b s.s_mem_peak_bytes;
      put_i64 b s.s_mem_spilled_bytes;
      put_i64 b s.s_rss_peak_kb
  | Explain_r e ->
      put_u8 b tag_explain_r;
      put_string b e.e_mode;
      put_string b e.e_profile;
      put_i64 b e.e_fallbacks;
      put_list b
        (fun b (j : join_decision) ->
          put_string b j.je_node;
          put_string b j.je_variant;
          put_i64 b j.je_n;
          put_i64 b j.je_m;
          put_string b j.je_chosen;
          put_bool b j.je_forced;
          put_list b
            (fun b (cand : join_cand) ->
              put_string b cand.jc_op;
              put_i64 b cand.jc_rounds;
              put_i64 b cand.jc_bits;
              put_i64 b cand.jc_messages;
              put_f64 b cand.jc_est_s)
            j.je_cands)
        e.e_joins);
  Buffer.to_bytes b

let decode_request (body : bytes) : request =
  let c = { buf = body; pos = 0 } in
  let r =
    match get_u8 c with
    | t when t = tag_hello ->
        let h_version = get_u16 c in
        let h_proto = get_string c in
        let h_client = get_string c in
        Hello { h_version; h_proto; h_client }
    | t when t = tag_query ->
        let q_prio = get_u8 c in
        let q_sql = get_string c in
        Query { q_sql; q_prio }
    | t when t = tag_ping -> Ping
    | t when t = tag_stats_req -> Stats_req
    | t when t = tag_set_workers -> Set_workers (get_u32 c)
    | t when t = tag_net_stats_req -> Net_stats_req
    | t when t = tag_explain -> Explain (get_string c)
    | t -> fail "unknown request tag 0x%02x" t
  in
  finish c;
  r

let decode_response (body : bytes) : response =
  let c = { buf = body; pos = 0 } in
  let r =
    match get_u8 c with
    | t when t = tag_hello_ok ->
        let session = get_i64 c in
        let proto = get_string c in
        Hello_ok { session; proto }
    | t when t = tag_result ->
        let r_cols = get_list c get_string in
        let r_rows = get_list c (fun c -> get_list c get_i64) in
        let r_truncated = get_bool c in
        let r_fallbacks = get_i64 c in
        let r_cache_hit = get_bool c in
        let r_tally = get_tally c in
        let r_pre = get_tally c in
        let r_lan_s = get_f64 c in
        let r_wan_s = get_f64 c in
        let r_peak_bytes = get_i64 c in
        let r_spills = get_i64 c in
        Result
          {
            r_cols;
            r_rows;
            r_truncated;
            r_fallbacks;
            r_cache_hit;
            r_tally;
            r_pre;
            r_lan_s;
            r_wan_s;
            r_peak_bytes;
            r_spills;
          }
    | t when t = tag_error ->
        let code = code_of_int (get_u8 c) in
        let msg = get_string c in
        Error_r { code; msg }
    | t when t = tag_pong -> Pong
    | t when t = tag_net_stats ->
        let n_parties = get_i64 c in
        let n_queries = get_i64 c in
        let n_exchanges = get_i64 c in
        let n_refunds = get_i64 c in
        let n_bits = get_i64 c in
        let n_messages = get_i64 c in
        let n_payload_bytes = get_i64 c in
        let n_frames = get_i64 c in
        let n_wall_s = get_f64 c in
        Net_stats_r
          {
            n_parties;
            n_queries;
            n_exchanges;
            n_refunds;
            n_bits;
            n_messages;
            n_payload_bytes;
            n_frames;
            n_wall_s;
          }
    | t when t = tag_stats ->
        let s_sessions = get_i64 c in
        let s_workers = get_i64 c in
        let s_jobs = get_i64 c in
        let s_rejected = get_i64 c in
        let s_cache_hits = get_i64 c in
        let s_cache_misses = get_i64 c in
        let s_coalesced = get_i64 c in
        let s_queue_depth = get_i64 c in
        let s_in_flight = get_i64 c in
        let s_wait_p50_ms = get_f64 c in
        let s_wait_p95_ms = get_f64 c in
        let s_exec_p50_ms = get_f64 c in
        let s_exec_p95_ms = get_f64 c in
        let s_mem_live_bytes = get_i64 c in
        let s_mem_peak_bytes = get_i64 c in
        let s_mem_spilled_bytes = get_i64 c in
        let s_rss_peak_kb = get_i64 c in
        Stats_r
          {
            s_sessions;
            s_workers;
            s_jobs;
            s_rejected;
            s_cache_hits;
            s_cache_misses;
            s_coalesced;
            s_queue_depth;
            s_in_flight;
            s_wait_p50_ms;
            s_wait_p95_ms;
            s_exec_p50_ms;
            s_exec_p95_ms;
            s_mem_live_bytes;
            s_mem_peak_bytes;
            s_mem_spilled_bytes;
            s_rss_peak_kb;
          }
    | t when t = tag_explain_r ->
        let e_mode = get_string c in
        let e_profile = get_string c in
        let e_fallbacks = get_i64 c in
        let e_joins =
          get_list c (fun c ->
              let je_node = get_string c in
              let je_variant = get_string c in
              let je_n = get_i64 c in
              let je_m = get_i64 c in
              let je_chosen = get_string c in
              let je_forced = get_bool c in
              let je_cands =
                get_list c (fun c ->
                    let jc_op = get_string c in
                    let jc_rounds = get_i64 c in
                    let jc_bits = get_i64 c in
                    let jc_messages = get_i64 c in
                    let jc_est_s = get_f64 c in
                    { jc_op; jc_rounds; jc_bits; jc_messages; jc_est_s })
              in
              { je_node; je_variant; je_n; je_m; je_chosen; je_forced; je_cands })
        in
        Explain_r { e_mode; e_profile; e_fallbacks; e_joins }
    | t -> fail "unknown response tag 0x%02x" t
  in
  finish c;
  r

(* ------------------------------------------------------------------ *)
(* Framed file-descriptor I/O                                          *)
(* ------------------------------------------------------------------ *)

let rec really_write fd buf pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd buf (pos + n) (len - n)
  end

(* Returns the bytes actually read (stopping early only on EOF). *)
let really_read fd buf pos len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    match Unix.read fd buf (pos + !got) (len - !got) with
    | 0 -> eof := true
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  !got

let write_frame fd (body : bytes) =
  let n = Bytes.length body in
  if n > max_frame then fail "frame of %d bytes exceeds max_frame" n;
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 (n lsr 24 land 0xff);
  Bytes.set_uint8 hdr 1 (n lsr 16 land 0xff);
  Bytes.set_uint8 hdr 2 (n lsr 8 land 0xff);
  Bytes.set_uint8 hdr 3 (n land 0xff);
  really_write fd hdr 0 4;
  really_write fd body 0 n

let read_frame fd : bytes option =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 0 4 with
  | 0 -> None (* clean EOF at a frame boundary *)
  | 4 ->
      let n =
        (Bytes.get_uint8 hdr 0 lsl 24)
        lor (Bytes.get_uint8 hdr 1 lsl 16)
        lor (Bytes.get_uint8 hdr 2 lsl 8)
        lor Bytes.get_uint8 hdr 3
      in
      if n > max_frame then fail "frame length %d exceeds max_frame" n;
      if n = 0 then fail "empty frame";
      let body = Bytes.create n in
      let got = really_read fd body 0 n in
      if got < n then fail "truncated frame: got %d of %d body bytes" got n;
      Some body
  | k -> fail "truncated frame header: %d of 4 bytes" k

let send_request fd r = write_frame fd (encode_request r)
let send_response fd r = write_frame fd (encode_response r)

let recv_request fd =
  match read_frame fd with None -> None | Some b -> Some (decode_request b)

let recv_response fd =
  match read_frame fd with None -> None | Some b -> Some (decode_response b)

(* ------------------------------------------------------------------ *)
(* Codec primitives, re-exported                                       *)
(* ------------------------------------------------------------------ *)

(* The party mesh protocol (lib/party/) shares this module's framing and
   needs the same bounds-checked primitives for its own message bodies.
   Re-exported under one name so the two protocols cannot drift apart on
   integer endianness or string length prefixes. *)
module Codec = struct
  type nonrec cursor = cursor

  let cursor body = { buf = body; pos = 0 }
  let put_u8 = put_u8
  let put_u16 = put_u16
  let put_u32 = put_u32
  let put_i64 = put_i64
  let put_f64 = put_f64
  let put_bool = put_bool
  let put_string = put_string
  let put_list = put_list
  let get_u8 = get_u8
  let get_u16 = get_u16
  let get_u32 = get_u32
  let get_i64 = get_i64
  let get_f64 = get_f64
  let get_bool = get_bool
  let get_string = get_string
  let get_list = get_list
  let finish = finish
end
