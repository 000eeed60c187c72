(** Socket transport shared by the query service and the party runtime
    (DESIGN.md, "Real multi-party deployment"): address parsing for
    Unix-domain and TCP endpoints, listener setup, and a dialer with
    bounded exponential-backoff retry so cluster processes can start in
    any order. *)

exception Transport_error of string

type addr =
  | Unix_sock of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

val parse_addr : string -> (addr, string) result
(** Accepted spellings: ["unix:/path"], a bare path, ["tcp:host:port"],
    or ["host:port"] (TCP when the suffix parses as a port). *)

val format_addr : addr -> string
(** Canonical round-trippable rendering (["unix:…"] / ["tcp:host:port"]). *)

val listen : ?backlog:int -> addr -> Unix.file_descr
(** Bind and listen. Replaces a stale Unix-socket file; TCP listeners set
    [SO_REUSEADDR], and port 0 picks an ephemeral port (read it back with
    {!listen_addr}). *)

val listen_addr : Unix.file_descr -> addr
(** The address a listener actually bound (resolves port 0). *)

val accept : Unix.file_descr -> Unix.file_descr
(** Accept one connection; sets [TCP_NODELAY] on TCP peers (MPC rounds
    are latency-critical small frames). *)

val connect : addr -> Unix.file_descr
(** One connection attempt; raises on failure. Sets [TCP_NODELAY]. *)

val connect_retry :
  ?total_ms:int -> ?base_ms:int -> ?max_ms:int -> addr -> Unix.file_descr
(** Dial with bounded retry: "listener not up yet" failures
    ([ECONNREFUSED], [ENOENT], …) back off exponentially (doubling from
    [base_ms], capped at [max_ms]) with ±25% jitter until [total_ms]
    (default 10 s) is spent, then raise {!Transport_error} with the last
    error. Other failures propagate immediately. *)

val close_noerr : Unix.file_descr -> unit
