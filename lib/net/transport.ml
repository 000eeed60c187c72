(** Socket transport shared by the query service and the party runtime:
    address parsing (Unix-domain paths and TCP host:port), listener setup,
    and a dialer with bounded exponential-backoff retry so cluster
    processes can be started in any order. *)

exception Transport_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Transport_error s)) fmt

type addr =
  | Unix_sock of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

(* Accepted spellings:
     unix:/path/to.sock      explicit Unix-domain
     /path/to.sock           bare absolute path = Unix-domain
     tcp:host:port           explicit TCP
     host:port               TCP when the suffix parses as a port
   A bare relative path without a colon is a Unix-domain path too (the
   historical service default). *)
let parse_addr (s : string) : (addr, string) result =
  let s = String.trim s in
  if s = "" then Error "empty address"
  else if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else if String.length s >= 4 && String.sub s 0 4 = "tcp:" then
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp address %S needs host:port" s)
    | Some i -> (
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 ->
            Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Error (Printf.sprintf "bad port in tcp address %S" s))
  else if String.length s > 0 && s.[0] = '/' then Ok (Unix_sock s)
  else
    match String.rindex_opt s ':' with
    | Some i when i > 0 -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
        | _ -> Ok (Unix_sock s))
    | _ -> Ok (Unix_sock s)


let format_addr = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | a -> a
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> fail "host %s resolves to nothing" host
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found -> fail "cannot resolve host %s" host)

let sockaddr_of = function
  | Unix_sock p -> Unix.ADDR_UNIX p
  | Tcp (h, p) -> Unix.ADDR_INET (resolve_host h, p)

(* Disable Nagle on TCP: MPC rounds are latency-critical small frames, and
   the exchange layer already batches a whole metered round per frame. *)
let tune fd = function
  | Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
  | Unix_sock _ -> ()

let domain_of = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

(** Bind and listen. A stale Unix-socket file is replaced; TCP listeners
    set [SO_REUSEADDR]. Port 0 picks an ephemeral port — read it back
    with {!listen_addr}. *)
let listen ?(backlog = 64) (a : addr) : Unix.file_descr =
  let fd = Unix.socket (domain_of a) Unix.SOCK_STREAM 0 in
  (try
     (match a with
     | Unix_sock p -> (
         try Unix.unlink p with Unix.Unix_error _ -> ())
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
     Unix.bind fd (sockaddr_of a);
     Unix.listen fd backlog
   with e ->
     close_noerr fd;
     raise e);
  fd

(** The address a listener actually bound (resolves port 0). *)
let listen_addr (fd : Unix.file_descr) : addr =
  match Unix.getsockname fd with
  | Unix.ADDR_UNIX p -> Unix_sock p
  | Unix.ADDR_INET (h, p) -> Tcp (Unix.string_of_inet_addr h, p)

(** Accept one connection (the caller loops); tunes TCP_NODELAY. *)
let accept (fd : Unix.file_descr) : Unix.file_descr =
  let c, peer = Unix.accept fd in
  (match peer with
  | Unix.ADDR_INET _ -> tune c (Tcp ("", 0))
  | Unix.ADDR_UNIX _ -> ());
  c

(** One connection attempt; raises on failure. *)
let connect (a : addr) : Unix.file_descr =
  let fd = Unix.socket (domain_of a) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (sockaddr_of a);
     tune fd a
   with e ->
     close_noerr fd;
     raise e);
  fd

(* Errors that mean "the listener is not up yet" — worth retrying while
   the cluster starts in arbitrary order. Anything else propagates. *)
let retryable = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.ETIMEDOUT
        | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.EAGAIN ),
        _,
        _ ) ->
      true
  | Transport_error _ -> true (* DNS not up yet in fresh containers *)
  | _ -> false

(* Deterministically-seeded per-process jitter source: spreads concurrent
   dialers without perturbing any protocol randomness (which all flows
   through Orq_util.Prg). *)
let jitter_state = lazy (Random.State.make [| Unix.getpid (); 0x7A17 |])

(** [connect_retry ~total_ms a] dials [a], retrying "listener not up yet"
    failures with exponential backoff (doubling from [base_ms], capped at
    [max_ms]) plus ±25% jitter, until a bounded [total_ms] budget is
    spent. Cluster startup order therefore doesn't matter. *)
let connect_retry ?(total_ms = 10_000) ?(base_ms = 25) ?(max_ms = 1_000)
    (a : addr) : Unix.file_descr =
  let deadline = Unix.gettimeofday () +. (float_of_int total_ms /. 1e3) in
  let rec go delay_ms attempt =
    match connect a with
    | fd -> fd
    | exception e when retryable e ->
        let now = Unix.gettimeofday () in
        if now >= deadline then
          fail "connect %s: gave up after %d ms and %d attempts (%s)"
            (format_addr a) total_ms attempt (Printexc.to_string e)
        else begin
          let jitter =
            1.0 +. (0.5 *. (Random.State.float (Lazy.force jitter_state) 1.0 -. 0.5))
          in
          let sleep_s =
            min
              (float_of_int delay_ms *. jitter /. 1e3)
              (max 0.001 (deadline -. now))
          in
          Unix.sleepf sleep_s;
          go (min max_ms (delay_ms * 2)) (attempt + 1)
        end
  in
  go base_ms 1
