module Wire = Orq_net.Wire
module Transport = Orq_net.Transport

exception Service_error of string

type t = { fd : Unix.file_descr }

(* Addresses accept every Transport spelling (unix:/path, bare path,
   tcp:host:port, host:port), so the same client dials the in-process
   service's Unix socket or a party cluster's TCP front end. [retry_ms]
   adds a bounded exponential-backoff dial window — a client started
   alongside the server (cluster scripts, CI) needn't race its bind. *)
let connect ?timeout_ms ?retry_ms addr_s =
  let addr =
    match Transport.parse_addr addr_s with
    | Ok a -> a
    | Error m -> raise (Service_error ("bad address: " ^ m))
  in
  let fd =
    match retry_ms with
    | Some total_ms when total_ms > 0 -> Transport.connect_retry ~total_ms addr
    | _ -> Transport.connect addr
  in
  (try
     match timeout_ms with
     | Some ms when ms > 0 ->
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO (float_of_int ms /. 1e3)
     | _ -> ()
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rpc t (req : Wire.request) : Wire.response =
  Wire.send_request t.fd req;
  match Wire.recv_response t.fd with
  | Some r -> r
  | None -> raise (Service_error "connection closed by server")
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise (Service_error "receive timeout waiting for server response")

let set_protocol ?(client = "") t label =
  match
    rpc t
      (Wire.Hello
         {
           h_version = Wire.protocol_version;
           h_proto = label;
           h_client = client;
         })
  with
  | Wire.Hello_ok { proto; _ } -> Ok proto
  | Wire.Error_r { msg; _ } -> Error msg
  | _ -> raise (Service_error "unexpected response to Hello")

let query ?(prio = 1) t sql =
  match rpc t (Wire.Query { q_sql = sql; q_prio = prio }) with
  | Wire.Result r -> Ok r
  | Wire.Error_r { code; msg } -> Error (code, msg)
  | _ -> raise (Service_error "unexpected response to Query")

let explain t sql =
  match rpc t (Wire.Explain sql) with
  | Wire.Explain_r e -> Ok e
  | Wire.Error_r { code; msg } -> Error (code, msg)
  | _ -> raise (Service_error "unexpected response to Explain")

let ping t = match rpc t Wire.Ping with Wire.Pong -> true | _ -> false

let stats t =
  match rpc t Wire.Stats_req with
  | Wire.Stats_r s -> s
  | _ -> raise (Service_error "unexpected response to Stats")

let net_stats t =
  match rpc t Wire.Net_stats_req with
  | Wire.Net_stats_r s -> Ok s
  | Wire.Error_r { msg; _ } -> Error msg
  | _ -> raise (Service_error "unexpected response to Net_stats")

let set_workers t n =
  match rpc t (Wire.Set_workers n) with
  | Wire.Stats_r s -> s
  | _ -> raise (Service_error "unexpected response to Set_workers")
