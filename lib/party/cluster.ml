(** Party process runtime: N real OS processes, one per computing party,
    exchanging actual framed messages over TCP or Unix-domain sockets.

    The engine is a deterministic lockstep simulation, so every party
    runs the identical execution over the identical shared catalog; the
    cluster adds the physical wire. Startup establishes a full mesh —
    party [i] dials every [j < i] (with bounded retry, so processes can
    start in any order) and accepts from every [j > i], handshaking with
    a magic/version/parameter check — then each query runs with an
    {!Exchange} channel attached to the online meter, placing one framed
    message per metered round on the wire and fencing at query end.

    Party 0 doubles as the {e coordinator}: it serves the ordinary query
    service protocol ({!Orq_net.Wire}) to clients on a separate front-end
    socket, broadcasts each query to the peers, and aggregates the
    measured per-party wire counters into [Net_stats] — per-query
    results and tallies are byte-identical to the in-process service by
    construction (same seeds, same execution path). *)

open Orq_proto
module Wire = Orq_net.Wire
module Comm = Orq_net.Comm
module Transport = Orq_net.Transport
module Service = Orq_service.Service
module Tpch_gen = Orq_workloads.Tpch_gen

exception Cluster_error = Pwire.Party_error

let fail fmt = Printf.ksprintf (fun s -> raise (Cluster_error s)) fmt

type config = {
  party : int;  (** this process's party id, 0-based *)
  proto : Ctx.kind;
  seed : int;  (** cluster data/session seed — must agree everywhere *)
  sf : float;  (** TPC-H scale factor — must agree everywhere *)
  peers : Transport.addr array;  (** mesh addresses, indexed by party *)
  listen : Transport.addr option;
      (** mesh bind override (default [peers.(party)]) *)
  listen_fd : Unix.file_descr option;
      (** pre-bound mesh listener — lets a launcher bind every port
          before forking, eliminating startup races *)
  client : Transport.addr option;  (** party 0's client front end *)
  client_fd : Unix.file_descr option;
  max_rows : int;
  verbose : bool;
}

let default_config ~party ~proto ~peers () =
  {
    party;
    proto;
    seed = 42;
    sf = 0.001;
    peers;
    listen = None;
    listen_fd = None;
    client = None;
    client_fd = None;
    max_rows = 10_000;
    verbose = false;
  }

let logf (cfg : config) fmt =
  Printf.ksprintf
    (fun s ->
      if cfg.verbose then Printf.eprintf "[party %d] %s\n%!" cfg.party s)
    fmt

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

let my_hello (cfg : config) ~ell : Pwire.hello =
  {
    Pwire.p_version = Pwire.version;
    p_party = cfg.party;
    p_parties = Array.length cfg.peers;
    p_proto = Ctx.kind_label cfg.proto;
    p_seed = cfg.seed;
    p_sf = cfg.sf;
    p_ell = ell;
  }

(* Everything except the party id must agree: a cluster mixing versions,
   protocols, seeds, or scale factors would diverge silently later —
   reject it at the first frame with a reason instead. *)
let verify_hello ~(mine : Pwire.hello) ~(theirs : Pwire.hello) :
    (unit, string) result =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if theirs.Pwire.p_version <> mine.Pwire.p_version then
    err "mesh protocol version mismatch: peer speaks v%d, we speak v%d"
      theirs.Pwire.p_version mine.Pwire.p_version
  else if theirs.Pwire.p_parties <> mine.Pwire.p_parties then
    err "party count mismatch: peer expects %d parties, we expect %d"
      theirs.Pwire.p_parties mine.Pwire.p_parties
  else if theirs.Pwire.p_proto <> mine.Pwire.p_proto then
    err "protocol mismatch: peer runs %s, we run %s" theirs.Pwire.p_proto
      mine.Pwire.p_proto
  else if theirs.Pwire.p_seed <> mine.Pwire.p_seed then
    err "session seed mismatch: peer has %d, we have %d" theirs.Pwire.p_seed
      mine.Pwire.p_seed
  else if theirs.Pwire.p_sf <> mine.Pwire.p_sf then
    err "scale factor mismatch: peer has %g, we have %g" theirs.Pwire.p_sf
      mine.Pwire.p_sf
  else if theirs.Pwire.p_ell <> mine.Pwire.p_ell then
    err "element width mismatch: peer has %d, we have %d" theirs.Pwire.p_ell
      mine.Pwire.p_ell
  else if
    theirs.Pwire.p_party < 0 || theirs.Pwire.p_party >= mine.Pwire.p_parties
  then err "bad peer party id %d" theirs.Pwire.p_party
  else if theirs.Pwire.p_party = mine.Pwire.p_party then
    err "peer claims our own party id %d" theirs.Pwire.p_party
  else Ok ()

let handshake_timeout_s = 5.0

let with_handshake_timeout fd f =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO handshake_timeout_s
   with Unix.Unix_error _ -> ());
  let r = f () in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0. with Unix.Unix_error _ -> ());
  r

(* Acceptor side: read the dialer's hello, verify, answer with our own
   (or a reasoned [Reject_p]). Returns the authenticated peer id. *)
let accept_handshake ~(mine : Pwire.hello) fd : (int, string) result =
  match with_handshake_timeout fd (fun () -> Pwire.recv fd) with
  | None -> Error "peer closed during handshake"
  | exception e -> Error (Printexc.to_string e)
  | Some (Pwire.Hello_p theirs) -> (
      match verify_hello ~mine ~theirs with
      | Ok () ->
          if theirs.Pwire.p_party < mine.Pwire.p_party then
            Error
              (Printf.sprintf
                 "peer %d dialed us (party %d) but lower ids accept, higher \
                  ids dial"
                 theirs.Pwire.p_party mine.Pwire.p_party)
          else begin
            Pwire.send fd (Pwire.Hello_p mine);
            Ok theirs.Pwire.p_party
          end
      | Error reason ->
          (try Pwire.send fd (Pwire.Reject_p reason) with _ -> ());
          Error reason)
  | Some m ->
      let reason =
        Printf.sprintf "expected a mesh hello, got %s" (Pwire.msg_label m)
      in
      (try Pwire.send fd (Pwire.Reject_p reason) with _ -> ());
      Error reason

(* Dialer side: send our hello first, then verify the acceptor's reply. *)
let dial_handshake ~(mine : Pwire.hello) ~expect fd : (unit, string) result =
  Pwire.send fd (Pwire.Hello_p mine);
  match with_handshake_timeout fd (fun () -> Pwire.recv fd) with
  | None -> Error "peer closed during handshake"
  | exception e -> Error (Printexc.to_string e)
  | Some (Pwire.Reject_p reason) -> Error ("peer rejected us: " ^ reason)
  | Some (Pwire.Hello_p theirs) -> (
      match verify_hello ~mine ~theirs with
      | Error _ as e -> e
      | Ok () ->
          if theirs.Pwire.p_party <> expect then
            Error
              (Printf.sprintf "dialed party %d but party %d answered" expect
                 theirs.Pwire.p_party)
          else Ok ())
  | Some m ->
      Error (Printf.sprintf "expected a mesh hello, got %s" (Pwire.msg_label m))

(* ------------------------------------------------------------------ *)
(* Mesh establishment                                                  *)
(* ------------------------------------------------------------------ *)

(* Party [i] accepts from every [j > i] and dials every [j < i]; dialing
   retries with backoff so the cluster can start in any order. A
   connection failing the handshake is rejected and does not consume an
   expected slot — a stray client cannot wedge cluster startup. *)
let establish_mesh (cfg : config) ~ell : (int * Unix.file_descr) list =
  let parties = Array.length cfg.peers in
  let mine = my_hello cfg ~ell in
  let listen_fd =
    match cfg.listen_fd with
    | Some fd -> fd
    | None ->
        let addr =
          match cfg.listen with Some a -> a | None -> cfg.peers.(cfg.party)
        in
        Transport.listen addr
  in
  let expected = parties - 1 - cfg.party in
  let accepted = ref [] in
  let accept_err = ref None in
  let acceptor =
    Thread.create
      (fun () ->
        try
          while List.length !accepted < expected do
            let fd = Transport.accept listen_fd in
            match accept_handshake ~mine fd with
            | Ok id ->
                if List.mem_assoc id !accepted then begin
                  Transport.close_noerr fd;
                  logf cfg "duplicate connection from party %d dropped" id
                end
                else begin
                  logf cfg "accepted party %d" id;
                  accepted := (id, fd) :: !accepted
                end
            | Error reason ->
                Transport.close_noerr fd;
                logf cfg "rejected a connection: %s" reason
          done
        with e -> accept_err := Some e)
      ()
  in
  let dialed = ref [] in
  (try
     for j = 0 to cfg.party - 1 do
       let fd = Transport.connect_retry cfg.peers.(j) in
       (match dial_handshake ~mine ~expect:j fd with
       | Ok () -> ()
       | Error reason ->
           Transport.close_noerr fd;
           fail "party %d: handshake with party %d failed: %s" cfg.party j
             reason);
       logf cfg "connected to party %d" j;
       dialed := (j, fd) :: !dialed
     done
   with e ->
     List.iter (fun (_, fd) -> Transport.close_noerr fd) !dialed;
     (* unblock and reap the acceptor before propagating *)
     Transport.close_noerr listen_fd;
     (try Thread.join acceptor with _ -> ());
     List.iter (fun (_, fd) -> Transport.close_noerr fd) !accepted;
     raise e);
  Thread.join acceptor;
  (match !accept_err with
  | Some e ->
      List.iter (fun (_, fd) -> Transport.close_noerr fd) (!dialed @ !accepted);
      raise e
  | None -> ());
  (* the mesh is full: nobody dials us later *)
  Transport.close_noerr listen_fd;
  !dialed @ !accepted

(* ------------------------------------------------------------------ *)
(* Query execution                                                     *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the response's canonical wire encoding: one number that
   covers columns, rows, truncation, tallies, and modeled times. All
   parties must digest identically — checked at the fence. *)
let fnv_prime = 0x100000001b3L

let digest_of_response (resp : Wire.response) : int =
  let b = Wire.encode_response resp in
  let h = ref 0xcbf29ce484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    b;
  Int64.to_int !h

type backend = { ctx : Ctx.t; db : Tpch_gen.mpc }

let build_backend (cfg : config) : backend =
  let ctx = Ctx.create ~seed:cfg.seed cfg.proto in
  let plain = Tpch_gen.generate ~seed:cfg.seed cfg.sf in
  let db = Tpch_gen.share ctx plain in
  { ctx; db }

(* Execute one query with the exchange channel attached to the online
   meter — the same [Service.execute_sql] path as the in-process
   service, so results and tallies agree byte-for-byte — then fence. *)
let run_query (cfg : config) (b : backend) (ex : Exchange.t) ~qid ~sql
    ~max_rows : Wire.response * Pwire.fence array =
  Exchange.reset_query ex;
  let proto_label = Ctx.kind_label cfg.proto in
  let qseed = Service.query_seed_for ~seed:cfg.seed ~proto_label ~sql in
  let resp =
    Channel.with_channel b.ctx (Exchange.channel ex) (fun () ->
        Service.execute_sql ~ctx:b.ctx ~db:b.db ~qseed ~max_rows sql)
  in
  let tally =
    match resp with Wire.Result r -> r.Wire.r_tally | _ -> Comm.zero_tally
  in
  let digest = digest_of_response resp in
  let fences = Exchange.fence ex ~qid ~tally ~digest in
  (resp, fences)

(* Aggregate the fences into the coordinator's [Net_stats] answer, and
   enforce the deployment's central invariant: the per-party measured
   bits/messages sum to the metered totals exactly, and every party
   performed the same number of physical exchanges. *)
let net_stats_of_fences (cfg : config) ~(tally : Comm.tally) ~wall_s ~queries
    (fences : Pwire.fence array) : Wire.net_stats =
  let parties = Array.length fences in
  let f0 = fences.(0) in
  Array.iter
    (fun (f : Pwire.fence) ->
      if f.Pwire.f_exchanges <> f0.Pwire.f_exchanges then
        fail
          "party %d: exchange counts diverge: party %d did %d, party %d did \
           %d"
          cfg.party f0.Pwire.f_party f0.Pwire.f_exchanges f.Pwire.f_party
          f.Pwire.f_exchanges)
    fences;
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 fences in
  let n_bits = sum (fun f -> f.Pwire.f_sent_bits) in
  let n_messages = sum (fun f -> f.Pwire.f_sent_msgs) in
  if n_bits <> tally.Comm.t_bits || n_messages <> tally.Comm.t_messages then
    fail
      "party %d: measured wire traffic (bits=%d msgs=%d) differs from the \
       metered tally (bits=%d msgs=%d)"
      cfg.party n_bits n_messages tally.Comm.t_bits tally.Comm.t_messages;
  {
    Wire.n_parties = parties;
    n_queries = queries;
    n_exchanges = f0.Pwire.f_exchanges;
    n_refunds = 0;
    n_bits;
    n_messages;
    n_payload_bytes = sum (fun f -> f.Pwire.f_payload_bytes);
    n_frames = sum (fun f -> f.Pwire.f_frames);
    n_wall_s = wall_s;
  }

(* ------------------------------------------------------------------ *)
(* Coordinator: client front end (party 0)                             *)
(* ------------------------------------------------------------------ *)

type coord = {
  mutable c_qid : int;
  mutable c_queries : int;
  mutable c_last : Wire.net_stats option;
}

let handle_client_request (cfg : config) (b : backend) (ex : Exchange.t)
    (co : coord) (req : Wire.request) : Wire.response =
  let bad msg = Wire.Error_r { code = Wire.Bad_request; msg } in
  let proto_label = Ctx.kind_label cfg.proto in
  let run sql =
    co.c_qid <- co.c_qid + 1;
    let qid = co.c_qid in
    let t0 = Unix.gettimeofday () in
    Exchange.send_query ex ~qid ~sql ~max_rows:cfg.max_rows;
    let resp, fences = run_query cfg b ex ~qid ~sql ~max_rows:cfg.max_rows in
    let wall_s = Unix.gettimeofday () -. t0 in
    co.c_queries <- co.c_queries + 1;
    let tally =
      match resp with Wire.Result r -> r.Wire.r_tally | _ -> Comm.zero_tally
    in
    co.c_last <-
      Some
        (net_stats_of_fences cfg ~tally ~wall_s ~queries:co.c_queries fences);
    logf cfg "query %d done in %.3f s" qid wall_s;
    resp
  in
  match req with
  | Wire.Hello { h_version; h_proto; h_client = _ } -> (
      if h_version <> Wire.protocol_version then
        bad
          (Printf.sprintf
             "protocol version mismatch: client speaks v%d, cluster speaks \
              v%d — upgrade the older side"
             h_version Wire.protocol_version)
      else
        match Service.proto_of_label h_proto with
        | Ok k when k = cfg.proto ->
            Wire.Hello_ok { session = 1; proto = proto_label }
        | Ok k ->
            bad
              (Printf.sprintf
                 "this cluster runs %s with %d parties; reconnect with \
                  --proto %s (a cluster cannot switch protocols per session \
                  — party count differs)"
                 proto_label (Array.length cfg.peers) proto_label
              ^ Printf.sprintf " (you asked for %s)" (Ctx.kind_label k))
        | Error msg -> bad msg)
  | Wire.Ping -> Wire.Pong
  | Wire.Query { q_sql; q_prio = _ } ->
      (* the mesh is one lane: priorities would have nothing to reorder *)
      run q_sql
  | Wire.Explain sql -> (
      (* the coordinator executes its own share of the query on this
         domain, so its decision log is the cluster's (every party makes
         the identical shape-deterministic choice) *)
      Orq_core.Joincost.reset_log ();
      match run sql with
      | Wire.Result r ->
          Wire.Explain_r
            (Service.explain_of_log ~fallbacks:r.Wire.r_fallbacks
               (Orq_core.Joincost.log ()))
      | other -> other)
  | Wire.Net_stats_req -> (
      match co.c_last with
      | Some s -> Wire.Net_stats_r s
      | None -> bad "no query has executed on this cluster yet")
  | Wire.Stats_req | Wire.Set_workers _ ->
      bad
        "a party cluster has no worker pool: queries execute on the mesh, \
         one at a time (use Net_stats_req for wire measurements)"

let serve_clients (cfg : config) (b : backend) (ex : Exchange.t) : unit =
  let listen_fd =
    match cfg.client_fd with
    | Some fd -> fd
    | None -> (
        match cfg.client with
        | Some a -> Transport.listen a
        | None ->
            fail
              "party 0 needs a client front-end address (--client) or a \
               pre-bound socket")
  in
  let co = { c_qid = 0; c_queries = 0; c_last = None } in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  logf cfg "coordinator serving clients";
  (* Sessions are sequential by design: the mesh is a single execution
     lane, so a second concurrent client would only wait anyway. *)
  let rec accept_loop () =
    match Transport.accept listen_fd with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | fd ->
        (try
           let rec session () =
             match Wire.recv_request fd with
             | None -> ()
             | Some req ->
                 Wire.send_response fd (handle_client_request cfg b ex co req);
                 session ()
           in
           session ()
         with
        | Wire.Wire_error msg ->
            (try
               Wire.send_response fd
                 (Wire.Error_r
                    { code = Wire.Bad_request; msg = "malformed frame: " ^ msg })
             with _ -> ())
        | Unix.Unix_error _ | Sys_error _ -> ());
        Transport.close_noerr fd;
        accept_loop ()
  in
  accept_loop ()

(* ------------------------------------------------------------------ *)
(* Party main loops                                                    *)
(* ------------------------------------------------------------------ *)

let follow_coordinator (cfg : config) (b : backend) (ex : Exchange.t) : unit =
  let rec loop () =
    match Exchange.recv_query ex with
    | None -> logf cfg "coordinator left; shutting down"
    | Some (qid, sql, max_rows) ->
        let _resp, _fences = run_query cfg b ex ~qid ~sql ~max_rows in
        loop ()
  in
  loop ()

(** Run one party process: build the backend, establish the mesh, then
    serve — party 0 accepts clients and coordinates; the others follow
    the coordinator's query stream until [Bye_p] or disconnect. Blocks
    for the lifetime of the cluster. *)
let run (cfg : config) : unit =
  let parties = Array.length cfg.peers in
  if parties <> Ctx.parties_of cfg.proto then
    fail "%s runs %d parties, but %d peer addresses were given"
      (Ctx.kind_label cfg.proto)
      (Ctx.parties_of cfg.proto)
      parties;
  if cfg.party < 0 || cfg.party >= parties then
    fail "party id %d out of range 0..%d" cfg.party (parties - 1);
  logf cfg "building %s backend (sf=%g, seed=%d)"
    (Ctx.kind_label cfg.proto)
    cfg.sf cfg.seed;
  let b = build_backend cfg in
  logf cfg "establishing mesh at %s"
    (Transport.format_addr cfg.peers.(cfg.party));
  let conns = establish_mesh cfg ~ell:b.ctx.Ctx.ell in
  let ex =
    Exchange.create ~party:cfg.party ~parties ~verbose:cfg.verbose conns
  in
  logf cfg "mesh established (%d peers)" (List.length conns);
  Fun.protect
    ~finally:(fun () ->
      Exchange.send_bye ex;
      Exchange.close ex)
    (fun () ->
      if cfg.party = 0 then serve_clients cfg b ex
      else follow_coordinator cfg b ex)

(* ------------------------------------------------------------------ *)
(* Local cluster launcher (coordinator mode, bench, CI)                *)
(* ------------------------------------------------------------------ *)

type local = {
  l_client : Transport.addr;  (** dial this with {!Orq_service.Client} *)
  l_pids : int array;  (** one child process per party, index = id *)
}

(* Bind every listener in the parent and fork the parties with the fds
   inherited: no bind race, no port guessing — children on ephemeral
   TCP ports work first try. Children run [run] and never return. *)
let launch_local ?(tcp = true) ?(seed = 42) ?(sf = 0.001) ?(max_rows = 10_000)
    ?(verbose = false) (proto : Ctx.kind) : local =
  let parties = Ctx.parties_of proto in
  let mk_addr i =
    if tcp then Transport.Tcp ("127.0.0.1", 0)
    else
      Transport.Unix_sock
        (Filename.concat
           (Filename.get_temp_dir_name ())
           (Printf.sprintf "orq-party-%d-%d.sock" (Unix.getpid ()) i))
  in
  let mesh_fds = Array.init parties (fun i -> Transport.listen (mk_addr i)) in
  let peers = Array.map Transport.listen_addr mesh_fds in
  let client_fd = Transport.listen (mk_addr parties) in
  let client_addr = Transport.listen_addr client_fd in
  let pids =
    Array.init parties (fun p ->
        match Unix.fork () with
        | 0 ->
            (* child: keep only this party's listeners *)
            Array.iteri
              (fun i fd -> if i <> p then Transport.close_noerr fd)
              mesh_fds;
            if p <> 0 then Transport.close_noerr client_fd;
            let cfg =
              {
                party = p;
                proto;
                seed;
                sf;
                peers;
                listen = None;
                listen_fd = Some mesh_fds.(p);
                client = (if p = 0 then Some client_addr else None);
                client_fd = (if p = 0 then Some client_fd else None);
                max_rows;
                verbose;
              }
            in
            let code =
              try
                run cfg;
                0
              with e ->
                Printf.eprintf "[party %d] fatal: %s\n%!" p
                  (Printexc.to_string e);
                1
            in
            (* children must not run the parent's at_exit handlers *)
            Unix._exit code
        | pid -> pid)
  in
  Array.iter Transport.close_noerr mesh_fds;
  Transport.close_noerr client_fd;
  { l_client = client_addr; l_pids = pids }

(** Terminate a local cluster: SIGTERM every party, reap them all.
    Forceful by design — the parties hold no state worth draining. *)
let shutdown_local (l : local) : unit =
  Array.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    l.l_pids;
  Array.iter
    (fun pid ->
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    l.l_pids
