(** Party process runtime (DESIGN.md, "Real multi-party deployment"): N
    real OS processes, one per computing party, exchanging actual framed
    messages over TCP or Unix-domain sockets.

    Startup establishes a full mesh — party [i] dials every [j < i]
    (bounded retry: processes may start in any order) and accepts from
    every [j > i], with a magic/version/parameter handshake — then each
    query runs with an {!Exchange} channel on the online meter. Party 0
    doubles as the coordinator: it serves the ordinary {!Orq_net.Wire}
    query protocol to clients, broadcasts each query to the peers, and
    aggregates the measured wire counters into [Net_stats]. Results and
    tallies are byte-identical to the in-process service by
    construction. *)

exception Cluster_error of string

type config = {
  party : int;  (** this process's party id, 0-based *)
  proto : Orq_proto.Ctx.kind;
  seed : int;  (** cluster data/session seed — must agree everywhere *)
  sf : float;  (** TPC-H scale factor — must agree everywhere *)
  peers : Orq_net.Transport.addr array;  (** mesh addresses, by party *)
  listen : Orq_net.Transport.addr option;
      (** mesh bind override (default [peers.(party)]) *)
  listen_fd : Unix.file_descr option;
      (** pre-bound mesh listener — lets a launcher bind every port
          before forking, eliminating startup races *)
  client : Orq_net.Transport.addr option;  (** party 0's front end *)
  client_fd : Unix.file_descr option;
  max_rows : int;
  verbose : bool;
}

val default_config :
  party:int ->
  proto:Orq_proto.Ctx.kind ->
  peers:Orq_net.Transport.addr array ->
  unit ->
  config
(** Seed 42, sf 0.001, max 10000 rows, no client front end, quiet. *)

val run : config -> unit
(** Run one party process: build the backend, establish the mesh, then
    serve — party 0 accepts clients and coordinates; the others follow
    the coordinator's query stream until [Bye_p] or disconnect. Blocks
    for the lifetime of the cluster.
    @raise Cluster_error on configuration or mesh failures. *)

(** {2 Handshake (exposed for tests)} *)

val verify_hello :
  mine:Pwire.hello -> theirs:Pwire.hello -> (unit, string) result
(** Everything except the party id must agree — version, party count,
    protocol, seed, scale factor, element width. *)

val accept_handshake : mine:Pwire.hello -> Unix.file_descr ->
  (int, string) result
(** Acceptor side: read the dialer's hello, verify, answer with our own
    hello (or a reasoned [Reject_p]); returns the peer's party id. Reads
    under a handshake timeout, so a silent connection cannot wedge the
    acceptor. *)

val dial_handshake : mine:Pwire.hello -> expect:int -> Unix.file_descr ->
  (unit, string) result
(** Dialer side: send our hello, verify the acceptor's reply. *)

(** {2 Query execution internals (exposed for tests)} *)

(** {2 Local cluster launcher (coordinator mode, bench, CI)} *)

type local = {
  l_client : Orq_net.Transport.addr;
      (** dial this with {!Orq_service.Client} *)
  l_pids : int array;  (** one child process per party, index = id *)
}

val launch_local :
  ?tcp:bool ->
  ?seed:int ->
  ?sf:float ->
  ?max_rows:int ->
  ?verbose:bool ->
  Orq_proto.Ctx.kind ->
  local
(** Fork a complete local cluster (one child per party). Every listener
    is bound in the parent — ephemeral TCP ports on loopback by default,
    Unix-domain sockets with [~tcp:false] — and inherited by the forked
    parties, so there is no bind race and no port guessing. *)

val shutdown_local : local -> unit
(** SIGTERM every party and reap them all. *)

val alive : local -> bool
(** True while every party process is still alive (non-blocking). *)
