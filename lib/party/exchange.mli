(** Per-peer exchange layer: turns the {!Orq_net.Comm.channel} metering
    hooks into real framed messages on the party mesh (DESIGN.md, "Real
    multi-party deployment").

    Every party runs the identical deterministic execution; this layer
    adds the wire. At each metered round boundary it batches the round's
    payloads into one framed message, sends it to the ring successor,
    and blocks on the matching message from the predecessor — a physical
    lockstep barrier whose exchange count equals the metered rounds by
    construction (fused tracks arrive already merged round by round).
    Messages carry the metered totals of their round, so cross-party
    divergence is caught at the first differing round. A receiver thread per peer drains the socket into a
    queue, keeping the mesh deadlock-free. *)

exception Exchange_error of string

type t

val create :
  party:int ->
  parties:int ->
  ?verbose:bool ->
  (int * Unix.file_descr) list ->
  t
(** Wrap the fully-connected mesh ([parties - 1] handshaken peer
    connections, keyed by party id) and start one receiver thread per
    peer. *)

val channel : t -> Orq_net.Comm.channel
(** The metering hooks to install on the online meter (via
    [Channel.attach]): rounds flush-and-open exchanges, traffic batches
    into the open exchange, barriers exchange empty frames; the retired
    [ch_refund] is a no-op. *)

val share_of : party:int -> parties:int -> int -> int
(** Party [p]'s share of a cluster-total quantity — [total/n] plus one
    unit of the remainder when [p < total mod n]; shares sum to [total]
    exactly. *)

val reset_query : t -> unit
(** Zero the per-query sequence number and measured counters. Call
    before each query on every party. *)

val fence : t -> qid:int -> tally:Orq_net.Comm.tally -> digest:int ->
  Pwire.fence array
(** End-of-query barrier: flush the open round, broadcast our fence
    (metered tally, result digest, measured on-the-wire counters), and
    collect every peer's, verifying tallies and digests agree. Returns
    the fences indexed by party, our own included.
    @raise Exchange_error on any cross-party divergence, or if physical
    exchanges differ from the metered rounds. *)

val send_query : t -> qid:int -> sql:string -> max_rows:int -> unit
(** Coordinator (party 0): announce the next query to every peer. *)

val recv_query : t -> (int * string * int) option
(** Non-coordinator parties: block for the coordinator's next control
    message — [Some (qid, sql, max_rows)] to execute, [None] on an
    orderly [Bye_p] or coordinator disconnect. *)

val send_bye : t -> unit
(** Best-effort orderly shutdown announcement to all peers. *)

val close : t -> unit
(** Close every peer connection and join the receiver threads. *)
