(** Metered communication layer for the lockstep MPC simulation.

    Every primitive of every protocol reports the traffic it would place
    on the wire in a real deployment: total bits sent (summed over all
    parties), message count, and communication rounds — the
    latency-critical quantity ORQ's vectorization exists to minimize.
    Snapshots support scoped measurement by subtraction.

    Besides the aggregate counters, the layer can record a {e structural
    transcript}: the exact sequence of metering events, each tagged with
    the operator-label stack active when it fired. Two executions are
    observably identical iff their transcripts are event-for-event equal —
    the property the obliviousness tests and the certifier check.
    Recording is off by default and costs one [match] per metering call.
    Round fusion ({!fuse}) is metered here too, merged round by round. *)

type ev_op =
  | Round  (** one communication round carrying payload *)
  | Traffic  (** payload piggybacking on the current round *)
  | Barrier  (** payload-free extra rounds (lockstep barrier) *)

type event = {
  ev_op : ev_op;
  ev_label : string;  (** operator-label stack, outermost first, "/"-joined *)
  ev_rounds : int;  (** rounds this event adds (never negative) *)
  ev_bits : int;
  ev_messages : int;
}

type recorder

type channel = {
  ch_round : bits:int -> messages:int -> unit;
      (** a new communication round was metered: open a fresh on-the-wire
          exchange carrying this payload *)
  ch_traffic : bits:int -> messages:int -> unit;
      (** more payload batched into the current round's exchange *)
  ch_barrier : int -> unit;  (** [k] payload-free lockstep rounds *)
  ch_refund : int -> unit;
      (** retired: never called ({!fuse} merges rounds before they reach
          the channel); kept for the benchmark harness's channels *)
}
(** Pluggable transport: when installed, every metering call additionally
    drives these hooks so a real deployment (lib/party/) places actual
    bytes on actual sockets with exactly the metered shape. Hooks run
    after the counters update, on the metering thread. [None] (the
    default) is the pure in-process simulation. *)

type t = {
  parties : int;
  mutable rounds : int;  (** sequential message-exchange rounds *)
  mutable bits : int;  (** total bits sent, summed over all parties *)
  mutable messages : int;  (** number of (batched) point-to-point sends *)
  mutable recorder : recorder option;
  mutable channel : channel option;
  mutable tracks : event list list;
      (** open {!fuse} buffers, innermost first; empty outside a fuse *)
}

type tally = { t_rounds : int; t_bits : int; t_messages : int }

val create : parties:int -> t

val set_channel : t -> channel option -> unit
(** Install ([Some]) or remove ([None]) the transport channel. *)

val channel : t -> channel option

(** {2 Structural transcripts} *)

val start_recording : ?capacity:int -> t -> unit
(** Start recording events into a fresh ring buffer of [capacity] events
    (rounded up to a power of two; default [2^18]). Any previous
    transcript is discarded; the label stack starts empty. *)

val stop_recording : t -> unit
(** Stop recording. Metering and {!push_label} no longer reach the ring,
    but the transcript, {!recorded_events} and {!dropped_events} remain
    readable until the next {!start_recording}. *)

val recording : t -> bool

val recorded_events : t -> int
(** Events recorded since {!start_recording}, including any that were
    overwritten in the ring. *)

val dropped_events : t -> int
(** Events lost to ring overwrite. A transcript with drops is not
    certifiable — re-record with a larger capacity. *)

val transcript : t -> event array
(** The recorded events, oldest first (only the last [capacity] survive). *)

val push_label : t -> string -> unit
(** Push an operator label onto the recording stack (no-op when recording
    is off). Labels nest; events record the full stack outermost-first.
    Normally called through [Ctx.with_label]. *)

val pop_label : t -> unit
val current_label : t -> string
val event_equal : event -> event -> bool
val pp_event : Format.formatter -> event -> unit

val transcript_diff :
  event array -> event array -> (int * event option * event option) option
(** First position where two transcripts disagree, with the differing
    events ([None] = that transcript ended early); [None] if equal. *)

(** {2 Metering}

    Under [ORQ_DEBUG_CHECKS] (see {!Orq_util.Debug}) each call validates
    the tally invariant that traffic deltas are never negative; violations
    raise [Invalid_argument]. *)

val round : t -> bits:int -> messages:int -> unit
(** Record one communication round in which the parties collectively send
    [bits] bits in [messages] point-to-point messages. *)

val traffic : t -> bits:int -> messages:int -> unit
(** Record traffic piggybacking on an already-counted round (the
    vectorized-batching case). *)

val rounds_only : t -> int -> unit
(** Record [k] extra rounds with no new payload. *)

val fuse : t -> (unit -> 'a) array -> 'a array
(** [fuse t tracks] runs data-independent tracks in order, buffering each
    one's events, then emits them merged: a track's traffic before its
    first round rides the enclosing round; in round [i] the first track
    with payload opens the round and every other track's round-[i]
    payload piggybacks as [Traffic] under its own label; a round with no
    payload in any track is a barrier, and consecutive barriers coalesce.
    A fuse inside a track merges into that track. The counters see the
    events only when the fuse ends; a raising track emits what was
    buffered, unmerged, before the exception propagates. *)

val snapshot : t -> tally
val since : t -> tally -> tally
val add_tally : tally -> tally -> tally
val zero_tally : tally

val bytes_per_party : t -> tally -> float
(** Bytes sent per computing party — the paper's Table 7 normalization. *)

val pp_tally : Format.formatter -> tally -> unit
