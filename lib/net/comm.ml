(** Metered communication layer for the lockstep MPC simulation.

    Every primitive of every protocol reports the traffic it *would* place on
    the wire in a real deployment: total bits sent (summed over all parties),
    message count, and communication rounds. Rounds are the latency-critical
    quantity under MPC — ORQ's vectorization exists precisely to batch
    independent messages into one round — so primitives batch their
    reporting exactly as the real engine batches its sends.

    Counters are cheap plain ints; snapshots ({!tally}) support scoped
    measurement (per-query, per-operator) by subtraction.

    {2 Structural transcripts}

    Aggregate tallies cannot distinguish two traces with compensating
    differences (a missing round here, an extra one there). When recording
    is enabled ({!start_recording}) every metering call additionally appends
    a structured {!event} — its kind, the operator-label stack at the time
    (pushed via {!push_label}, normally through [Ctx.with_label]), and its
    exact (rounds, bits, messages) contribution — into a ring buffer. Two
    executions are observably identical iff their transcripts are
    event-for-event equal, which is the property the obliviousness tests and
    the {!Orq_analysis.Certify} gate check. Recording is off by default and
    costs one [match] per metering call when off. *)

type ev_op =
  | Round  (** one communication round carrying payload *)
  | Traffic  (** payload piggybacking on the current round *)
  | Barrier  (** payload-free extra rounds (lockstep barrier) *)
  | Refund  (** rounds retracted by the fusion layer *)

type event = {
  ev_op : ev_op;
  ev_label : string;  (** operator-label stack, outermost first, "/"-joined *)
  ev_rounds : int;  (** signed round delta of this event *)
  ev_bits : int;
  ev_messages : int;
}

(* Fixed-capacity ring: [pos] counts every event ever recorded; the buffer
   keeps the last [cap]. Certification requires [dropped_events = 0], so
   callers size the capacity to their workload. *)
type recorder = {
  cap : int;  (** power of two *)
  buf : event array;
  mutable pos : int;
  mutable stack : string list;  (** innermost label first *)
  mutable joined : string;  (** cached "/"-join of the stack, outermost first *)
}

(* Pluggable transport channel. The lockstep simulation meters virtual
   traffic; when a channel is installed (the real multi-party deployment,
   see lib/party/), every metering call additionally drives the hooks so
   actual bytes cross actual sockets with exactly the metered shape:
   [ch_round] opens a new on-the-wire exchange carrying [bits]/[messages],
   [ch_traffic] batches more payload into the current exchange,
   [ch_barrier] performs payload-free lockstep exchanges, and [ch_refund]
   notes rounds retracted by the fusion layer (the sequential execution
   still exchanged them physically; the accounting records the overlap a
   concurrent deployment would achieve). Hooks run after the counters
   update, on the metering (execution) thread. *)
type channel = {
  ch_round : bits:int -> messages:int -> unit;
  ch_traffic : bits:int -> messages:int -> unit;
  ch_barrier : int -> unit;
  ch_refund : int -> unit;
}

type t = {
  parties : int;
  mutable rounds : int;  (** sequential message-exchange rounds *)
  mutable bits : int;  (** total bits sent, summed over all parties *)
  mutable messages : int;  (** number of (batched) point-to-point sends *)
  mutable recorder : recorder option;
  mutable channel : channel option;
}

type tally = { t_rounds : int; t_bits : int; t_messages : int }

let create ~parties =
  {
    parties;
    rounds = 0;
    bits = 0;
    messages = 0;
    recorder = None;
    channel = None;
  }

let set_channel t ch = t.channel <- ch
let channel t = t.channel

(* ------------------------------------------------------------------ *)
(* Transcript recording                                                *)
(* ------------------------------------------------------------------ *)

let null_event =
  { ev_op = Round; ev_label = ""; ev_rounds = 0; ev_bits = 0; ev_messages = 0 }

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

(** Start recording events into a fresh ring buffer of [capacity] (rounded
    up to a power of two; default 2^18 events). Any previous transcript is
    discarded; the label stack starts empty. *)
let start_recording ?(capacity = 1 lsl 18) t =
  let cap = next_pow2 (max 2 capacity) 2 in
  t.recorder <-
    Some { cap; buf = Array.make cap null_event; pos = 0; stack = []; joined = "" }

(** Stop recording (the transcript remains readable until the next
    {!start_recording}). *)
let stop_recording t = t.recorder <- None

let recording t = t.recorder <> None

(** Events recorded since {!start_recording} (including any overwritten in
    the ring). *)
let recorded_events t = match t.recorder with None -> 0 | Some r -> r.pos

let dropped_of r = max 0 (r.pos - r.cap)

(** Events lost to ring overwrite; a transcript with drops is not
    certifiable — re-record with a larger capacity. *)
let dropped_events t =
  match t.recorder with None -> 0 | Some r -> dropped_of r

(** The recorded events, oldest first (only the last [capacity] survive). *)
let transcript t : event array =
  match t.recorder with
  | None -> [||]
  | Some r ->
      let n = min r.pos r.cap in
      let first = r.pos - n in
      Array.init n (fun i -> r.buf.((first + i) land (r.cap - 1)))

(** Push an operator label onto the recording stack (no-op when recording
    is off). Labels nest: events record the full stack outermost-first. *)
let push_label t lbl =
  match t.recorder with
  | None -> ()
  | Some r ->
      r.stack <- lbl :: r.stack;
      r.joined <- String.concat "/" (List.rev r.stack)

let pop_label t =
  match t.recorder with
  | None -> ()
  | Some r -> (
      match r.stack with
      | [] -> ()
      | _ :: tl ->
          r.stack <- tl;
          r.joined <- String.concat "/" (List.rev tl))

let current_label t = match t.recorder with None -> "" | Some r -> r.joined

let record t ev_op ~rounds ~bits ~messages =
  match t.recorder with
  | None -> ()
  | Some r ->
      r.buf.(r.pos land (r.cap - 1)) <-
        {
          ev_op;
          ev_label = r.joined;
          ev_rounds = rounds;
          ev_bits = bits;
          ev_messages = messages;
        };
      r.pos <- r.pos + 1

let op_label = function
  | Round -> "round"
  | Traffic -> "traffic"
  | Barrier -> "barrier"
  | Refund -> "refund"

let pp_event ppf (e : event) =
  Fmt.pf ppf "[%s] %s r=%+d bits=%d msgs=%d"
    (if e.ev_label = "" then "-" else e.ev_label)
    (op_label e.ev_op) e.ev_rounds e.ev_bits e.ev_messages

let event_equal (a : event) (b : event) = a = b

(** First position where two transcripts disagree:
    [Some (i, a_i, b_i)] with [None] standing for "ended early". *)
let transcript_diff (a : event array) (b : event array) :
    (int * event option * event option) option =
  let na = Array.length a and nb = Array.length b in
  let rec go i =
    if i >= na && i >= nb then None
    else if i >= na then Some (i, None, Some b.(i))
    else if i >= nb then Some (i, Some a.(i), None)
    else if event_equal a.(i) b.(i) then go (i + 1)
    else Some (i, Some a.(i), Some b.(i))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Metering                                                            *)
(* ------------------------------------------------------------------ *)

(* ORQ_DEBUG_CHECKS invariants: metered quantities are counts — they can
   never go negative, and a fusion refund can never exceed the rounds
   actually recorded. Checked only under {!Orq_util.Debug.enabled} (the
   checks are branches on every metering call). *)
let check_args op ~bits ~messages =
  if Orq_util.Debug.enabled () && (bits < 0 || messages < 0) then
    invalid_arg
      (Printf.sprintf "Comm.%s: negative traffic (bits=%d messages=%d)" op bits
         messages)

(** [round t ~bits ~messages] records one communication round in which the
    parties collectively send [bits] bits in [messages] point-to-point
    messages. *)
let round t ~bits ~messages =
  check_args "round" ~bits ~messages;
  t.rounds <- t.rounds + 1;
  t.bits <- t.bits + bits;
  t.messages <- t.messages + messages;
  record t Round ~rounds:1 ~bits ~messages;
  match t.channel with
  | None -> ()
  | Some ch -> ch.ch_round ~bits ~messages

(** [traffic t ~bits ~messages] records traffic that piggybacks on an
    already-counted round (the vectorized-batching case). *)
let traffic t ~bits ~messages =
  check_args "traffic" ~bits ~messages;
  t.bits <- t.bits + bits;
  t.messages <- t.messages + messages;
  record t Traffic ~rounds:0 ~bits ~messages;
  match t.channel with
  | None -> ()
  | Some ch -> ch.ch_traffic ~bits ~messages

(** [rounds_only t k] records [k] extra rounds with no new payload, e.g. a
    barrier or an empty acknowledgement. *)
let rounds_only t k =
  if Orq_util.Debug.enabled () && k < 0 then
    invalid_arg (Printf.sprintf "Comm.rounds_only: negative count %d" k);
  t.rounds <- t.rounds + k;
  if k <> 0 then begin
    record t Barrier ~rounds:k ~bits:0 ~messages:0;
    match t.channel with None -> () | Some ch -> ch.ch_barrier k
  end

(** [refund_rounds t k] retracts [k] already-counted rounds. Used by the
    round-fusion layer after running independent operation tracks
    sequentially: the tracks' traffic stands, but their rounds overlap in a
    real deployment, so the total is lowered to the longest track. *)
let refund_rounds t k =
  if Orq_util.Debug.enabled () && (k < 0 || k > t.rounds) then
    invalid_arg
      (Printf.sprintf
         "Comm.refund_rounds: refund of %d exceeds the %d recorded rounds" k
         t.rounds);
  t.rounds <- t.rounds - k;
  if k <> 0 then begin
    record t Refund ~rounds:(-k) ~bits:0 ~messages:0;
    match t.channel with None -> () | Some ch -> ch.ch_refund k
  end

let snapshot t = { t_rounds = t.rounds; t_bits = t.bits; t_messages = t.messages }

(** Tally of traffic since [before] was taken. *)
let since t (before : tally) =
  {
    t_rounds = t.rounds - before.t_rounds;
    t_bits = t.bits - before.t_bits;
    t_messages = t.messages - before.t_messages;
  }

let add_tally a b =
  {
    t_rounds = a.t_rounds + b.t_rounds;
    t_bits = a.t_bits + b.t_bits;
    t_messages = a.t_messages + b.t_messages;
  }

let zero_tally = { t_rounds = 0; t_bits = 0; t_messages = 0 }

let bytes_total (tl : tally) = float_of_int tl.t_bits /. 8.

(** Bytes sent per computing party — the normalization used by the paper's
    Table 7 ("we divide the total communication by the number of computing
    parties"). *)
let bytes_per_party t (tl : tally) = bytes_total tl /. float_of_int t.parties

let pp_tally ppf (tl : tally) =
  Fmt.pf ppf "rounds=%d bits=%d msgs=%d (%.1f KiB)" tl.t_rounds tl.t_bits
    tl.t_messages
    (float_of_int tl.t_bits /. 8192.)
