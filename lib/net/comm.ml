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
    costs one [match] per metering call when off. {!fuse} is the only code
    that knows about round fusion: it buffers parallel tracks' events and
    emits them merged round by round. *)

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

(* Fixed-capacity ring: [pos] counts every event ever recorded; the buffer
   keeps the last [cap]. Certification requires [dropped_events = 0], so
   callers size the capacity to their workload. A stopped ring stays
   readable but records nothing more. *)
type recorder = {
  cap : int;  (** power of two *)
  buf : event array;
  mutable active : bool;
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
   and [ch_barrier] performs payload-free lockstep exchanges. [ch_refund]
   is retired: fusion merges rounds before they reach the channel, so it
   is never called. Hooks run after the counters update, on the metering
   (execution) thread. *)
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
  mutable tracks : event list list;
      (** open {!fuse} buffers, innermost first; each newest event first *)
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
    tracks = [];
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
    Some
      {
        cap;
        buf = Array.make cap null_event;
        active = true;
        pos = 0;
        stack = [];
        joined = "";
      }

(* The ring events go to: the recorder while it is active. *)
let live t =
  match t.recorder with Some r when r.active -> Some r | _ -> None

(** Stop recording: the ring is kept, inactive, so the transcript (and its
    drop count) remains readable until the next {!start_recording}; labels
    and metering no longer touch it. *)
let stop_recording t = Option.iter (fun r -> r.active <- false) t.recorder

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
  match live t with
  | None -> ()
  | Some r ->
      r.stack <- lbl :: r.stack;
      r.joined <- String.concat "/" (List.rev r.stack)

let pop_label t =
  match live t with
  | None -> ()
  | Some r -> (
      match r.stack with
      | [] -> ()
      | _ :: tl ->
          r.stack <- tl;
          r.joined <- String.concat "/" (List.rev tl))

let current_label t = match live t with None -> "" | Some r -> r.joined

let store r ev =
  r.buf.(r.pos land (r.cap - 1)) <- ev;
  r.pos <- r.pos + 1

let op_label = function
  | Round -> "round"
  | Traffic -> "traffic"
  | Barrier -> "barrier"

let pp_event ppf (e : event) =
  Fmt.pf ppf "[%s] %s r=%+d bits=%d msgs=%d"
    (if e.ev_label = "" then "-" else e.ev_label)
    (op_label e.ev_op) e.ev_rounds e.ev_bits e.ev_messages

(** First position where two transcripts disagree:
    [Some (i, a_i, b_i)] with [None] standing for "ended early". *)
let transcript_diff (a : event array) (b : event array) :
    (int * event option * event option) option =
  let na = Array.length a and nb = Array.length b in
  let rec go i =
    if i >= na && i >= nb then None
    else if i >= na then Some (i, None, Some b.(i))
    else if i >= nb then Some (i, Some a.(i), None)
    else if a.(i) = b.(i) then go (i + 1)
    else Some (i, Some a.(i), Some b.(i))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Metering                                                            *)
(* ------------------------------------------------------------------ *)

(* ORQ_DEBUG_CHECKS invariant: metered quantities are counts — they can
   never go negative. Checked only under {!Orq_util.Debug.enabled} (the
   checks are branches on every metering call). *)
let check_args op ~bits ~messages =
  if Orq_util.Debug.enabled () && (bits < 0 || messages < 0) then
    invalid_arg
      (Printf.sprintf "Comm.%s: negative traffic (bits=%d messages=%d)" op bits
         messages)

(* The channel runs with [ev]'s own label current, so a label-keyed
   channel attributes a merged event as if it were unfused. *)
let fire t ch ev =
  let hook () =
    match ev.ev_op with
    | Round -> ch.ch_round ~bits:ev.ev_bits ~messages:ev.ev_messages
    | Traffic -> ch.ch_traffic ~bits:ev.ev_bits ~messages:ev.ev_messages
    | Barrier -> ch.ch_barrier ev.ev_rounds
  in
  match live t with
  | Some r when r.joined != ev.ev_label ->
      let saved = r.joined in
      r.joined <- ev.ev_label;
      Fun.protect ~finally:(fun () -> r.joined <- saved) hook
  | _ -> hook ()

(* Inside a {!fuse} track an event joins the track's buffer; outside, it
   reaches the counters, the recorder and the channel. *)
let put t ev =
  match t.tracks with
  | buf :: outer -> t.tracks <- (ev :: buf) :: outer
  | [] -> (
      t.rounds <- t.rounds + ev.ev_rounds;
      t.bits <- t.bits + ev.ev_bits;
      t.messages <- t.messages + ev.ev_messages;
      Option.iter (fun r -> store r ev) (live t);
      match t.channel with None -> () | Some ch -> fire t ch ev)

let meter t ev_op ev_rounds ev_bits ev_messages =
  put t { ev_op; ev_label = current_label t; ev_rounds; ev_bits; ev_messages }

(** [round t ~bits ~messages] records one communication round in which the
    parties collectively send [bits] bits in [messages] point-to-point
    messages. *)
let round t ~bits ~messages =
  check_args "round" ~bits ~messages;
  meter t Round 1 bits messages

(** [traffic t ~bits ~messages] records traffic that piggybacks on an
    already-counted round (the vectorized-batching case). *)
let traffic t ~bits ~messages =
  check_args "traffic" ~bits ~messages;
  meter t Traffic 0 bits messages

(** [rounds_only t k] records [k] extra rounds with no new payload, e.g. a
    barrier or an empty acknowledgement. *)
let rounds_only t k =
  if Orq_util.Debug.enabled () && k < 0 then
    invalid_arg (Printf.sprintf "Comm.rounds_only: negative count %d" k);
  if k <> 0 then meter t Barrier k 0 0

(* A track's buffer (newest first) cut into rounds: slot 0 is the traffic
   before its first round, slot i >= 1 its round i, headed by a Round or
   a one-round Barrier event. *)
let slots_of buf =
  let slots = ref [] and cur = ref [] in
  let open_slot e =
    slots := List.rev !cur :: !slots;
    cur := [ e ]
  in
  List.iter
    (fun e ->
      match e.ev_op with
      | Traffic -> cur := e :: !cur
      | Round -> open_slot e
      | Barrier ->
          for _ = 1 to e.ev_rounds do
            open_slot { e with ev_rounds = 1 }
          done)
    (List.rev buf);
  Array.of_list (List.rev (List.rev !cur :: !slots))

(* Emit the tracks' slots merged: slot 0 rides the enclosing round; in
   round i the first track with payload opens the round and every other
   payload piggybacks under its own label; a round with no payload in any
   track is a barrier, and consecutive barriers coalesce. *)
let merge t bufs =
  let slots = List.map slots_of bufs in
  let depth = List.fold_left (fun d s -> max d (Array.length s)) 0 slots in
  let barrier = ref None in
  let flush () =
    Option.iter (put t) !barrier;
    barrier := None
  in
  for i = 0 to depth - 1 do
    let evs =
      List.concat_map (fun s -> if i < Array.length s then s.(i) else []) slots
    in
    let opener = List.find_opt (fun e -> e.ev_op = Round) evs in
    (match (opener, !barrier) with
    | Some e, _ ->
        flush ();
        put t e
    | None, Some b -> barrier := Some { b with ev_rounds = b.ev_rounds + 1 }
    | None, None -> barrier := List.find_opt (fun e -> e.ev_op = Barrier) evs);
    List.iter
      (fun e ->
        match (e.ev_op, opener) with
        | Barrier, _ -> ()
        | Round, Some o when o == e -> ()
        | _ ->
            flush ();
            put t { e with ev_op = Traffic; ev_rounds = 0 })
      evs
  done;
  flush ()

let fuse t tracks =
  let bufs = ref [] in
  let run f =
    t.tracks <- [] :: t.tracks;
    let pop () =
      bufs := List.hd t.tracks :: !bufs;
      t.tracks <- List.tl t.tracks
    in
    match f () with
    | r ->
        pop ();
        r
    | exception e ->
        (* emit what was buffered, unmerged, so the meter stays live *)
        let bt = Printexc.get_raw_backtrace () in
        pop ();
        List.iter (put t) (List.rev (List.concat !bufs));
        Printexc.raise_with_backtrace e bt
  in
  let res = Array.map run tracks in
  merge t (List.rev !bufs);
  res

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

let pp_tally ppf (tl : tally) =
  Fmt.pf ppf "rounds=%d bits=%d msgs=%d (%.1f KiB)" tl.t_rounds tl.t_bits
    tl.t_messages
    (float_of_int tl.t_bits /. 8192.)
