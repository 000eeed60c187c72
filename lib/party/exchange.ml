(** Per-peer exchange layer: turns the {!Orq_net.Comm.channel} metering
    hooks into real framed messages on the party mesh.

    {b Model.} The engine is a deterministic lockstep simulation: every
    party runs the identical execution, so control flow, metering, and
    results agree bit-for-bit across the cluster. What a real deployment
    adds is the wire: at every metered round boundary this layer batches
    the round's payloads into {e one} framed message per party, sends it
    to the party's ring successor, and blocks until the matching message
    arrives from its predecessor — a physical lockstep barrier whose
    exchange count equals the metered round count by construction.

    {b Flow.} [ch_round] flushes the previous round and opens a new one;
    [ch_traffic] batches into the open round (vectorized piggybacking:
    more payload, same exchange); [ch_barrier k] performs [k] empty
    exchanges. Fused tracks reach the hooks already merged round by
    round ({!Orq_net.Comm.fuse}), so physical exchanges equal metered
    rounds; [ch_refund] is retired and a no-op here.

    {b Payload split.} A metered round carries [bits] summed over all
    parties; party [p] of [n] puts [bits/n] (plus one bit-group of the
    remainder when [p < bits mod n]) on the wire, so the cluster-wide
    measured payload reproduces the metered total exactly.

    {b Divergence detection.} Each message carries the metered totals of
    its round; the receiver checks them against its own. Any cross-party
    drift (seed mismatch slipping past the handshake, nondeterminism) is
    caught at the first differing round, not as a garbled result.

    {b Deadlock freedom.} A dedicated receiver thread per peer drains
    the socket into a queue, so peers never block writing to a party
    that is still computing; the execution thread only ever blocks on
    its predecessor's queue. *)

module Comm = Orq_net.Comm
module Locked = Orq_util.Locked

exception Exchange_error = Pwire.Party_error

let fail fmt = Printf.ksprintf (fun s -> raise (Exchange_error s)) fmt

(* One connected peer: the receiver thread pushes every incoming mesh
   message into [q]; [dead] flips on EOF or a receive error. *)
type peer = {
  pr_id : int;
  pr_fd : Unix.file_descr;
  pr_q : Pwire.msg Queue.t;
  pr_m : Locked.t;
  pr_c : Condition.t;
  mutable pr_dead : string option;  (** reason, once the peer is gone *)
  mutable pr_thread : Thread.t option;
}

(* Measured on-the-wire counters, reset per query. *)
type measured = {
  mutable mx_exchanges : int;
  mutable mx_bits : int;  (** this party's share of the metered bits *)
  mutable mx_msgs : int;
  mutable mx_payload : int;  (** payload bytes actually framed *)
  mutable mx_frames : int;  (** mesh frames sent this query *)
}

type t = {
  party : int;
  parties : int;
  peers : peer option array;  (** indexed by party id; own slot [None] *)
  verbose : bool;
  mutable seq : int;  (** exchange sequence within the current query *)
  (* the currently-open metered round, not yet flushed *)
  mutable pend_open : bool;
  mutable pend_events : int;
  mutable pend_bits : int;
  mutable pend_msgs : int;
  mx : measured;
}

let logf t fmt =
  Printf.ksprintf
    (fun s ->
      if t.verbose then Printf.eprintf "[party %d] %s\n%!" t.party s)
    fmt

(* ------------------------------------------------------------------ *)
(* Peer receiver threads                                               *)
(* ------------------------------------------------------------------ *)

let peer_mark_dead (p : peer) reason =
  Locked.with_lock p.pr_m (fun () ->
      if p.pr_dead = None then p.pr_dead <- Some reason;
      Condition.broadcast p.pr_c)

let receiver_loop (p : peer) () =
  let rec loop () =
    match Pwire.recv p.pr_fd with
    | None -> peer_mark_dead p "peer closed the connection"
    | Some m ->
        Locked.with_lock p.pr_m (fun () ->
            Queue.push m p.pr_q;
            Condition.broadcast p.pr_c);
        loop ()
    | exception e -> peer_mark_dead p (Printexc.to_string e)
  in
  loop ()

(* The [fail] inside the region is fine: [with_lock] releases on raise. *)
let pop_msg (p : peer) : Pwire.msg =
  Locked.with_lock p.pr_m (fun () ->
      let rec wait () =
        if not (Queue.is_empty p.pr_q) then Queue.pop p.pr_q
        else
          match p.pr_dead with
          | Some reason -> fail "lost peer %d: %s" p.pr_id reason
          | None ->
              Locked.wait p.pr_m p.pr_c;
              wait ()
      in
      wait ())

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ~party ~parties ?(verbose = false)
    (conns : (int * Unix.file_descr) list) : t =
  if List.length conns <> parties - 1 then
    fail "party %d: %d peer connections for a %d-party mesh" party
      (List.length conns) parties;
  let peers = Array.make parties None in
  List.iter
    (fun (id, fd) ->
      if id < 0 || id >= parties || id = party then
        fail "party %d: bad peer id %d" party id;
      if peers.(id) <> None then fail "party %d: duplicate peer %d" party id;
      let p =
        {
          pr_id = id;
          pr_fd = fd;
          pr_q = Queue.create ();
          pr_m = Locked.create ~name:"exchange" ~rank:50 ();
          pr_c = Condition.create ();
          pr_dead = None;
          pr_thread = None;
        }
      in
      p.pr_thread <- Some (Thread.create (receiver_loop p) ());
      peers.(id) <- Some p)
    conns;
  {
    party;
    parties;
    peers;
    verbose;
    seq = 0;
    pend_open = false;
    pend_events = 0;
    pend_bits = 0;
    pend_msgs = 0;
    mx =
      {
        mx_exchanges = 0;
        mx_bits = 0;
        mx_msgs = 0;
        mx_payload = 0;
        mx_frames = 0;
      };
  }

let peer t id =
  match t.peers.(id) with
  | Some p -> p
  | None -> fail "party %d: no connection to peer %d" t.party id

let succ t = (t.party + 1) mod t.parties
let pred t = (t.party + t.parties - 1) mod t.parties

(* Party [p]'s share of a cluster-total quantity: [total/n] plus one unit
   of the remainder for the lowest-numbered parties, so shares sum to
   [total] exactly. *)
let share_of ~party ~parties total =
  (total / parties) + (if party < total mod parties then 1 else 0)

(* ------------------------------------------------------------------ *)
(* The ring exchange                                                   *)
(* ------------------------------------------------------------------ *)

(* Payload filler: the simulation holds all shares in-process, so the
   bytes themselves carry no secret — only their count is meaningful
   (and gated). A fixed pattern keeps frames cheap to build and obvious
   in a packet capture. *)
let payload_byte = '\xa5'

let exchange t ~events ~bits ~msgs =
  let my_bits = share_of ~party:t.party ~parties:t.parties bits in
  let my_msgs = share_of ~party:t.party ~parties:t.parties msgs in
  let payload = String.make ((my_bits + 7) / 8) payload_byte in
  let out =
    Pwire.Round_p
      { r_seq = t.seq; r_events = events; r_bits = bits; r_msgs = msgs;
        r_payload = payload }
  in
  Pwire.send (peer t (succ t)).pr_fd out;
  (match pop_msg (peer t (pred t)) with
  | Pwire.Round_p r ->
      if r.r_seq <> t.seq then
        fail "party %d: exchange out of step: got seq %d, expected %d"
          t.party r.r_seq t.seq;
      if r.r_events <> events || r.r_bits <> bits || r.r_msgs <> msgs then
        fail
          "party %d: cross-party divergence at exchange %d: peer %d metered \
           (events=%d bits=%d msgs=%d), we metered (events=%d bits=%d \
           msgs=%d)"
          t.party t.seq (pred t) r.r_events r.r_bits r.r_msgs events bits msgs;
      let want =
        (share_of ~party:(pred t) ~parties:t.parties bits + 7) / 8
      in
      if String.length r.r_payload <> want then
        fail "party %d: exchange %d: peer %d sent %d payload bytes, want %d"
          t.party t.seq (pred t)
          (String.length r.r_payload)
          want
  | m ->
      fail "party %d: expected a round frame at exchange %d, got %s" t.party
        t.seq (Pwire.msg_label m));
  t.seq <- t.seq + 1;
  t.mx.mx_exchanges <- t.mx.mx_exchanges + 1;
  t.mx.mx_bits <- t.mx.mx_bits + my_bits;
  t.mx.mx_msgs <- t.mx.mx_msgs + my_msgs;
  t.mx.mx_payload <- t.mx.mx_payload + String.length payload;
  t.mx.mx_frames <- t.mx.mx_frames + 1

let flush t =
  if t.pend_open then begin
    let events = t.pend_events
    and bits = t.pend_bits
    and msgs = t.pend_msgs in
    t.pend_open <- false;
    t.pend_events <- 0;
    t.pend_bits <- 0;
    t.pend_msgs <- 0;
    exchange t ~events ~bits ~msgs
  end

(* ------------------------------------------------------------------ *)
(* The Comm.channel hooks                                              *)
(* ------------------------------------------------------------------ *)

(* A new metered round closes the previous exchange and opens a fresh
   one; traffic piggybacks on whatever round is open (a traffic event
   with no open round — legal but unusual — opens one, so its bytes
   still reach the wire at the next boundary). *)
let channel (t : t) : Comm.channel =
  {
    Comm.ch_round =
      (fun ~bits ~messages ->
        flush t;
        t.pend_open <- true;
        t.pend_events <- 1;
        t.pend_bits <- bits;
        t.pend_msgs <- messages);
    ch_traffic =
      (fun ~bits ~messages ->
        if not t.pend_open then t.pend_open <- true;
        t.pend_events <- t.pend_events + 1;
        t.pend_bits <- t.pend_bits + bits;
        t.pend_msgs <- t.pend_msgs + messages);
    ch_barrier =
      (fun k ->
        flush t;
        for _ = 1 to k do
          exchange t ~events:0 ~bits:0 ~msgs:0
        done);
    ch_refund = ignore;
  }

(* ------------------------------------------------------------------ *)
(* Query framing: reset / fence                                        *)
(* ------------------------------------------------------------------ *)

let reset_query t =
  t.seq <- 0;
  t.pend_open <- false;
  t.pend_events <- 0;
  t.pend_bits <- 0;
  t.pend_msgs <- 0;
  t.mx.mx_exchanges <- 0;
  t.mx.mx_bits <- 0;
  t.mx.mx_msgs <- 0;
  t.mx.mx_payload <- 0;
  t.mx.mx_frames <- 0

let broadcast t (m : Pwire.msg) =
  Array.iter
    (function Some p -> Pwire.send p.pr_fd m | None -> ())
    t.peers

(** End-of-query barrier: flush the open round, broadcast our fence, and
    collect every peer's. Verifies that all parties metered the same
    tally and digested the same result — any divergence the per-round
    checks missed is caught here. Returns the fences indexed by party
    (our own included). *)
let fence t ~qid ~(tally : Comm.tally) ~digest : Pwire.fence array =
  flush t;
  let own =
    {
      Pwire.f_qid = qid;
      f_party = t.party;
      f_rounds = tally.Comm.t_rounds;
      f_bits = tally.Comm.t_bits;
      f_msgs = tally.Comm.t_messages;
      f_digest = digest;
      f_exchanges = t.mx.mx_exchanges;
      f_sent_bits = t.mx.mx_bits;
      f_sent_msgs = t.mx.mx_msgs;
      f_payload_bytes = t.mx.mx_payload;
      f_frames = t.mx.mx_frames;
    }
  in
  (* the physical lockstep property, checked locally on every party:
     exactly one exchange per metered round *)
  if own.f_exchanges <> own.f_rounds then
    fail "party %d: query %d: %d physical exchanges <> %d metered rounds"
      t.party qid own.f_exchanges own.f_rounds;
  broadcast t (Pwire.Fence_p own);
  let fences = Array.make t.parties own in
  for id = 0 to t.parties - 1 do
    if id <> t.party then begin
      match pop_msg (peer t id) with
      | Pwire.Fence_p f ->
          if f.Pwire.f_qid <> qid then
            fail "party %d: fence for query %d from peer %d, expected %d"
              t.party f.Pwire.f_qid id qid;
          if
            f.Pwire.f_rounds <> own.f_rounds
            || f.Pwire.f_bits <> own.f_bits
            || f.Pwire.f_msgs <> own.f_msgs
          then
            fail
              "party %d: query %d: peer %d metered \
               (rounds=%d bits=%d msgs=%d), we metered (rounds=%d bits=%d \
               msgs=%d)"
              t.party qid id f.Pwire.f_rounds f.Pwire.f_bits f.Pwire.f_msgs
              own.f_rounds own.f_bits own.f_msgs;
          if f.Pwire.f_digest <> own.f_digest then
            fail
              "party %d: query %d: result digest mismatch with peer %d \
               (%016x vs %016x)"
              t.party qid id f.Pwire.f_digest own.f_digest;
          fences.(id) <- f
      | m ->
          fail "party %d: expected a fence from peer %d, got %s" t.party id
            (Pwire.msg_label m)
    end
  done;
  logf t "query %d fenced: %d exchanges, %d payload bytes" qid
    own.f_exchanges own.f_payload_bytes;
  fences

(* ------------------------------------------------------------------ *)
(* Coordinator control messages                                        *)
(* ------------------------------------------------------------------ *)

let send_query t ~qid ~sql ~max_rows =
  broadcast t (Pwire.Query_c { q_qid = qid; q_sql = sql; q_max_rows = max_rows })

(** Block until the coordinator's next control message: [Some] query to
    execute, [None] on an orderly [Bye_p] or coordinator disconnect. *)
let recv_query t : (int * string * int) option =
  if t.party = 0 then fail "party 0 is the coordinator: no queries to receive";
  match pop_msg (peer t 0) with
  | Pwire.Query_c { q_qid; q_sql; q_max_rows } -> Some (q_qid, q_sql, q_max_rows)
  | Pwire.Bye_p -> None
  | m -> fail "party %d: expected a query from the coordinator, got %s"
           t.party (Pwire.msg_label m)
  | exception Exchange_error _ -> None

let send_bye t = try broadcast t Pwire.Bye_p with _ -> ()

let close t =
  Array.iter
    (function
      | Some p -> ( try Unix.close p.pr_fd with Unix.Unix_error _ -> ())
      | None -> ())
    t.peers;
  Array.iter
    (function
      | Some { pr_thread = Some th; _ } -> ( try Thread.join th with _ -> ())
      | _ -> ())
    t.peers
