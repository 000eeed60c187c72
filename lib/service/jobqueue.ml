(** Fair, prioritized, bounded job queue for the query service.

    See the interface for the scheduling contract. Internally each
    priority class holds one FIFO per client group plus a round-robin
    ring of group ids; [pop] serves classes strictly by priority and
    groups within a class in ring order, so no group can starve another
    within its class. *)

module Locked = Orq_util.Locked

type prio = High | Normal | Low

let prio_index = function High -> 0 | Normal -> 1 | Low -> 2
let prio_label = function High -> "high" | Normal -> "normal" | Low -> "low"

let prio_of_int = function
  | 0 -> Some High
  | 1 -> Some Normal
  | 2 -> Some Low
  | _ -> None

type 'a item = { it_v : 'a; it_pushed : float }

(* One priority class: per-group FIFOs and the round-robin ring of groups
   that currently have queued work. *)
type 'a cls = {
  fifos : (int, 'a item Queue.t) Hashtbl.t;
  ring : int Queue.t;
  mutable cls_depth : int;
}

let wait_ring_size = 512

type 'a t = {
  mutable capacity : int;
  classes : 'a cls array;  (** indexed by {!prio_index} *)
  mutable running : int;  (** popped but not yet finished *)
  mutable closed : bool;
  waits : float array;  (** ring of recent queue-wait samples, seconds *)
  mutable nwaits : int;  (** total samples ever recorded *)
  m : Locked.t;
  nonempty : Condition.t;  (** work arrived, [close] or [wake] *)
}

type counts = {
  c_depth : int;  (** queued, all classes *)
  c_running : int;
  c_by_class : int array;  (** queued per class, [|high; normal; low|] *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Jobqueue.create: negative capacity";
  {
    capacity;
    classes =
      Array.init 3 (fun _ ->
          { fifos = Hashtbl.create 16; ring = Queue.create (); cls_depth = 0 });
    running = 0;
    closed = false;
    waits = Array.make wait_ring_size 0.;
    nwaits = 0;
    m = Locked.create ~name:"jobqueue" ~rank:20 ();
    nonempty = Condition.create ();
  }

let with_lock t f = Locked.with_lock t.m f

let depth_unlocked t =
  t.classes.(0).cls_depth + t.classes.(1).cls_depth + t.classes.(2).cls_depth

let enqueue_unlocked t ~group ~prio x =
  let c = t.classes.(prio_index prio) in
  let q =
    match Hashtbl.find_opt c.fifos group with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace c.fifos group q;
        q
  in
  if Queue.is_empty q then Queue.push group c.ring;
  Queue.push { it_v = x; it_pushed = Unix.gettimeofday () } q;
  c.cls_depth <- c.cls_depth + 1;
  Condition.signal t.nonempty

let try_push t ~group ~prio x =
  with_lock t (fun () ->
      if t.closed || depth_unlocked t + t.running >= t.capacity then false
      else begin
        enqueue_unlocked t ~group ~prio x;
        true
      end)

(* Blocking admission: wait up to [timeout_s] for an in-flight slot. The
   stdlib [Condition] has no timed wait, so saturation is polled on a
   short period — the poll only runs while the server is at capacity, so
   it costs nothing on the fast path. Each probe is its own locked
   region and the sleep happens unlocked (the discipline forbids
   blocking calls under a held lock). *)
let push t ~group ~prio ~timeout_s x =
  let deadline = Unix.gettimeofday () +. Float.max 0. timeout_s in
  let rec attempt () =
    let r =
      with_lock t (fun () ->
          if t.closed then `Fail
          else if depth_unlocked t + t.running < t.capacity then begin
            enqueue_unlocked t ~group ~prio x;
            `Ok
          end
          else if Unix.gettimeofday () >= deadline then `Fail
          else `Retry)
    in
    match r with
    | `Ok -> true
    | `Fail -> false
    | `Retry ->
        Unix.sleepf 0.002;
        attempt ()
  in
  attempt ()

(* Pop the next item honoring priority order and the per-group ring. *)
let take_unlocked t =
  let rec from_class i =
    if i >= 3 then None
    else
      let c = t.classes.(i) in
      if Queue.is_empty c.ring then from_class (i + 1)
      else begin
        let g = Queue.pop c.ring in
        match Hashtbl.find_opt c.fifos g with
        | None -> from_class i (* stale ring entry; impossible, but safe *)
        | Some q ->
            let item = Queue.pop q in
            if Queue.is_empty q then Hashtbl.remove c.fifos g
            else Queue.push g c.ring;
            c.cls_depth <- c.cls_depth - 1;
            Some item
      end
  in
  from_class 0

let pop ?(should_stop = fun () -> false) t =
  with_lock t (fun () ->
      let rec wait () =
        if should_stop () then None
        else
          match take_unlocked t with
          | Some item ->
              t.running <- t.running + 1;
              t.waits.(t.nwaits mod wait_ring_size) <-
                Unix.gettimeofday () -. item.it_pushed;
              t.nwaits <- t.nwaits + 1;
              Some item.it_v
          | None ->
              if t.closed then None
              else begin
                Locked.wait t.m t.nonempty;
                wait ()
              end
      in
      wait ())

let finish t =
  with_lock t (fun () ->
      if t.running > 0 then t.running <- t.running - 1)

let wake t = with_lock t (fun () -> Condition.broadcast t.nonempty)

let in_flight t = with_lock t (fun () -> depth_unlocked t + t.running)

let counts t =
  with_lock t (fun () ->
      {
        c_depth = depth_unlocked t;
        c_running = t.running;
        c_by_class = Array.map (fun c -> c.cls_depth) t.classes;
      })

let capacity t = with_lock t (fun () -> t.capacity)

(* p50/p95 of the recorded wait samples (seconds); (0, 0) with no samples. *)
let wait_percentiles t =
  with_lock t (fun () ->
      let n = min t.nwaits wait_ring_size in
      if n = 0 then (0., 0.)
      else begin
        let s = Array.sub t.waits 0 n in
        Array.sort compare s;
        let at p =
          s.(min (n - 1) (int_of_float (Float.of_int (n - 1) *. p +. 0.5)))
        in
        (at 0.5, at 0.95)
      end)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let drain_remaining t =
  with_lock t (fun () ->
      let rec go acc =
        match take_unlocked t with
        | Some item -> go (item.it_v :: acc)
        | None -> List.rev acc
      in
      go [])
