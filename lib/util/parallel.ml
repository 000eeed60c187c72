(** Data-parallel execution of local vector work over persistent pools of
    OCaml 5 domains.

    ORQ's engine is data-parallel within each computing party (§4): workers
    operate on disjoint partitions of a vector. We mirror that with a
    chunked-parallel layer backed by *persistent* domain pools — workers
    are spawned once and parked on a condition variable between dispatches,
    so the per-call overhead is a lock/signal pair rather than a
    [Domain.spawn]/[join] (hundreds of µs) per operation. The calling
    domain participates in draining the span queue, so [k] configured
    lanes means [k] lanes of work, not [k + 1].

    Pools are {e per calling domain} (domain-local storage): the query
    service runs several execution workers, each in its own domain, and
    each gets its own private pool sized by {!set_lanes}. That is how
    intra-query data parallelism and inter-query concurrency compose
    without oversubscription — the service partitions the global
    [ORQ_DOMAINS] budget across its execution workers, and no two workers
    ever contend on pool state. Pool worker domains are permanently marked
    busy, so nested dispatch from inside a span runs sequentially instead
    of spawning pools-of-pools.

    The number of lanes defaults to 1 so unit tests are deterministic and
    cheap; benchmarks and the CLI enable more via {!set_num_domains} (or
    the [ORQ_DOMAINS] environment variable through {!init_from_env}). The
    minimum per-span element count that justifies a dispatch is
    configurable with {!set_min_chunk}.

    Only *local* (communication-free) loops go through this module: all
    {!Orq_net.Comm} metering and PRG consumption stays on the calling
    domain, which is what keeps traffic tallies and protocol randomness
    byte-identical whatever the lane count (asserted by the
    metering-invariance tests). *)

let num_domains = ref 1

(* Minimum per-lane element count that justifies a pool dispatch. The
   default comes from the micro-kernel calibration (DESIGN.md, "Parallel
   runtime"): memory-bound elementwise kernels need roughly 64k elements per
   lane before the lock/signal handoff and cross-core cache traffic pay
   for themselves; below that the sequential path wins. Only tests change
   it, through {!set_min_chunk}, to reach the pool at small sizes. *)
let min_chunk = ref 65536

let set_min_chunk c = min_chunk := max 1 c
let get_min_chunk () = !min_chunk

(** [chunks n k] splits [0, n) into at most [k] contiguous (pos, len) spans. *)
let chunks n k =
  let k = max 1 (min k n) in
  let base = n / k and rem = n mod k in
  List.init k (fun i ->
      let pos = (i * base) + min i rem in
      let len = base + if i < rem then 1 else 0 in
      (pos, len))

(* ------------------------------------------------------------------ *)
(* Per-domain lane budgets                                             *)
(* ------------------------------------------------------------------ *)

(* A domain-local lane override: service execution workers partition the
   global [num_domains] budget among themselves with [set_lanes]; domains
   with no override (the main domain, tests, the CLI) use the global
   setting. *)
let lanes_key : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_lanes n =
  let r = Domain.DLS.get lanes_key in
  r := if n <= 0 then None else Some (max 1 n)

let effective_lanes () =
  match !(Domain.DLS.get lanes_key) with Some n -> n | None -> !num_domains

(* ------------------------------------------------------------------ *)
(* Persistent worker pool (one per dispatching domain)                 *)
(* ------------------------------------------------------------------ *)

type pool = {
  m : Locked.t;
  ready : Condition.t;  (** work arrived, or shutdown requested *)
  finished : Condition.t;  (** all spans of the current dispatch completed *)
  mutable job : int -> int -> unit;
  mutable queue : (int * int) list;  (** unclaimed spans *)
  mutable pending : int;  (** spans claimed or queued, not yet completed *)
  mutable failed : exn option;  (** first exception raised by any span *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let pool_key : pool option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* True while this domain has a dispatch in flight. A span function that
   itself calls back into this module (nested data parallelism) must run
   sequentially: re-dispatching would clobber the active job. Pool worker
   domains are marked permanently busy for the same reason. *)
let busy_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let record_failure p e =
  Locked.with_lock p.m (fun () ->
      if p.failed = None then p.failed <- Some e)

(* One span completed (under the pool lock). *)
let span_done p =
  p.pending <- p.pending - 1;
  if p.pending = 0 then Condition.broadcast p.finished

let rec worker p =
  let task =
    Locked.with_lock p.m (fun () ->
        while p.queue = [] && not p.stop do
          Locked.wait p.m p.ready
        done;
        match p.queue with
        | (pos, len) :: rest ->
            p.queue <- rest;
            Some (p.job, pos, len)
        | [] -> None (* stop requested and the queue is drained *))
  in
  match task with
  | Some (f, pos, len) ->
      (try f pos len with e -> record_failure p e);
      Locked.with_lock p.m (fun () -> span_done p);
      worker p
  | None -> ()

let shutdown_pool () =
  let slot = Domain.DLS.get pool_key in
  match !slot with
  | None -> ()
  | Some p ->
      Locked.with_lock p.m (fun () ->
          p.stop <- true;
          Condition.broadcast p.ready);
      (* join outside the lock: never block on a domain while holding it *)
      List.iter Domain.join p.workers;
      slot := None

let exit_hook_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

(* The pool holds [lanes - 1] parked workers; the calling domain is the
   remaining lane. Created lazily on first parallel dispatch in each
   domain, torn down and respawned when the configured size changes. Each
   pool worker marks itself permanently busy so spans that re-enter this
   module run their nested loops sequentially. *)
let ensure_pool () =
  let lanes = effective_lanes () in
  let slot = Domain.DLS.get pool_key in
  match !slot with
  | Some p when List.length p.workers = lanes - 1 -> p
  | _ ->
      shutdown_pool ();
      let p =
        {
          m = Locked.create ~name:"parallel" ~rank:60 ();
          ready = Condition.create ();
          finished = Condition.create ();
          job = (fun _ _ -> ());
          queue = [];
          pending = 0;
          failed = None;
          stop = false;
          workers = [];
        }
      in
      p.workers <-
        List.init (lanes - 1) (fun _ ->
            Domain.spawn (fun () ->
                Domain.DLS.get busy_key := true;
                worker p));
      slot := Some p;
      let hooked = Domain.DLS.get exit_hook_key in
      if not !hooked then begin
        hooked := true;
        (* per-domain: tears the pool down when this domain terminates
           (at program exit for the main domain) *)
        Domain.at_exit shutdown_pool
      end;
      p

let set_num_domains n =
  let n = max 1 n in
  if n <> !num_domains then begin
    num_domains := n;
    (* resize lazily at the next dispatch; tear down eagerly when going
       sequential so no idle domains outlive their use *)
    if n = 1 then shutdown_pool ()
  end

let get_num_domains () = !num_domains

let init_from_env () =
  match Sys.getenv_opt "ORQ_DOMAINS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n -> set_num_domains n
      | None -> ())
  | None -> ()

(* Publish spans, drain the queue from the calling domain too, then wait
   for stragglers. The first exception raised by any span is re-raised
   here once every span has completed. *)
let dispatch p spans f =
  let busy = Domain.DLS.get busy_key in
  busy := true;
  Locked.with_lock p.m (fun () ->
      p.job <- f;
      p.queue <- spans;
      p.pending <- List.length spans;
      Condition.broadcast p.ready);
  let rec drain () =
    let claimed =
      Locked.with_lock p.m (fun () ->
          match p.queue with
          | (pos, len) :: rest ->
              p.queue <- rest;
              Some (pos, len)
          | [] -> None)
    in
    match claimed with
    | Some (pos, len) ->
        (try f pos len with e -> record_failure p e);
        Locked.with_lock p.m (fun () -> span_done p);
        drain ()
    | None ->
        Locked.with_lock p.m (fun () ->
            while p.pending > 0 do
              Locked.wait p.m p.finished
            done)
  in
  drain ();
  let fail =
    Locked.with_lock p.m (fun () ->
        let e = p.failed in
        p.failed <- None;
        e)
  in
  busy := false;
  match fail with Some e -> raise e | None -> ()

(** [run_spans n f] calls [f pos len] for each chunk of [0, n), on this
    domain's pool when more than one lane is configured and every lane
    gets at least {!set_min_chunk} elements; below that the dispatch
    overhead exceeds the parallel win, so the call runs sequentially on
    the calling domain instead of shrinking the lane count. [f] must only
    write to disjoint output ranges determined by its span. *)
let run_spans n f =
  let d = effective_lanes () in
  if d <= 1 || n < d * !min_chunk || !(Domain.DLS.get busy_key) then f 0 n
  else dispatch (ensure_pool ()) (chunks n d) f

(** [run_tasks k f] runs the indexed tasks [f 0 .. f (k-1)] on the pool
    (sequentially when only one lane is configured). Used for blocked
    algorithms — e.g. the two-pass parallel prefix sum — that need an
    explicit chunk decomposition shared across phases. *)
let run_tasks k f =
  let d = effective_lanes () in
  if d <= 1 || k <= 1 || !(Domain.DLS.get busy_key) then
    for i = 0 to k - 1 do
      f i
    done
  else dispatch (ensure_pool ()) (List.init k (fun i -> (i, 1))) (fun pos _ -> f pos)
