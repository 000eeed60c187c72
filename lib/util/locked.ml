(** Rank-carrying instrumented mutexes: the runtime half of the
    concurrency discipline (see DESIGN.md "Concurrency discipline").

    Every mutex in the engine is created through {!create} with a [name]
    and a [rank] drawn from the audited lock registry
    ([lib/analysis/lockmap.ml]); the static lint ([orq_lint concur])
    cross-checks each create site against the registry and forbids raw
    [Mutex.t] use outside this file. Acquisition is structured:
    {!with_lock} is the only sanctioned way to hold a lock, and
    {!wait} the only sanctioned way to block on a condition variable.

    Under [ORQ_DEBUG_CHECKS=1] ({!Debug.enabled}) every thread carries a
    held-lock stack and each acquisition is validated against the total
    lock order: taking a lock whose rank is lower than or equal to the
    rank of any lock already held fails fast with both lock names, as
    does any acquisition attempted from inside a GC finaliser
    ({!finaliser_guard}) — the two mechanical preconditions of the PR 9
    chunk-store deadlock. Running the whole test suite with checks on
    cross-checks the statically-derived lock graph against the
    acquisition orders that actually happen.

    The checker itself must be finaliser-safe: a finaliser can fire at
    any allocation point, including between two bookkeeping steps of the
    very thread it interrupts. All checker state is therefore per-thread
    (mutated only by its owner) and reached through a lock-free
    compare-and-swap registry — the checker never takes a lock of its
    own, so it can never recreate the deadlock class it polices. *)

exception Discipline of string
(** A violation of the runtime lock discipline: rank inversion, wait on
    a lock that is not the innermost held, or acquisition from a GC
    finaliser. Raised eagerly at the faulting operation (fail fast: the
    stack trace names the offending call site). *)

type t = { l_name : string; l_rank : int; l_m : Mutex.t }

let create ~name ~rank () =
  { l_name = name; l_rank = rank; l_m = Mutex.create () }

(* ---------------- per-thread checker state ---------------- *)

(* Mutated only by the owning thread; other threads never read it. The
   registry that maps thread keys to state is an immutable assoc list
   swapped by CAS, so lookups and insertions are lock-free (finalisers
   may re-enter this code at any allocation point). Entries are never
   removed: the leak is bounded by the number of distinct threads ever
   started, and the checker only runs in debug mode. *)
type tstate = {
  mutable held : t list;  (** innermost (highest rank) first *)
  mutable fin_depth : int;  (** > 0 while running a finaliser body *)
}

let states : ((int * int) * tstate) list Atomic.t = Atomic.make []

let thread_key () =
  ((Domain.self () :> int), Thread.id (Thread.self ()))

let rec assoc_opt key = function
  | [] -> None
  | (k, s) :: rest -> if k = key then Some s else assoc_opt key rest

let state_for key =
  match assoc_opt key (Atomic.get states) with
  | Some s -> s
  | None ->
      let rec add () =
        let old = Atomic.get states in
        (* a finaliser interleaved on this very thread may have inserted
           our key between the miss above and this CAS *)
        match assoc_opt key old with
        | Some s -> s
        | None ->
            let s = { held = []; fin_depth = 0 } in
            if Atomic.compare_and_set states old ((key, s) :: old) then s
            else add ()
      in
      add ()

let fail fmt = Printf.ksprintf (fun s -> raise (Discipline s)) fmt

let held_names () =
  if not (Debug.enabled ()) then []
  else
    let s = state_for (thread_key ()) in
    List.map (fun l -> l.l_name) s.held

(* ---------------- checked acquisition ---------------- *)

let check_order l (s : tstate) =
  if s.fin_depth > 0 then
    fail
      "Locked: GC finaliser tried to acquire %S (rank %d) — finalisers \
       must hand work off lock-free (graveyard pattern), never lock"
      l.l_name l.l_rank;
  match s.held with
  | top :: _ when top.l_rank >= l.l_rank ->
      fail
        "Locked: lock-order violation: acquiring %S (rank %d) while \
         holding %S (rank %d) — the registry (lockmap.ml) requires \
         strictly increasing ranks"
        l.l_name l.l_rank top.l_name top.l_rank
  | _ -> ()

(* Remove the first physical occurrence; tolerate absence (checks may
   have been enabled mid-hold). The fast path — unlocking the innermost
   lock — allocates nothing. *)
let rec remove l = function
  | [] -> []
  | x :: rest -> if x == l then rest else x :: remove l rest

let lock l =
  if Debug.enabled () then begin
    let s = state_for (thread_key ()) in
    check_order l s;
    Mutex.lock l.l_m;
    s.held <- l :: s.held
  end
  else Mutex.lock l.l_m

let unlock l =
  if Debug.enabled () then begin
    let s = state_for (thread_key ()) in
    s.held <- remove l s.held
  end;
  Mutex.unlock l.l_m

let with_lock l f =
  lock l;
  Fun.protect ~finally:(fun () -> unlock l) f

let wait l c =
  if Debug.enabled () then begin
    let s = state_for (thread_key ()) in
    match s.held with
    | top :: _ when top == l -> ()
    | top :: _ ->
        fail
          "Locked: waiting on %S while %S is the innermost lock held — \
           wait only on the lock you hold innermost"
          l.l_name top.l_name
    | [] ->
        fail "Locked: waiting on %S without holding it" l.l_name
  end;
  (* Condition.wait releases and re-acquires [l]'s mutex; the held stack
     is deliberately left unchanged — the locked region logically
     continues across the wait. *)
  Condition.wait c l.l_m

let finaliser_guard f x =
  if not (Debug.enabled ()) then f x
  else begin
    let s = state_for (thread_key ()) in
    s.fin_depth <- s.fin_depth + 1;
    Fun.protect
      ~finally:(fun () -> s.fin_depth <- s.fin_depth - 1)
      (fun () -> f x)
  end
