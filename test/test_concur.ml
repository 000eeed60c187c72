(* Tests for the concurrency discipline: the static analyzer
   (lib/analysis/concur.ml + lockmap.ml) on seeded snippets, the runtime
   held-stack checker (lib/util/locked.ml) under ORQ_DEBUG_CHECKS, and
   regression stress tests for the two PR 9 chunk-store bugs — the
   finaliser mutex deadlock and the stale spill-slot read — both run
   with the runtime checker active. *)

module Concur = Orq_analysis.Concur
module Lockmap = Orq_analysis.Lockmap
module Locked = Orq_util.Locked
module Debug = Orq_util.Debug
module Chunkvec = Orq_util.Chunkvec

(* ------------------------------------------------------------------ *)
(* Static analyzer                                                     *)
(* ------------------------------------------------------------------ *)

let rules src ~filename =
  List.map
    (fun (f : Concur.finding) -> Lockmap.rule_label f.Concur.c_rule)
    (Concur.lint_string ~filename src)

let check_rules name expected ~filename src =
  Alcotest.(check (list string)) name expected (rules ~filename src)

let test_registry () =
  check_rules "raw Mutex.create" [ "registry" ] ~filename:"a.ml"
    "let m = Mutex.create ()";
  check_rules "unregistered name" [ "registry" ] ~filename:"a.ml"
    {|let a = Locked.create ~name:"nope" ~rank:5 ()|};
  check_rules "wrong rank" [ "registry" ] ~filename:"a.ml"
    {|let b = Locked.create ~name:"service" ~rank:11 ()|};
  check_rules "non-literal rank" [ "registry" ] ~filename:"a.ml"
    {|let r = 7
      let c = Locked.create ~name:"service" ~rank:r ()|};
  check_rules "registered create is clean" [] ~filename:"a.ml"
    {|let a = Locked.create ~name:"service" ~rank:10 ()|};
  check_rules "unstructured Locked.lock" [ "registry" ] ~filename:"a.ml"
    {|let a = Locked.create ~name:"service" ~rank:10 ()
      let f () = Locked.lock a|}

let lock_pair =
  {|let a = Locked.create ~name:"service" ~rank:10 ()
    let b = Locked.create ~name:"jobqueue" ~rank:20 ()
|}

let test_order () =
  check_rules "increasing ranks are clean" [] ~filename:"a.ml"
    (lock_pair
   ^ {|let ok () = Locked.with_lock a (fun () -> Locked.with_lock b (fun () -> 0))|}
    );
  check_rules "inversion" [ "order" ] ~filename:"a.ml"
    (lock_pair
   ^ {|let bad () = Locked.with_lock b (fun () -> Locked.with_lock a (fun () -> 0))|}
    );
  check_rules "same lock reentry" [ "order" ] ~filename:"a.ml"
    (lock_pair
   ^ {|let bad () = Locked.with_lock a (fun () -> Locked.with_lock a (fun () -> 0))|}
    );
  check_rules "wait on innermost is clean" [] ~filename:"a.ml"
    (lock_pair
   ^ {|let c = Condition.create ()
       let ok () = Locked.with_lock a (fun () -> Locked.with_lock b (fun () -> Locked.wait b c))|}
    );
  check_rules "wait on non-innermost" [ "order" ] ~filename:"a.ml"
    (lock_pair
   ^ {|let c = Condition.create ()
       let bad () = Locked.with_lock a (fun () -> Locked.with_lock b (fun () -> Locked.wait a c))|}
    )

(* The chunkvec idiom: a local [locked] wrapper, blocking I/O reached
   through a same-file helper. The identical source is a violation in an
   unknown module and clean in Chunkvec, where lockmap.ml carries the
   audited spill-I/O exemption for exactly that site. *)
let spill_src =
  {|let mutex = Locked.create ~name:"chunkvec" ~rank:70 ()
    let locked f = Locked.with_lock mutex (fun () -> f ())
    let write_slot fd b = ignore (Unix.write fd b 0 (Bytes.length b))
    let spill fd b = locked (fun () -> write_slot fd b)|}

let test_blocking () =
  check_rules "sleep under lock" [ "blocking" ] ~filename:"a.ml"
    (lock_pair ^ {|let bad () = Locked.with_lock a (fun () -> Unix.sleepf 0.1)|});
  check_rules "blocking through helper and wrapper" [ "blocking" ]
    ~filename:"mystore.ml" spill_src;
  check_rules "audited chunkvec spill site is exempt" []
    ~filename:"chunkvec.ml" spill_src;
  check_rules "sleep outside the region is clean" [] ~filename:"a.ml"
    (lock_pair
   ^ {|let ok () = Locked.with_lock a (fun () -> 0) + (Unix.sleepf 0.1; 1)|})

let test_shared () =
  check_rules "toplevel Hashtbl in Thread.create closure" [ "shared" ]
    ~filename:"a.ml"
    {|let tbl = Hashtbl.create 8
      let go () = Thread.create (fun () -> Hashtbl.replace tbl 1 2) ()|};
  check_rules "toplevel ref in Domain.spawn closure" [ "shared" ]
    ~filename:"a.ml"
    {|let hits = ref 0
      let go () = Domain.spawn (fun () -> incr hits)|};
  check_rules "Atomic state is clean" [] ~filename:"a.ml"
    {|let hits = Atomic.make 0
      let go () = Domain.spawn (fun () -> Atomic.incr hits)|};
  check_rules "local ref is clean" [] ~filename:"a.ml"
    {|let go () =
        let local = ref 0 in
        Thread.create (fun () -> incr local) ()|}

let test_finaliser () =
  let fin =
    {|let m = Locked.create ~name:"parallel" ~rank:60 ()
      let fin t = Locked.with_lock m (fun () -> ignore t)
|}
  in
  check_rules "guarded finaliser is clean" [] ~filename:"a.ml"
    (fin ^ {|let attach v = Gc.finalise (Locked.finaliser_guard fin) v|});
  check_rules "locking finaliser" [ "finaliser" ] ~filename:"a.ml"
    (fin ^ {|let attach v = Gc.finalise fin v|});
  check_rules "lock-free finaliser is clean" [] ~filename:"a.ml"
    {|let fin t = ignore t
      let attach v = Gc.finalise fin v|}

let test_lockmap () =
  let names = List.map (fun l -> l.Lockmap.lk_name) Lockmap.locks in
  let ranks = List.map (fun l -> l.Lockmap.lk_rank) Lockmap.locks in
  Alcotest.(check int)
    "names are distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int)
    "ranks are distinct (total order)"
    (List.length ranks)
    (List.length (List.sort_uniq compare ranks));
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (l.Lockmap.lk_name ^ " has a written justification")
        true
        (String.length l.Lockmap.lk_why > 40))
    Lockmap.locks;
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Lockmap.ex_site ^ " exemption has a written justification")
        true
        (String.length e.Lockmap.ex_why > 40))
    Lockmap.blocking_exempts;
  Alcotest.(check bool)
    "chunkvec is the innermost rank" true
    (List.for_all
       (fun l ->
         l.Lockmap.lk_name = "chunkvec"
         || l.Lockmap.lk_rank < (Option.get (Lockmap.rank_of "chunkvec")))
       Lockmap.locks)

(* ------------------------------------------------------------------ *)
(* Runtime checker                                                     *)
(* ------------------------------------------------------------------ *)

let with_checks f =
  let was = Debug.enabled () in
  Debug.set_checks true;
  Fun.protect ~finally:(fun () -> Debug.set_checks was) f

let raises_discipline f =
  match f () with
  | _ -> false
  | exception Locked.Discipline _ -> true

let test_runtime_order () =
  with_checks @@ fun () ->
  let a = Locked.create ~name:"outer" ~rank:10 () in
  let b = Locked.create ~name:"inner" ~rank:20 () in
  Locked.with_lock a (fun () ->
      Locked.with_lock b (fun () ->
          Alcotest.(check (list string))
            "held stack innermost-first" [ "inner"; "outer" ]
            (Locked.held_names ())));
  Alcotest.(check (list string)) "released" [] (Locked.held_names ());
  Alcotest.(check bool) "inversion raises" true
    (raises_discipline (fun () ->
         Locked.with_lock b (fun () -> Locked.with_lock a (fun () -> ()))));
  Alcotest.(check bool) "still consistent after the failure" true
    (Locked.held_names () = []);
  let b' = Locked.create ~name:"inner2" ~rank:20 () in
  Alcotest.(check bool) "equal rank raises" true
    (raises_discipline (fun () ->
         Locked.with_lock b (fun () -> Locked.with_lock b' (fun () -> ()))))

let test_runtime_wait () =
  with_checks @@ fun () ->
  let a = Locked.create ~name:"outer" ~rank:10 () in
  let b = Locked.create ~name:"inner" ~rank:20 () in
  let c = Condition.create () in
  Alcotest.(check bool) "wait without holding raises" true
    (raises_discipline (fun () -> Locked.wait a c));
  Alcotest.(check bool) "wait on non-innermost raises" true
    (raises_discipline (fun () ->
         Locked.with_lock a (fun () ->
             Locked.with_lock b (fun () -> Locked.wait a c))));
  (* the positive path: a real handoff through the innermost lock *)
  let flag = ref false in
  let th =
    Thread.create
      (fun () ->
        Thread.delay 0.02;
        Locked.with_lock b (fun () ->
            flag := true;
            Condition.broadcast c))
      ()
  in
  Locked.with_lock b (fun () ->
      while not !flag do
        Locked.wait b c
      done);
  Thread.join th;
  Alcotest.(check bool) "handoff completed" true !flag

let test_runtime_finaliser () =
  with_checks @@ fun () ->
  let a = Locked.create ~name:"outer" ~rank:10 () in
  Alcotest.(check bool) "guard forbids acquisition" true
    (raises_discipline (fun () ->
         Locked.finaliser_guard
           (fun () -> Locked.with_lock a (fun () -> ()))
           ()));
  (* lock-free bodies are fine, and the guard depth unwinds *)
  Locked.finaliser_guard ignore ();
  Locked.with_lock a (fun () -> ());
  Alcotest.(check (list string)) "consistent after guard" []
    (Locked.held_names ())

let test_checks_off () =
  let was = Debug.enabled () in
  Debug.set_checks false;
  Fun.protect ~finally:(fun () -> Debug.set_checks was) @@ fun () ->
  let a = Locked.create ~name:"outer" ~rank:10 () in
  let b = Locked.create ~name:"inner" ~rank:20 () in
  (* with checks off the wrapper is a plain mutex: no tracking, no raise *)
  Locked.with_lock b (fun () -> Locked.with_lock a (fun () -> ()));
  Alcotest.(check (list string)) "no tracking" [] (Locked.held_names ())

(* ------------------------------------------------------------------ *)
(* PR 9 regression stress tests (runtime checker active)               *)
(* ------------------------------------------------------------------ *)

(* run [f] with streaming knobs set and the runtime checker on,
   restoring all global state afterwards *)
let with_stress ?(rows = 7) ~budget f =
  with_checks @@ fun () ->
  let rows0 = Chunkvec.chunk_rows () in
  let budget0 = Chunkvec.budget () in
  let on0 = Chunkvec.streaming_enabled () in
  Chunkvec.set_chunk_rows rows;
  Chunkvec.set_budget budget;
  Fun.protect
    ~finally:(fun () ->
      Chunkvec.set_chunk_rows rows0;
      Chunkvec.set_budget budget0;
      Chunkvec.set_streaming on0)
    f

(* PR 9 bug 1: a GC finaliser firing while this very thread holds the
   store mutex used to deadlock; the fix hands dead chunks to a
   lock-free graveyard reaped on the next locked entry. Hammer exactly
   that path: allocate tracked vectors, drop the references, and force
   full majors while continually re-entering the store lock — with the
   runtime checker on, any finaliser that touched a registered lock
   would raise [Locked.Discipline] instead of deadlocking. *)
let test_finaliser_pressure () =
  with_stress ~rows:7 ~budget:(64 * 8) @@ fun () ->
  let keep = Chunkvec.of_array (Array.init 40 (fun i -> i * 3)) in
  for round = 1 to 60 do
    (* garbage: tracked vectors that die immediately *)
    for i = 0 to 20 do
      ignore (Chunkvec.of_array (Array.init 23 (fun j -> (round * 100) + i + j)))
    done;
    Gc.full_major ();
    (* re-enter the store lock (reaps the graveyard) under pressure *)
    let doubled =
      Chunkvec.of_array (Array.map (fun x -> x * 2) (Chunkvec.to_array keep))
    in
    Alcotest.(check int)
      "mapped under finaliser pressure" (2 * 3 * 39)
      (Chunkvec.to_array doubled).(39)
  done;
  Alcotest.(check (array int))
    "survivor intact after 60 rounds"
    (Array.init 40 (fun i -> i * 3))
    (Chunkvec.to_array keep);
  Chunkvec.dispose keep;
  Gc.full_major ()

(* PR 9 bug 2: spill slots freed on one budget and reused on another
   were read back stale through buffered channels; the fix uses one raw
   fd under the store lock. Churn eviction/fault cycles across shrinking
   and growing budgets so slots are freed and reused repeatedly, and
   check every vector still reads back exactly. *)
let test_spill_churn () =
  with_stress ~rows:5 ~budget:4096 @@ fun () ->
  let mk i = Array.init 37 (fun j -> (i * 1000) + j) in
  let vs = Array.init 8 (fun i -> (mk i, Chunkvec.of_array (mk i))) in
  let budgets = [| 120; 4096; 240; 80; 2048; 160 |] in
  for round = 0 to 29 do
    Chunkvec.set_budget budgets.(round mod Array.length budgets);
    Array.iteri
      (fun i (expect, v) ->
        (* fault every chunk back in and compare *)
        if round mod 2 = i mod 2 then
          Alcotest.(check (array int))
            (Printf.sprintf "round %d vector %d" round i)
            expect (Chunkvec.to_array v))
      vs;
    (* dying tracked garbage keeps the graveyard busy while slots churn *)
    ignore (Chunkvec.of_array (Array.init 31 (fun j -> round + j)));
    if round mod 5 = 0 then Gc.full_major ()
  done;
  let st = Chunkvec.stats () in
  Alcotest.(check bool) "the churn actually spilled" true (st.Chunkvec.st_spills > 0);
  Alcotest.(check bool) "the churn actually faulted" true (st.Chunkvec.st_faults > 0);
  Array.iter
    (fun (expect, v) ->
      Alcotest.(check (array int)) "final readback" expect (Chunkvec.to_array v);
      Chunkvec.dispose v)
    vs

let () =
  Alcotest.run "orq_concur"
    [
      ( "concur",
        [
          Alcotest.test_case "static: registry" `Quick test_registry;
          Alcotest.test_case "static: lock order" `Quick test_order;
          Alcotest.test_case "static: blocking under lock" `Quick test_blocking;
          Alcotest.test_case "static: shared mutability" `Quick test_shared;
          Alcotest.test_case "static: finaliser safety" `Quick test_finaliser;
          Alcotest.test_case "lockmap registry sanity" `Quick test_lockmap;
          Alcotest.test_case "runtime: rank order" `Quick test_runtime_order;
          Alcotest.test_case "runtime: wait discipline" `Quick test_runtime_wait;
          Alcotest.test_case "runtime: finaliser guard" `Quick
            test_runtime_finaliser;
          Alcotest.test_case "runtime: checks off" `Quick test_checks_off;
          Alcotest.test_case "stress: finaliser pressure" `Quick
            test_finaliser_pressure;
          Alcotest.test_case "stress: spill slot churn" `Quick test_spill_churn;
        ] );
    ]
