(* Tests for the query service subsystem: wire-protocol round-trips, the
   fair prioritized job queue, SQL normalization, and the live server over
   Unix-domain sockets — concurrent clients with independent results,
   admission-control rejection, plan-cache hit ≡ cold execution,
   single-flight coalescing, worker-count-independent tallies, per-group
   fairness, graceful shutdown, client receive timeouts, and survival of
   mid-query client disconnects and malformed frames. *)

open Orq_proto
open Orq_core
open Orq_workloads
module Wire = Orq_net.Wire
module Service = Orq_service.Service
module Client = Orq_service.Client
module Jobqueue = Orq_service.Jobqueue
module Plan_cache = Orq_service.Plan_cache

let rows_t = Alcotest.(list (list int))

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let roundtrip_response (r : Wire.response) : Wire.response =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  Wire.send_response a r;
  Option.get (Wire.recv_response b)

let roundtrip_request (r : Wire.request) : Wire.request =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  Wire.send_request a r;
  Option.get (Wire.recv_request b)

let test_wire_requests () =
  List.iter
    (fun r -> assert (roundtrip_request r = r))
    [
      Wire.Hello
        {
          h_version = Wire.protocol_version;
          h_proto = "sh-dm";
          h_client = "";
        };
      Wire.Hello
        { h_version = 1; h_proto = "mal-hm"; h_client = "analytics-team" };
      Wire.Query { q_sql = "SELECT x FROM t"; q_prio = 1 };
      Wire.Query { q_sql = "SELECT y FROM u"; q_prio = 0 };
      Wire.Query { q_sql = "SELECT z FROM v"; q_prio = 2 };
      Wire.Ping;
      Wire.Stats_req;
      Wire.Set_workers 8;
      Wire.Net_stats_req;
      Wire.Explain "SELECT a FROM t JOIN u ON a = b";
    ]

let test_wire_responses () =
  let result =
    Wire.Result
      {
        r_cols = [ "a"; "b" ];
        r_rows = [ [ 1; -7 ]; [ max_int; min_int + 1 ] ];
        r_truncated = true;
        r_fallbacks = 2;
        r_cache_hit = false;
        r_tally = { Orq_net.Comm.t_rounds = 3; t_bits = 12345; t_messages = 9 };
        r_pre = Orq_net.Comm.zero_tally;
        (* >= 2.0 exercises the full-64-bit float path (sign-bit bug) *)
        r_lan_s = 3.875;
        r_wan_s = 0.0125;
        r_peak_bytes = 123_456_789;
        r_spills = 11;
      }
  in
  List.iter
    (fun r -> assert (roundtrip_response r = r))
    [
      Wire.Hello_ok { session = 7; proto = "SH-HM" };
      result;
      Wire.Error_r { code = Wire.Busy; msg = "queue full" };
      Wire.Pong;
      Wire.Stats_r
        {
          s_sessions = 1;
          s_workers = 8;
          s_jobs = 2;
          s_rejected = 3;
          s_cache_hits = 4;
          s_cache_misses = 5;
          s_coalesced = 6;
          s_queue_depth = 7;
          s_in_flight = 9;
          s_wait_p50_ms = 0.5;
          s_wait_p95_ms = 12.25;
          s_exec_p50_ms = 3.875;
          s_exec_p95_ms = 100.0625;
          s_mem_live_bytes = 10_485_760;
          s_mem_peak_bytes = 1 lsl 40;
          s_mem_spilled_bytes = 987_654_321;
          s_rss_peak_kb = 204_800;
        };
      Wire.Explain_r
        {
          e_mode = "auto";
          e_profile = "LAN";
          e_fallbacks = 1;
          e_joins =
            [
              {
                je_node = "customer \xe2\x8b\x88 orders";
                je_variant = "inner";
                je_n = 150;
                je_m = 1500;
                je_chosen = "linear";
                je_forced = false;
                je_cands =
                  [
                    {
                      jc_op = "sort";
                      jc_rounds = 159;
                      jc_bits = 7_682_436;
                      jc_messages = 744;
                      jc_est_s = 0.048;
                    };
                    {
                      jc_op = "linear";
                      jc_rounds = 21;
                      jc_bits = 3_691_881;
                      jc_messages = 216;
                      jc_est_s = 2.5;
                    };
                  ];
              };
              {
                je_node = "nation \xe2\x8b\x89 region";
                je_variant = "semi";
                je_n = 5;
                je_m = 25;
                je_chosen = "sort";
                je_forced = true;
                je_cands = [];
              };
            ];
        };
    ]

let test_wire_rejects_oversized () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  (* a hostile length prefix larger than max_frame must raise before any
     allocation of that size *)
  let hdr = Bytes.of_string "\xff\xff\xff\xff" in
  assert (Unix.write a hdr 0 4 = 4);
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  Alcotest.check_raises "oversized frame"
    (Wire.Wire_error
       (Printf.sprintf "frame length %d exceeds max_frame" 0xffffffff))
    (fun () -> ignore (Wire.recv_request b))

(* ------------------------------------------------------------------ *)
(* Job queue and plan cache                                            *)
(* ------------------------------------------------------------------ *)

(* Non-blocking admission: a zero timeout fails at once when full. *)
let try_push q ~group ~prio x = Jobqueue.push q ~group ~prio ~timeout_s:0. x

let test_jobqueue_admission () =
  let q = Jobqueue.create ~capacity:2 in
  assert (try_push q ~group:1 ~prio:Jobqueue.Normal 1);
  assert (try_push q ~group:1 ~prio:Jobqueue.Normal 2);
  Alcotest.(check bool)
    "full" false
    (try_push q ~group:1 ~prio:Jobqueue.Normal 3);
  (* blocking admission times out while the queue stays full *)
  Alcotest.(check bool)
    "push times out" false
    (Jobqueue.push q ~group:1 ~prio:Jobqueue.Normal ~timeout_s:0.05 3);
  (* popping moves a job to 'running': still counted in-flight *)
  assert (Jobqueue.pop q = Some 1);
  Alcotest.(check bool)
    "still full" false
    (try_push q ~group:1 ~prio:Jobqueue.Normal 3);
  Jobqueue.finish q;
  Alcotest.(check bool)
    "slot freed" true
    (try_push q ~group:1 ~prio:Jobqueue.Normal 3);
  Jobqueue.close q;
  Alcotest.(check bool)
    "closed" false
    (try_push q ~group:1 ~prio:Jobqueue.Normal 4);
  (* close drains the queue before returning None *)
  assert (Jobqueue.pop q = Some 2);
  assert (Jobqueue.pop q = Some 3);
  assert (Jobqueue.pop q = None)

let test_jobqueue_priorities () =
  let q = Jobqueue.create ~capacity:10 in
  assert (try_push q ~group:1 ~prio:Jobqueue.Low "low");
  assert (try_push q ~group:1 ~prio:Jobqueue.Normal "normal");
  assert (try_push q ~group:1 ~prio:Jobqueue.High "high");
  Alcotest.(check (option string)) "high first" (Some "high") (Jobqueue.pop q);
  Alcotest.(check (option string)) "then normal" (Some "normal") (Jobqueue.pop q);
  Alcotest.(check (option string)) "then low" (Some "low") (Jobqueue.pop q)

let test_jobqueue_group_fairness () =
  let q = Jobqueue.create ~capacity:10 in
  (* group 1 floods three jobs before group 2's single job arrives *)
  List.iter
    (fun x -> assert (try_push q ~group:1 ~prio:Jobqueue.Normal x))
    [ "a1"; "a2"; "a3" ];
  assert (try_push q ~group:2 ~prio:Jobqueue.Normal "b1");
  Alcotest.(check (option string)) "g1 head" (Some "a1") (Jobqueue.pop q);
  (* round-robin: the other group is served before the flood's backlog *)
  Alcotest.(check (option string)) "g2 next" (Some "b1") (Jobqueue.pop q);
  Alcotest.(check (option string)) "back to g1" (Some "a2") (Jobqueue.pop q);
  Alcotest.(check (option string)) "g1 tail" (Some "a3") (Jobqueue.pop q)

let test_normalize () =
  let n = Plan_cache.normalize in
  Alcotest.(check string)
    "whitespace and keyword case"
    (n "SELECT a, COUNT(*) AS n FROM t GROUP BY a")
    (n "select   a ,\n count( * ) as n\tfrom t group by a");
  Alcotest.(check bool)
    "different queries stay different" false
    (n "SELECT a FROM t" = n "SELECT b FROM t")

(* ------------------------------------------------------------------ *)
(* Live server                                                         *)
(* ------------------------------------------------------------------ *)

let counter = ref 0

let with_server ?(workers = 1) ?(max_jobs = 4) ?(max_rows = 10_000)
    ?(cache = 64) ?(admit_s = 2.0) ?(drain_s = 5.0) ?job_hook f =
  incr counter;
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "orq-test-%d-%d.sock" (Unix.getpid ()) !counter)
  in
  let cfg =
    {
      Service.socket_path;
      sf = 0.001;
      seed = 42;
      workers;
      max_jobs;
      max_rows;
      cache_capacity = cache;
      admit_timeout_s = admit_s;
      drain_timeout_s = drain_s;
      pace = None;
      prewarm = [];
      verbose = false;
      job_hook;
    }
  in
  let t = Service.start cfg in
  Fun.protect ~finally:(fun () -> Service.stop t) (fun () -> f t socket_path)

(* Reference results straight through the planner on the same catalog
   (same seed and scale factor as the server). *)
let expected_rows sql =
  let ctx = Ctx.create ~seed:42 Ctx.Sh_hm in
  let db = Tpch_gen.share ctx (Tpch_gen.generate ~seed:42 0.001) in
  let t, cols, _ = Orq_planner.Sql.run (Tpch_gen.catalog db) sql in
  Table.valid_rows_sorted t cols

let query_ok c sql =
  match Client.query c sql with
  | Ok r -> r
  | Error (code, msg) ->
      Alcotest.failf "query failed (%s): %s" (Wire.err_label code) msg

let test_concurrent_clients () =
  let cases =
    [
      "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY \
       o_orderpriority";
      "SELECT c_mktsegment, COUNT(*) AS n FROM customer GROUP BY \
       c_mktsegment";
      "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey";
    ]
  in
  let expected = List.map expected_rows cases in
  with_server ~workers:2 @@ fun _ socket ->
  let results = Array.make (List.length cases) [] in
  let threads =
    List.mapi
      (fun i sql ->
        Thread.create
          (fun () ->
            let c = Client.connect socket in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            (match Client.set_protocol c "sh-hm" with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "hello: %s" m);
            results.(i) <- (query_ok c sql).Wire.r_rows)
          ())
      cases
  in
  List.iter Thread.join threads;
  List.iteri
    (fun i exp ->
      Alcotest.(check rows_t)
        (Printf.sprintf "client %d rows" i)
        exp results.(i))
    expected

let test_per_session_protocol () =
  with_server @@ fun _ socket ->
  let sql = "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey" in
  let run proto =
    let c = Client.connect socket in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match Client.set_protocol c proto with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "hello: %s" m);
    query_ok c sql
  in
  let r2 = run "sh-dm" and r3 = run "sh-hm" and r4 = run "mal-hm" in
  Alcotest.(check rows_t) "2pc = 3pc rows" r2.Wire.r_rows r3.Wire.r_rows;
  Alcotest.(check rows_t) "3pc = 4pc rows" r3.Wire.r_rows r4.Wire.r_rows;
  (* different protocols really ran: their traffic differs *)
  Alcotest.(check bool)
    "2pc and 4pc tallies differ" false
    (r2.Wire.r_tally = r4.Wire.r_tally)

let test_admission_control () =
  with_server ~max_jobs:1 ~cache:0 ~admit_s:0.05
    ~job_hook:(fun () -> Thread.delay 0.4)
  @@ fun _ socket ->
  let sql = "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey" in
  let slow_result = ref None in
  let slow =
    Thread.create
      (fun () ->
        let c = Client.connect socket in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        slow_result := Some (Client.query c sql))
      ()
  in
  Thread.delay 0.15;
  (* the single in-flight slot is taken: admission control must refuse
     once the (shortened) admit timeout expires *)
  let c = Client.connect socket in
  (match Client.query c sql with
  | Error (Wire.Busy, msg) ->
      (* graceful backpressure: the refusal reports queue numbers *)
      Alcotest.(check bool)
        "busy message carries depth info" true
        (String.length msg > 0
        && String.index_opt msg ':' <> None)
  | Ok _ -> Alcotest.fail "expected busy rejection, got a result"
  | Error (code, msg) ->
      Alcotest.failf "expected busy, got %s: %s" (Wire.err_label code) msg);
  Client.close c;
  Thread.join slow;
  (match !slow_result with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "admitted query should still succeed");
  (* and the server accepts work again afterwards *)
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (query_ok c sql)

let test_plan_cache_hit_equals_cold () =
  with_server @@ fun _ socket ->
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let cold =
    query_ok c
      "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY \
       o_orderpriority"
  in
  Alcotest.(check bool) "cold miss" false cold.Wire.r_cache_hit;
  (* same query, different whitespace and keyword case: normalized key *)
  let hit =
    query_ok c
      "select   o_orderpriority, count(*) as n\n\
       from orders group by o_orderpriority"
  in
  Alcotest.(check bool) "hit" true hit.Wire.r_cache_hit;
  Alcotest.(check rows_t) "identical table" cold.Wire.r_rows hit.Wire.r_rows;
  Alcotest.(check (list string)) "identical cols" cold.Wire.r_cols hit.Wire.r_cols;
  Alcotest.(check bool)
    "identical online tally" true
    (cold.Wire.r_tally = hit.Wire.r_tally);
  Alcotest.(check bool)
    "identical preprocessing tally" true
    (cold.Wire.r_pre = hit.Wire.r_pre);
  Alcotest.(check bool)
    "identical netsim estimates" true
    (cold.Wire.r_lan_s = hit.Wire.r_lan_s
    && cold.Wire.r_wan_s = hit.Wire.r_wan_s)

let test_cache_disabled () =
  with_server ~cache:0 @@ fun _ socket ->
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sql = "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey" in
  let a = query_ok c sql in
  let b = query_ok c sql in
  Alcotest.(check bool) "no hit" false (a.Wire.r_cache_hit || b.Wire.r_cache_hit);
  Alcotest.(check rows_t) "still deterministic" a.Wire.r_rows b.Wire.r_rows;
  (* per-query reseeding: re-executions are byte-identical, tallies too *)
  Alcotest.(check bool)
    "identical tallies on re-execution" true
    (a.Wire.r_tally = b.Wire.r_tally && a.Wire.r_pre = b.Wire.r_pre)

(* Satellite 3a: per-query tallies are a pure function of (seed, protocol,
   query) — a server with 8 workers under heavy concurrency produces
   byte-identical responses to a serial 1-worker server. *)
let test_tallies_workers_1_vs_8 () =
  let cases =
    [
      ("sh-dm",
       "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey");
      ("sh-hm",
       "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY \
        o_orderpriority");
      ("mal-hm",
       "SELECT c_mktsegment, COUNT(*) AS n FROM customer GROUP BY \
        c_mktsegment");
      ("sh-hm",
       "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey");
    ]
  in
  let run_all ~workers =
    with_server ~workers ~max_jobs:16 ~cache:0 @@ fun _ socket ->
    let out = Array.make (List.length cases) None in
    let threads =
      List.mapi
        (fun i (proto, sql) ->
          Thread.create
            (fun () ->
              let c = Client.connect socket in
              Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
              (match Client.set_protocol c proto with
              | Ok _ -> ()
              | Error m -> Alcotest.failf "hello: %s" m);
              out.(i) <- Some (query_ok c sql))
            ())
        cases
    in
    List.iter Thread.join threads;
    Array.to_list out |> List.map Option.get
  in
  let serial = run_all ~workers:1 in
  let pooled = run_all ~workers:8 in
  List.iteri
    (fun i ((proto, _), (a, b)) ->
      Alcotest.(check rows_t)
        (Printf.sprintf "case %d (%s) rows" i proto)
        a.Wire.r_rows b.Wire.r_rows;
      Alcotest.(check bool)
        (Printf.sprintf "case %d (%s) full response byte-identical" i proto)
        true (a = b))
    (List.combine cases (List.combine serial pooled))

(* Satellite 3b: M concurrent identical cold queries fire exactly one
   execution; the rest replay the leader's byte-identical response. *)
let test_single_flight () =
  let executions = Atomic.make 0 in
  with_server ~workers:4 ~max_jobs:16
    ~job_hook:(fun () ->
      Atomic.incr executions;
      (* hold the flight open long enough for every follower to join *)
      Thread.delay 0.25)
  @@ fun _ socket ->
  let sql =
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY \
     o_orderpriority"
  in
  let m = 6 in
  let out = Array.make m None in
  let threads =
    List.init m (fun i ->
        Thread.create
          (fun () ->
            let c = Client.connect socket in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            out.(i) <- Some (query_ok c sql))
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "exactly one execution" 1 (Atomic.get executions);
  let first = Option.get out.(0) in
  Array.iteri
    (fun i r ->
      let r = Option.get r in
      Alcotest.(check rows_t)
        (Printf.sprintf "client %d rows" i)
        first.Wire.r_rows r.Wire.r_rows;
      Alcotest.(check bool)
        (Printf.sprintf "client %d tally identical" i)
        true
        (r.Wire.r_tally = first.Wire.r_tally))
    out

(* Single-flight under repeated racing: every round, N threads race the
   same *cold* query (a fresh WHERE literal per round keeps the cache
   out of play), and each round must coalesce to exactly one execution
   with identical replies. This hammers the flight-ticket create/park/
   resolve handoff in Plan_cache — the exact path the lock-order
   migration restructured — round after round rather than once. *)
let test_single_flight_race () =
  let executions = Atomic.make 0 in
  with_server ~workers:4 ~max_jobs:16
    ~job_hook:(fun () ->
      Atomic.incr executions;
      Thread.delay 0.12)
  @@ fun _ socket ->
  let n = 6 and rounds = 5 in
  for round = 1 to rounds do
    let sql =
      Printf.sprintf
        "SELECT o_orderpriority, COUNT(*) AS n FROM orders WHERE o_orderkey \
         < %d GROUP BY o_orderpriority"
        (100 + round)
    in
    let before = Atomic.get executions in
    let out = Array.make n None in
    let threads =
      List.init n (fun i ->
          Thread.create
            (fun () ->
              let c = Client.connect socket in
              Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
              out.(i) <- Some (query_ok c sql))
            ())
    in
    List.iter Thread.join threads;
    Alcotest.(check int)
      (Printf.sprintf "round %d: exactly one execution" round)
      1
      (Atomic.get executions - before);
    let first = Option.get out.(0) in
    Array.iteri
      (fun i r ->
        let r = Option.get r in
        Alcotest.(check rows_t)
          (Printf.sprintf "round %d client %d rows" round i)
          first.Wire.r_rows r.Wire.r_rows;
        Alcotest.(check bool)
          (Printf.sprintf "round %d client %d tally identical" round i)
          true
          (r.Wire.r_tally = first.Wire.r_tally))
      out
  done;
  Alcotest.(check int) "total executions = rounds" rounds
    (Atomic.get executions)

(* Satellite 3c: one session's flood cannot starve another session beyond
   a bounded delay — the solo client finishes while the flood still has
   backlog. *)
let test_fairness_under_flood () =
  with_server ~workers:1 ~max_jobs:8 ~cache:0
    ~job_hook:(fun () -> Thread.delay 0.1)
  @@ fun _ socket ->
  let sql = "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey" in
  let flood_done = ref false in
  let flood_threads =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            let c = Client.connect socket in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            (match Client.set_protocol ~client:"flood" c "sh-hm" with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "hello: %s" m);
            for _ = 1 to 3 do
              ignore (query_ok c sql)
            done)
          ())
  in
  let watcher =
    Thread.create
      (fun () ->
        List.iter Thread.join flood_threads;
        flood_done := true)
      ()
  in
  (* let the flood fill the queue first *)
  Thread.delay 0.25;
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.set_protocol ~client:"solo" c "sh-hm" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "hello: %s" m);
  ignore (query_ok c sql);
  (* round-robin across client groups: the solo query was served while
     the flood (12 x 0.1 s of work on one worker) was still draining *)
  Alcotest.(check bool) "flood still has backlog" false !flood_done;
  Thread.join watcher

(* Satellite 1: graceful stop — the running query completes and is
   delivered; the queued-but-never-started one gets an explicit shutdown
   error frame, not a dropped connection. *)
let test_graceful_stop () =
  with_server ~workers:1 ~max_jobs:4 ~cache:0 ~drain_s:0.01
    ~job_hook:(fun () -> Thread.delay 0.5)
  @@ fun t socket ->
  let sql = "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey" in
  let r_running = ref None and r_queued = ref None in
  let spawn slot =
    Thread.create
      (fun () ->
        let c = Client.connect socket in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        slot := Some (Client.query c sql))
      ()
  in
  let a = spawn r_running in
  Thread.delay 0.1;
  (* a is executing (hook sleeps 0.5 s); b sits queued behind it *)
  let b = spawn r_queued in
  Thread.delay 0.1;
  Service.stop t;
  Thread.join a;
  Thread.join b;
  (match !r_running with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "in-flight query should complete during drain");
  match !r_queued with
  | Some (Error (Wire.Busy, msg)) ->
      Alcotest.(check string) "shutdown frame" "server shutting down" msg
  | Some (Ok _) ->
      (* the worker may have started it before the queue closed *)
      ()
  | _ -> Alcotest.fail "queued query should get a proper shutdown frame"

(* Satellite 2: a client receive timeout fires instead of hanging on a
   stalled server. *)
let test_client_timeout () =
  with_server ~cache:0 ~job_hook:(fun () -> Thread.delay 1.0)
  @@ fun _ socket ->
  let c = Client.connect ~timeout_ms:100 socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match
    Client.query c
      "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey"
  with
  | exception Client.Service_error msg ->
      Alcotest.(check bool)
        "timeout message" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected a receive-timeout Service_error"

let test_set_workers_live () =
  with_server ~workers:1 @@ fun _ socket ->
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sql = "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey" in
  ignore (query_ok c sql);
  let s = Client.set_workers c 4 in
  Alcotest.(check int) "grown" 4 s.Wire.s_workers;
  ignore (query_ok c sql);
  let s = Client.set_workers c 1 in
  Alcotest.(check int) "shrunk" 1 s.Wire.s_workers;
  (* still serving after both resizes *)
  ignore (query_ok c sql)

let test_max_rows_truncation () =
  with_server ~max_rows:3 @@ fun _ socket ->
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let r =
    query_ok c
      "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY \
       o_orderpriority"
  in
  Alcotest.(check bool) "truncated" true r.Wire.r_truncated;
  Alcotest.(check int) "3 rows" 3 (List.length r.Wire.r_rows)

let test_sql_error_frame () =
  with_server @@ fun _ socket ->
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.query c "SELECT x FROM nosuch" with
  | Error (Wire.Bad_request, msg) ->
      Alcotest.(check string) "clean error" "unknown table: nosuch" msg
  | _ -> Alcotest.fail "expected bad-request");
  (* the session survives the error *)
  ignore
    (query_ok c "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey")

(* An expression whose public bound exceeds the ring is refused with a
   reasoned error reply, and the session goes on serving. *)
let test_refused_frame () =
  with_server @@ fun _ socket ->
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match
     Client.query c
       "SELECT l_orderkey, l_extendedprice * l_extendedprice * l_extendedprice * \
        l_extendedprice AS c FROM lineitem WHERE l_orderkey < 2"
   with
  | Error (Wire.Bad_request, msg) ->
      let has sub =
        let n = String.length msg and k = String.length sub in
        let rec go i = i + k <= n && (String.sub msg i k = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the refusal and the expression" true
        (has "refused" && has "l_extendedprice * l_extendedprice")
  | _ -> Alcotest.fail "expected a bad-request refusal");
  ignore
    (query_ok c "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey")

let test_survives_disconnect_mid_query () =
  with_server ~cache:0 @@ fun _ socket ->
  (* fire a query and slam the connection before the reply *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Wire.send_request fd
    (Wire.Query
       {
         q_sql =
           "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY \
            o_orderpriority";
         q_prio = 1;
       });
  Unix.close fd;
  Thread.delay 0.05;
  (* the server must still be alive and serving *)
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore
    (query_ok c "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey");
  let s = Client.stats c in
  Alcotest.(check bool) "jobs ran" true (s.Wire.s_jobs >= 1)

let test_survives_malformed_frame () =
  with_server @@ fun _ socket ->
  (* hostile length prefix *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  assert (Unix.write fd (Bytes.of_string "\xff\xff\xff\xff") 0 4 = 4);
  (match Wire.recv_response fd with
  | Some (Wire.Error_r { code = Wire.Bad_request; _ }) | None -> ()
  | _ -> Alcotest.fail "expected error frame or close");
  Unix.close fd;
  (* unknown tag in a well-sized frame *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  assert (Unix.write fd (Bytes.of_string "\x00\x00\x00\x01\x7f") 0 5 = 5);
  (match Wire.recv_response fd with
  | Some (Wire.Error_r { code = Wire.Bad_request; _ }) | None -> ()
  | _ -> Alcotest.fail "expected error frame or close");
  Unix.close fd;
  (* fresh sessions still work *)
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  assert (Client.ping c);
  ignore
    (query_ok c "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey")

(* Explain runs the SQL cold and returns the per-node decision log. *)
let explain_ok c sql =
  match Client.explain c sql with
  | Ok e -> e
  | Error (code, msg) ->
      Alcotest.failf "explain failed (%s): %s" (Wire.err_label code) msg

let test_explain () =
  with_server @@ fun _ socket ->
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let e =
    explain_ok c
      "SELECT c_custkey, o_orderkey FROM customer JOIN orders ON c_custkey \
       = o_custkey"
  in
  Alcotest.(check int) "in class: no fallback" 0 e.Wire.e_fallbacks;
  (match e.Wire.e_joins with
  | [ j ] ->
      Alcotest.(check (list string))
        "candidates" [ "sort"; "linear" ]
        (List.map (fun c -> c.Wire.jc_op) j.Wire.je_cands);
      let best =
        List.fold_left
          (fun b c -> if c.Wire.jc_est_s < b.Wire.jc_est_s then c else b)
          (List.hd j.Wire.je_cands) j.Wire.je_cands
      in
      Alcotest.(check string) "chosen is cheapest" best.Wire.jc_op
        j.Wire.je_chosen
  | js -> Alcotest.failf "expected 1 join node, got %d" (List.length js));
  (* duplicate nation keys on both sides: outside the tractable class,
     reported as a count with no priced node *)
  let e =
    explain_ok c
      "SELECT s_suppkey, c_custkey FROM supplier JOIN customer ON \
       s_nationkey = c_nationkey"
  in
  Alcotest.(check int) "out of class: one fallback" 1 e.Wire.e_fallbacks;
  Alcotest.(check int) "out of class: no decision" 0
    (List.length e.Wire.e_joins);
  (* GROUP BY on the join key: one grouped decision, priced as the sort
     join aggregating in its network vs the linear join plus an
     aggregate *)
  let e =
    explain_ok c
      "SELECT o_orderkey, SUM(l_quantity) AS q FROM orders JOIN lineitem ON \
       o_orderkey = l_orderkey GROUP BY o_orderkey"
  in
  match e.Wire.e_joins with
  | [ j ] ->
      Alcotest.(check string) "grouped variant" "inner grouped" j.Wire.je_variant;
      Alcotest.(check (list string))
        "grouped candidates" [ "sort-grouped"; "linear+aggregate" ]
        (List.map (fun c -> c.Wire.jc_op) j.Wire.je_cands);
      Alcotest.(check bool) "chosen is a candidate" true
        (List.exists (fun c -> c.Wire.jc_op = j.Wire.je_chosen) j.Wire.je_cands)
  | js -> Alcotest.failf "expected 1 grouped join node, got %d" (List.length js)

let test_stats () =
  with_server @@ fun _ socket ->
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sql = "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey" in
  ignore (query_ok c sql);
  ignore (query_ok c sql);
  let s = Client.stats c in
  (* the repeat was a cache hit served in the session thread: one job *)
  Alcotest.(check int) "jobs" 1 s.Wire.s_jobs;
  Alcotest.(check bool) "one hit" true (s.Wire.s_cache_hits >= 1);
  Alcotest.(check int) "sessions" 1 s.Wire.s_sessions;
  Alcotest.(check int) "workers" 1 s.Wire.s_workers;
  Alcotest.(check bool) "exec p95 measured" true (s.Wire.s_exec_p95_ms > 0.)

let () =
  Alcotest.run "service"
    [
      ( "wire",
        [
          Alcotest.test_case "request round-trips" `Quick test_wire_requests;
          Alcotest.test_case "response round-trips" `Quick test_wire_responses;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_wire_rejects_oversized;
        ] );
      ( "queue+cache",
        [
          Alcotest.test_case "bounded admission" `Quick test_jobqueue_admission;
          Alcotest.test_case "priority classes" `Quick test_jobqueue_priorities;
          Alcotest.test_case "per-group round-robin" `Quick
            test_jobqueue_group_fairness;
          Alcotest.test_case "sql normalization" `Quick test_normalize;
        ] );
      ( "server",
        [
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "per-session protocol" `Quick
            test_per_session_protocol;
          Alcotest.test_case "admission control" `Quick test_admission_control;
          Alcotest.test_case "plan-cache hit = cold" `Quick
            test_plan_cache_hit_equals_cold;
          Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
          Alcotest.test_case "tallies workers 1 = 8" `Quick
            test_tallies_workers_1_vs_8;
          Alcotest.test_case "single-flight coalescing" `Quick
            test_single_flight;
          Alcotest.test_case "single-flight race, repeated rounds" `Quick
            test_single_flight_race;
          Alcotest.test_case "fairness under flood" `Quick
            test_fairness_under_flood;
          Alcotest.test_case "graceful stop" `Quick test_graceful_stop;
          Alcotest.test_case "client timeout" `Quick test_client_timeout;
          Alcotest.test_case "live worker resize" `Quick test_set_workers_live;
          Alcotest.test_case "max-rows truncation" `Quick
            test_max_rows_truncation;
          Alcotest.test_case "sql error frame" `Quick test_sql_error_frame;
          Alcotest.test_case "refused query frame" `Quick test_refused_frame;
          Alcotest.test_case "survives disconnect" `Quick
            test_survives_disconnect_mid_query;
          Alcotest.test_case "survives malformed frame" `Quick
            test_survives_malformed_frame;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
    ]
