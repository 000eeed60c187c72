open Orq_proto
module Wire = Orq_net.Wire
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim
module Sql = Orq_planner.Sql
module Table = Orq_core.Table
module Joincost = Orq_core.Joincost
module Tpch_gen = Orq_workloads.Tpch_gen
module Parallel = Orq_util.Parallel
module Locked = Orq_util.Locked

type config = {
  socket_path : string;
  sf : float;
  seed : int;
  workers : int;
  max_jobs : int;
  max_rows : int;
  cache_capacity : int;
  admit_timeout_s : float;
  drain_timeout_s : float;
  pace : Netsim.profile option;
  prewarm : Ctx.kind list;
  verbose : bool;
  job_hook : (unit -> unit) option;
}

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 0 -> v
      | _ -> default)
  | None -> default

let pace_of_label s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "off" | "none" -> Ok None
  | _ -> (
      match Netsim.of_label s with
      | Some p -> Ok (Some p)
      | None ->
          Error
            (Printf.sprintf "unknown pace profile %S (off|lan|wan|geo|local)" s))

let default_config ?(socket_path = "/tmp/orq-service.sock") () =
  {
    socket_path;
    sf = 0.001;
    seed = 42;
    workers = 1;
    max_jobs = 4;
    max_rows = 10_000;
    cache_capacity = 64;
    admit_timeout_s = float_of_int (env_int "ORQ_SERVICE_ADMIT_MS" 2_000) /. 1e3;
    drain_timeout_s = float_of_int (env_int "ORQ_SERVICE_DRAIN_MS" 5_000) /. 1e3;
    pace = None;
    prewarm = [];
    verbose = false;
    job_hook = None;
  }

let proto_of_label = function
  | "sh-dm" | "2pc" -> Ok Ctx.Sh_dm
  | "sh-hm" | "3pc" -> Ok Ctx.Sh_hm
  | "mal-hm" | "4pc" -> Ok Ctx.Mal_hm
  | s -> Error (Printf.sprintf "unknown protocol %S (sh-dm|sh-hm|mal-hm)" s)

(* One backend per (worker, protocol kind): a long-lived context plus this
   worker's own sharing of the database. Worker-local so execution workers
   never contend on protocol state (PRG, metering, label stacks). *)
type backend = { b_ctx : Ctx.t; b_db : Tpch_gen.mpc }

type job = {
  j_sql : string;
  j_proto : Ctx.kind;
  j_qseed : int;  (** per-query session seed: derived, deterministic *)
  j_explain : bool;
      (** capture the per-join physical-operator decision log and answer
          with [Explain_r] instead of [Result] *)
  mutable j_reply : Wire.response option;
  j_m : Locked.t;
  j_c : Condition.t;
}

(* Per-job reply lock: ranks above the queue and cache locks because a
   worker delivers while holding nothing, and a session thread waits on
   it having released everything else. *)
let fresh_job ~sql ~proto ~qseed ~explain =
  {
    j_sql = sql;
    j_proto = proto;
    j_qseed = qseed;
    j_explain = explain;
    j_reply = None;
    j_m = Locked.create ~name:"service_job" ~rank:40 ();
    j_c = Condition.create ();
  }

type session = { s_id : int; s_fd : Unix.file_descr; mutable s_group : int }

(* A live execution worker: the quit flag retires it on a live
   resize-down without disturbing the rest of the pool. *)
type worker = { w_id : int; w_quit : bool ref }

let exec_ring_size = 512

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  plain : Tpch_gen.plain;
  cache : Wire.query_result Plan_cache.t;
  jobs : job Jobqueue.t;
  catalog_version : int;
  mutable running : bool;
  mutable sessions : session list;
  mutable next_session : int;
  mutable jobs_done : int;
  mutable rejected : int;
  mutable desired_workers : int;
  mutable workers : worker list;  (** live workers, newest first *)
  mutable next_worker : int;
  mutable domains : unit Domain.t list;  (** every worker domain spawned *)
  execs : float array;  (** ring of recent execution times, seconds *)
  mutable nexecs : int;
  m : Locked.t;  (** sessions / counters / workers / running *)
  mutable session_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
}

let with_lock t f = Locked.with_lock t.m f

let logf t fmt =
  Printf.ksprintf
    (fun s -> if t.cfg.verbose then Printf.eprintf "[orq-service] %s\n%!" s)
    fmt

(* ------------------------------------------------------------------ *)
(* Query execution (worker domains)                                    *)
(* ------------------------------------------------------------------ *)

(* Each query runs under a session seed derived from the service seed,
   the protocol, and the normalized SQL — never from execution history.
   Combined with [Ctx.reseed] this makes every execution a pure function
   of (catalog, protocol, query): per-query Comm tallies and transcripts
   are byte-identical whatever ran before, whichever worker runs it, and
   at every worker count — including data-dependent control flow like
   shuffled-quicksort recursion depths. *)
let query_seed_for ~seed ~proto_label ~sql =
  Hashtbl.hash (seed, proto_label, Plan_cache.normalize sql)

let query_seed t ~proto_label ~sql =
  query_seed_for ~seed:t.cfg.seed ~proto_label ~sql

let backend t backends kind =
  match Hashtbl.find_opt backends kind with
  | Some b -> b
  | None ->
      let b_ctx = Ctx.create ~seed:t.cfg.seed kind in
      let b_db = Tpch_gen.share b_ctx t.plain in
      let b = { b_ctx; b_db } in
      Hashtbl.replace backends kind b;
      logf t "shared catalog for %s (%d parties)" (Ctx.kind_label kind)
        b_ctx.Ctx.parties;
      b

(* Canonical response rows: [Table.reveal] shuffles before opening (order
   carries no information), so we sort rows lexicographically to make
   responses deterministic — required for cache-hit ≡ cold-run equality. *)
let canonical_rows (opened : (string * int array) list) (cols : string list) =
  let present = List.filter (fun c -> List.mem_assoc c opened) cols in
  let arrays = List.map (fun c -> List.assoc c opened) present in
  let n = match arrays with a :: _ -> Array.length a | [] -> 0 in
  let rows = List.init n (fun i -> List.map (fun a -> a.(i)) arrays) in
  (present, List.sort compare rows)

(* The one execution path every deployment shares: reseed to the derived
   query seed, run the planner, reveal, canonicalize. The in-process
   service calls it from worker domains; a party cluster (lib/party/)
   calls it with a transport channel attached to [ctx.comm], so results
   and tallies are byte-identical across deployments by construction. *)
let execute_sql ~(ctx : Ctx.t) ~(db : Tpch_gen.mpc) ~qseed ~max_rows sql :
    Wire.response =
  Ctx.reseed ctx qseed;
  let c0 = Comm.snapshot ctx.Ctx.comm in
  let p0 = Comm.snapshot ctx.Ctx.preproc in
  (* Chunk-store accounting is process-wide: the peak and spill counts are
     exact for a lone query and approximate (an upper bound) when several
     workers execute concurrently. *)
  Orq_util.Chunkvec.reset_peak ();
  let m0 = (Orq_util.Chunkvec.stats ()).Orq_util.Chunkvec.st_spills in
  match Sql.run (Tpch_gen.catalog db) sql with
  | exception Sql.Parse_error msg ->
      Wire.Error_r { code = Wire.Bad_request; msg }
  | exception Orq_core.Dom.Refused msg ->
      Wire.Error_r { code = Wire.Bad_request; msg = "refused: " ^ msg }
  | exception Ctx.Abort msg ->
      Wire.Error_r { code = Wire.Internal; msg = "protocol abort: " ^ msg }
  | exception e -> Wire.Error_r { code = Wire.Internal; msg = Printexc.to_string e }
  | tbl, cols, fallbacks ->
      let opened = Table.reveal tbl in
      let r_tally = Comm.since ctx.Ctx.comm c0 in
      let r_pre = Comm.since ctx.Ctx.preproc p0 in
      let r_cols, rows = canonical_rows opened cols in
      let r_truncated = List.length rows > max_rows in
      let r_rows =
        if r_truncated then List.filteri (fun i _ -> i < max_rows) rows
        else rows
      in
      Wire.Result
        {
          Wire.r_cols;
          r_rows;
          r_truncated;
          r_fallbacks = fallbacks;
          r_cache_hit = false;
          r_tally;
          r_pre;
          r_lan_s = Netsim.network_time Netsim.lan r_tally;
          r_wan_s = Netsim.network_time Netsim.wan r_tally;
          r_peak_bytes = Orq_util.Chunkvec.peak_live_bytes ();
          r_spills = (Orq_util.Chunkvec.stats ()).Orq_util.Chunkvec.st_spills - m0;
        }

(* Render the worker domain's Joincost decision log as the Explain wire
   body. Must run on the domain that executed the query — the log is
   domain-local state. *)
let explain_of_log ~fallbacks (ds : Joincost.decision list) : Wire.explain =
  let dec (d : Joincost.decision) =
    let shape = d.Joincost.jd_shape in
    let cand (op, tally, est) =
      {
        Wire.jc_op = Joincost.node_op_label shape op;
        jc_rounds = tally.Comm.t_rounds;
        jc_bits = tally.Comm.t_bits;
        jc_messages = tally.Comm.t_messages;
        jc_est_s = est;
      }
    in
    {
      Wire.je_node = d.Joincost.jd_node;
      je_variant = Joincost.node_variant_label shape;
      je_n = shape.Joincost.j_n;
      je_m = shape.Joincost.j_m;
      je_chosen = Joincost.node_op_label shape d.jd_chosen;
      je_forced = d.jd_forced;
      je_cands = List.map cand d.jd_cands;
    }
  in
  {
    Wire.e_mode = Joincost.mode_label (Joincost.mode ());
    e_profile = (Joincost.profile ()).Netsim.label;
    e_fallbacks = fallbacks;
    e_joins = List.map dec ds;
  }

let execute t backends (j : job) : Wire.response =
  let b = backend t backends j.j_proto in
  let run () =
    execute_sql ~ctx:b.b_ctx ~db:b.b_db ~qseed:j.j_qseed
      ~max_rows:t.cfg.max_rows j.j_sql
  in
  if not j.j_explain then run ()
  else begin
    Joincost.reset_log ();
    match run () with
    | Wire.Result r ->
        Wire.Explain_r
          (explain_of_log ~fallbacks:r.Wire.r_fallbacks (Joincost.log ()))
    | other -> other
  end

let deliver (j : job) (reply : Wire.response) =
  Locked.with_lock j.j_m (fun () ->
      j.j_reply <- Some reply;
      Condition.signal j.j_c)

let await_reply (j : job) : Wire.response =
  Locked.with_lock j.j_m (fun () ->
      while j.j_reply = None do
        Locked.wait j.j_m j.j_c
      done;
      Option.get j.j_reply)

(* Partition the global data-parallel lane budget across the execution
   workers: inter-query concurrency times intra-query data parallelism
   never exceeds ORQ_DOMAINS lanes in total. *)
let lanes_per_worker t =
  max 1 (Parallel.get_num_domains () / max 1 t.desired_workers)

let worker_loop t (w : worker) () =
  let backends : (Ctx.kind, backend) Hashtbl.t = Hashtbl.create 4 in
  (* build the configured protocol backends before serving, so the first
     queries after startup (or a live resize) don't pay catalog sharing *)
  List.iter (fun k -> ignore (backend t backends k)) t.cfg.prewarm;
  let rec loop () =
    Parallel.set_lanes (lanes_per_worker t);
    match Jobqueue.pop ~should_stop:(fun () -> !(w.w_quit)) t.jobs with
    | None -> ()
    | Some j ->
        (match t.cfg.job_hook with Some h -> h () | None -> ());
        let t0 = Unix.gettimeofday () in
        let reply =
          try execute t backends j
          with e ->
            Wire.Error_r { code = Wire.Internal; msg = Printexc.to_string e }
        in
        (* Paced mode: model a real deployment where each query's wall
           time is compute + network (Netsim's first-order model). The
           worker stays bound to the query for its modeled network time —
           exactly the regime in which a pool of workers, each driving
           its own party connections, overlaps queries and scales
           throughput. *)
        (match (t.cfg.pace, reply) with
        | Some p, Wire.Result r ->
            Unix.sleepf (Netsim.network_time p r.Wire.r_tally)
        | _ -> ());
        Jobqueue.finish t.jobs;
        let dt = Unix.gettimeofday () -. t0 in
        with_lock t (fun () ->
            t.jobs_done <- t.jobs_done + 1;
            t.execs.(t.nexecs mod exec_ring_size) <- dt;
            t.nexecs <- t.nexecs + 1);
        deliver j reply;
        loop ()
  in
  loop ()

(* Spawn [n] fresh workers (caller must not hold [t.m]). *)
let spawn_workers t n =
  for _ = 1 to n do
    let w =
      with_lock t (fun () ->
          let w = { w_id = t.next_worker; w_quit = ref false } in
          t.next_worker <- t.next_worker + 1;
          t.workers <- w :: t.workers;
          w)
    in
    let d = Domain.spawn (worker_loop t w) in
    with_lock t (fun () -> t.domains <- d :: t.domains);
    logf t "worker %d started" w.w_id
  done

(* Live resize: spawn up, or retire the newest workers down (they finish
   their current job, re-check their quit flag, and exit). *)
let set_workers t n =
  let n = max 1 (min 64 n) in
  let grow =
    with_lock t (fun () ->
        t.desired_workers <- n;
        let cur = List.length t.workers in
        if n >= cur then n - cur
        else begin
          let rec retire k = function
            | w :: rest when k > 0 ->
                w.w_quit := true;
                retire (k - 1) rest
            | rest -> rest
          in
          t.workers <- retire (cur - n) t.workers;
          0
        end)
  in
  if grow > 0 then spawn_workers t grow;
  Jobqueue.wake t.jobs;
  logf t "workers resized to %d" n

(* ------------------------------------------------------------------ *)
(* Sessions (one handler thread per connection)                        *)
(* ------------------------------------------------------------------ *)

let percentiles samples n =
  let n = min n (Array.length samples) in
  if n = 0 then (0., 0.)
  else begin
    let s = Array.sub samples 0 n in
    Array.sort compare s;
    let at p =
      s.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. p) +. 0.5)))
    in
    (at 0.5, at 0.95)
  end

let stats t : Wire.stats =
  let qc = Jobqueue.counts t.jobs in
  let w50, w95 = Jobqueue.wait_percentiles t.jobs in
  let m = Orq_util.Chunkvec.stats () in
  with_lock t (fun () ->
      let e50, e95 = percentiles t.execs t.nexecs in
      {
        Wire.s_sessions = List.length t.sessions;
        s_workers = t.desired_workers;
        s_jobs = t.jobs_done;
        s_rejected = t.rejected;
        s_cache_hits = Plan_cache.hits t.cache;
        s_cache_misses = Plan_cache.misses t.cache;
        s_coalesced = Plan_cache.coalesced t.cache;
        s_queue_depth = qc.Jobqueue.c_depth;
        s_in_flight = qc.Jobqueue.c_depth + qc.Jobqueue.c_running;
        s_wait_p50_ms = w50 *. 1e3;
        s_wait_p95_ms = w95 *. 1e3;
        s_exec_p50_ms = e50 *. 1e3;
        s_exec_p95_ms = e95 *. 1e3;
        s_mem_live_bytes = m.Orq_util.Chunkvec.st_live_bytes;
        s_mem_peak_bytes = m.Orq_util.Chunkvec.st_peak_live_bytes;
        s_mem_spilled_bytes = m.Orq_util.Chunkvec.st_spilled_bytes;
        s_rss_peak_kb = Orq_util.Chunkvec.rss_peak_kb ();
      })

let busy_frame t =
  let qc = Jobqueue.counts t.jobs in
  Wire.Error_r
    {
      code = Wire.Busy;
      msg =
        Printf.sprintf
          "server busy: %d queued + %d executing (capacity %d, waited %.0f \
           ms; by class h/n/l = %d/%d/%d)"
          qc.Jobqueue.c_depth qc.Jobqueue.c_running (Jobqueue.capacity t.jobs)
          (t.cfg.admit_timeout_s *. 1e3)
          qc.Jobqueue.c_by_class.(0) qc.Jobqueue.c_by_class.(1)
          qc.Jobqueue.c_by_class.(2);
    }

(* Submit one query from a session thread. Cache hits and coalesced
   replays are answered here without touching the job queue; only genuine
   cold executions occupy a worker. *)
let rec submit t (s : session) ~prio proto sql : Wire.response =
  if not (with_lock t (fun () -> t.running)) then
    Wire.Error_r { code = Wire.Busy; msg = "server shutting down" }
  else
    let proto_label = Ctx.kind_label proto in
    let version = t.catalog_version in
    match Plan_cache.acquire t.cache ~proto:proto_label ~version ~sql with
    | Plan_cache.Cached r -> Wire.Result { r with Wire.r_cache_hit = true }
    | Plan_cache.Coalesced (Some r) ->
        Wire.Result { r with Wire.r_cache_hit = true }
    | Plan_cache.Coalesced None ->
        (* the flight we joined aborted; take our own turn *)
        submit t s ~prio proto sql
    | Plan_cache.Execute flight ->
        let j =
          fresh_job ~sql ~proto
            ~qseed:(query_seed t ~proto_label ~sql)
            ~explain:false
        in
        let resolve v =
          Plan_cache.resolve t.cache ~proto:proto_label ~version ~sql flight v
        in
        if
          not
            (Jobqueue.push t.jobs ~group:s.s_group ~prio
               ~timeout_s:t.cfg.admit_timeout_s j)
        then begin
          resolve None;
          with_lock t (fun () -> t.rejected <- t.rejected + 1);
          busy_frame t
        end
        else begin
          let r = await_reply j in
          (match r with
          | Wire.Result res -> resolve (Some res)
          | _ -> resolve None);
          r
        end

(* Explain always executes cold — the decision log is a property of an
   actual execution, and a cached response carries none — so it bypasses
   the plan cache entirely (no lookup, no store, no single-flight). *)
let submit_explain t (s : session) proto sql : Wire.response =
  if not (with_lock t (fun () -> t.running)) then
    Wire.Error_r { code = Wire.Busy; msg = "server shutting down" }
  else
    let proto_label = Ctx.kind_label proto in
    let j =
      fresh_job ~sql ~proto
        ~qseed:(query_seed t ~proto_label ~sql)
        ~explain:true
    in
    if
      not
        (Jobqueue.push t.jobs ~group:s.s_group ~prio:Jobqueue.Normal
           ~timeout_s:t.cfg.admit_timeout_s j)
    then begin
      with_lock t (fun () -> t.rejected <- t.rejected + 1);
      busy_frame t
    end
    else await_reply j

let handle_session t (s : session) =
  let proto = ref Ctx.Sh_hm in
  let run_query sql prio =
    logf t "session %d: query under %s (%s): %s" s.s_id
      (Ctx.kind_label !proto)
      (Jobqueue.prio_label prio)
      sql;
    Wire.send_response s.s_fd (submit t s ~prio !proto sql)
  in
  (try
     let rec loop () =
       match Wire.recv_request s.s_fd with
       | None -> logf t "session %d: closed" s.s_id
       | Some req ->
           (match req with
           | Wire.Hello { h_version; h_proto; h_client } -> (
               if h_version <> Wire.protocol_version then
                 Wire.send_response s.s_fd
                   (Wire.Error_r
                      {
                        code = Wire.Bad_request;
                        msg =
                          Printf.sprintf
                            "protocol version mismatch: client speaks v%d, \
                             server speaks v%d — upgrade the older side"
                            h_version Wire.protocol_version;
                      })
               else
                 match proto_of_label h_proto with
                 | Ok k ->
                     proto := k;
                     (* connections sharing a client name share a fairness
                        lane; anonymous connections are their own group *)
                     if h_client <> "" then
                       s.s_group <- Hashtbl.hash ("client:" ^ h_client);
                     Wire.send_response s.s_fd
                       (Wire.Hello_ok
                          { session = s.s_id; proto = Ctx.kind_label k })
                 | Error msg ->
                     Wire.send_response s.s_fd
                       (Wire.Error_r { code = Wire.Bad_request; msg }))
           | Wire.Ping -> Wire.send_response s.s_fd Wire.Pong
           | Wire.Net_stats_req ->
               Wire.send_response s.s_fd
                 (Wire.Error_r
                    {
                      code = Wire.Bad_request;
                      msg =
                        "this server is the in-process simulation, not a \
                         party cluster: no on-the-wire measurements (run \
                         `orq party` for a real deployment)";
                    })
           | Wire.Stats_req ->
               Wire.send_response s.s_fd (Wire.Stats_r (stats t))
           | Wire.Set_workers n ->
               set_workers t n;
               Wire.send_response s.s_fd (Wire.Stats_r (stats t))
           | Wire.Explain sql ->
               logf t "session %d: explain under %s: %s" s.s_id
                 (Ctx.kind_label !proto) sql;
               Wire.send_response s.s_fd (submit_explain t s !proto sql)
           | Wire.Query { q_sql; q_prio } -> (
               match Jobqueue.prio_of_int q_prio with
               | Some prio -> run_query q_sql prio
               | None ->
                   Wire.send_response s.s_fd
                     (Wire.Error_r
                        {
                          code = Wire.Bad_request;
                          msg =
                            Printf.sprintf "bad priority %d (0|1|2)" q_prio;
                        })));
           loop ()
     in
     loop ()
   with
  | Wire.Wire_error msg ->
      logf t "session %d: malformed frame: %s" s.s_id msg;
      (* best-effort error frame; the connection is then dropped *)
      (try
         Wire.send_response s.s_fd
           (Wire.Error_r
              { code = Wire.Bad_request; msg = "malformed frame: " ^ msg })
       with _ -> ())
  | Unix.Unix_error _ | Sys_error _ ->
      (* client went away mid-exchange; session-local, server lives on *)
      logf t "session %d: connection error" s.s_id);
  with_lock t (fun () ->
      t.sessions <- List.filter (fun s' -> s'.s_id <> s.s_id) t.sessions);
  try Unix.close s.s_fd with _ -> ()

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> if t.running then loop ()
    | exception _ -> if t.running then loop ()
    | fd, _ ->
        let s =
          with_lock t (fun () ->
              let id = t.next_session in
              t.next_session <- id + 1;
              let s = { s_id = id; s_fd = fd; s_group = id } in
              t.sessions <- s :: t.sessions;
              s)
        in
        logf t "session %d: accepted" s.s_id;
        let th = Thread.create (fun () -> handle_session t s) () in
        with_lock t (fun () -> t.session_threads <- th :: t.session_threads);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start (cfg : config) : t =
  (* a dying client must not kill the server on write *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  let t =
    {
      cfg;
      listen_fd;
      plain = Tpch_gen.generate ~seed:cfg.seed cfg.sf;
      cache = Plan_cache.create ~capacity:cfg.cache_capacity;
      jobs = Jobqueue.create ~capacity:cfg.max_jobs;
      catalog_version = 1;
      running = true;
      sessions = [];
      next_session = 1;
      jobs_done = 0;
      rejected = 0;
      desired_workers = max 1 cfg.workers;
      workers = [];
      next_worker = 0;
      domains = [];
      execs = Array.make exec_ring_size 0.;
      nexecs = 0;
      m = Locked.create ~name:"service" ~rank:10 ();
      session_threads = [];
      accept_thread = None;
    }
  in
  spawn_workers t t.desired_workers;
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  logf t
    "listening on %s (sf=%g, workers=%d, max-jobs=%d, max-rows=%d, cache=%d%s)"
    cfg.socket_path cfg.sf t.desired_workers cfg.max_jobs cfg.max_rows
    cfg.cache_capacity
    (match cfg.pace with
    | Some p -> ", pace=" ^ p.Netsim.label
    | None -> "");
  t

(* Shutdown ordering: stop accepting, give in-flight jobs a drain
   deadline, fail whatever never started with a proper error frame, join
   the workers, and only then wind down the sessions — so a client
   mid-query gets its result (or an explicit shutdown error), never a
   silently dropped connection. *)
let stop t =
  let was_running =
    with_lock t (fun () ->
        let r = t.running in
        t.running <- false;
        r)
  in
  if was_running then begin
    (* 1. stop accepting new connections; shutdown before close: close
       alone does not wake a thread blocked in accept on Linux *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (match t.accept_thread with
    | Some th -> ( try Thread.join th with _ -> ())
    | None -> ());
    (* 2. drain in-flight jobs up to the deadline (new submissions are
       already refused by the [running] check in [submit]) *)
    let deadline = Unix.gettimeofday () +. t.cfg.drain_timeout_s in
    while Jobqueue.in_flight t.jobs > 0 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    (* 3. close the queue; answer whatever never started with an error
       frame (their session threads wake, reply, and return to recv) *)
    Jobqueue.close t.jobs;
    List.iter
      (fun j ->
        deliver j
          (Wire.Error_r { code = Wire.Busy; msg = "server shutting down" }))
      (Jobqueue.drain_remaining t.jobs);
    (* 4. workers exit on the closed queue once their current job is done *)
    List.iter (fun d -> try Domain.join d with _ -> ()) t.domains;
    (* 5. sessions: end the read side only — in-flight replies and error
       frames still go out on the write side — then join the handlers.
       Snapshot under the lock, shut down outside it (no syscalls under
       a held lock). *)
    let sess = with_lock t (fun () -> t.sessions) in
    List.iter
      (fun s -> try Unix.shutdown s.s_fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      sess;
    let ths = with_lock t (fun () -> t.session_threads) in
    List.iter (fun th -> try Thread.join th with _ -> ()) ths;
    try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ()
  end

let wait t =
  (match t.accept_thread with
  | Some th -> ( try Thread.join th with _ -> ())
  | None -> ());
  let ths = with_lock t (fun () -> t.session_threads) in
  List.iter (fun th -> try Thread.join th with _ -> ())
    ths
