(* orq_cli — run ORQ oblivious relational queries under MPC.

   Three modes:
     - the default (also `orq_cli run`): one-shot batch execution of a
       registered workload query or ad-hoc SQL, as in the paper's §5;
     - `orq_cli serve`: long-running query service on a Unix-domain
       socket (framed Wire protocol, session scheduler, plan cache);
     - `orq_cli query`: client for a running service.

   Examples:
     orq_cli --list
     orq_cli -q Q3 -p sh-hm --sf 0.001
     orq_cli -q Comorbidity -p mal-hm -n 1000 --validate
     orq_cli --sql "SELECT o_orderpriority, COUNT(*) AS n FROM orders \
                    GROUP BY o_orderpriority"
     orq_cli serve --socket /tmp/orq.sock --sf 0.001 &
     orq_cli query --socket /tmp/orq.sock -p sh-hm \
       "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderpriority" *)

open Orq_proto
open Orq_workloads
module Netsim = Orq_net.Netsim
module Wire = Orq_net.Wire
module Transport = Orq_net.Transport
module Service = Orq_service.Service
module Client = Orq_service.Client
module Cluster = Orq_party.Cluster

(* Out-of-core accounting for batch runs: printed only when streaming is
   on, since otherwise share vectors are untracked monolithic arrays. *)
let print_local_memory () =
  if Orq_util.Chunkvec.streaming_enabled () then begin
    let m = Orq_util.Chunkvec.stats () in
    Printf.printf
      "memory: peak %.2f MiB chunked (budget %s) | %d spills, %.2f MiB to \
       disk | rss peak %d KiB\n"
      (float_of_int m.Orq_util.Chunkvec.st_peak_live_bytes /. 1024. /. 1024.)
      (match Orq_util.Chunkvec.budget () with
      | 0 -> "unlimited"
      | b -> Printf.sprintf "%.2f MiB" (float_of_int b /. 1024. /. 1024.))
      m.Orq_util.Chunkvec.st_spills
      (float_of_int m.Orq_util.Chunkvec.st_spilled_bytes /. 1024. /. 1024.)
      (Orq_util.Chunkvec.rss_peak_kb ())
  end

(* [r_load] generates and shares the data, and returns the query's
   logical plan (EXPLAIN; none for a hand-built body), its run and its
   validation, so the run can be timed alone. *)
type runnable = {
  r_name : string;
  r_load :
    Ctx.t -> float -> int ->
    string option * (unit -> Orq_core.Table.t) * (unit -> bool);
}

(* One adapter per catalog: its data at the requested scale (--sf for
   the TPC-H catalog, -n for the prior-work one). *)
let of_catalog generate share plans (qs : ('db, 'plain) Query.t list) =
  List.map
    (fun (q : ('db, 'plain) Query.t) ->
      {
        r_name = q.Query.name;
        r_load =
          (fun ctx sf n ->
            let plain = generate sf n in
            let mdb = share ctx plain in
            ( Option.map
                (fun plan -> Orq_planner.Plan.explain (plan mdb))
                (List.assoc_opt q.Query.name plans),
              (fun () -> q.Query.run mdb),
              fun () ->
                let ok, _, _ = Query.validate q plain mdb in
                ok ));
      })
    qs

let runnables : runnable list =
  of_catalog (fun sf _ -> Tpch_gen.generate sf) Tpch_gen.share Tpch.plans Tpch.all
  @ of_catalog (fun _ n -> Other_gen.generate n) Other_gen.share
      Other_queries.plans Other_queries.all

let protocol_of_string s =
  match Service.proto_of_label s with
  | Ok k -> Ok k
  | Error msg -> Error (`Msg msg)

let profile_of_string s =
  match Netsim.of_label s with
  | Some p -> Ok p
  | None -> Error (`Msg ("unknown profile " ^ s ^ " (lan|wan|geo|local)"))

(* ORQ_TRACE=1: record the structural communication transcript while the
   query runs and dump it event-by-event afterwards — the same recorder the
   transcript certifier (orq_lint certify) compares against the cost model. *)
let trace_requested =
  match Sys.getenv_opt "ORQ_TRACE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let start_trace (ctx : Ctx.t) =
  if trace_requested then Orq_net.Comm.start_recording ctx.Ctx.comm

let dump_trace (ctx : Ctx.t) =
  if trace_requested then begin
    let tr = Orq_net.Comm.transcript ctx.Ctx.comm in
    let dropped = Orq_net.Comm.dropped_events ctx.Ctx.comm in
    Printf.printf "\ntranscript (%d events%s):\n" (Array.length tr)
      (if dropped > 0 then Printf.sprintf "; oldest %d dropped" dropped else "");
    Array.iteri
      (fun i e -> Format.printf "  %6d  %a@." i Orq_net.Comm.pp_event e)
      tr;
    Orq_net.Comm.stop_recording ctx.Ctx.comm
  end

(* A batch run's report, the same for --sql and -q: the opened [cols]
   (first 20 rows), online and preprocessing traffic, compute time and
   the modeled network estimate, local memory and the transcript. *)
let print_run ctx profile ~compute ?note ~cols opened =
  let nrows = match opened with (_, c) :: _ -> Array.length c | [] -> 0 in
  Printf.printf "\nresult (%d rows, opened to the analyst):\n" nrows;
  Printf.printf "  %s\n" (String.concat " | " cols);
  for i = 0 to min (nrows - 1) 19 do
    Printf.printf "  %s\n"
      (String.concat " | "
         (List.map
            (fun c ->
              match List.assoc_opt c opened with
              | Some v -> string_of_int v.(i)
              | None -> "-")
            cols))
  done;
  if nrows > 20 then Printf.printf "  ... (%d more)\n" (nrows - 20);
  Option.iter print_endline note;
  let tally = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let pre = Orq_net.Comm.snapshot ctx.Ctx.preproc in
  Printf.printf
    "\ncosts: %d online rounds | %.2f MiB online | %.2f MiB preprocessing\n"
    tally.Orq_net.Comm.t_rounds
    (float_of_int tally.Orq_net.Comm.t_bits /. 8. /. 1024. /. 1024.)
    (float_of_int pre.Orq_net.Comm.t_bits /. 8. /. 1024. /. 1024.);
  Printf.printf "simulation compute: %.2fs | estimated %s end-to-end: %.2fs\n"
    compute profile.Netsim.label
    (compute +. Netsim.network_time profile tally);
  print_local_memory ();
  dump_trace ctx

(* --sql: run an ad-hoc SQL query against the TPC-H catalog through the
   automatic planner (lib/planner). *)
let run_sql sql proto sf profile =
  let ctx = Ctx.create proto in
  start_trace ctx;
  let db = Tpch_gen.share ctx (Tpch_gen.generate sf) in
  Printf.printf "planning and running under %s...\n%!" (Ctx.kind_label proto);
  let t0 = Unix.gettimeofday () in
  match Orq_planner.Sql.run (Tpch_gen.catalog db) sql with
  | exception Orq_planner.Sql.Parse_error msg ->
      Printf.eprintf "SQL error: %s\n" msg;
      1
  | exception Orq_core.Dom.Refused msg ->
      Printf.eprintf "SQL refused before any share moved: %s\n" msg;
      1
  | t, cols, fallbacks ->
      let compute = Unix.gettimeofday () -. t0 in
      let note =
        if fallbacks = 0 then None
        else
          Some
            (Printf.sprintf
               "note: %d join(s) were outside the tractable class and took \
                the quadratic oblivious fallback"
               fallbacks)
      in
      print_run ctx profile ~compute ?note ~cols (Orq_core.Table.reveal t);
      0

let run_registered query proto sf n profile validate =
  match List.find_opt (fun r -> r.r_name = query) runnables with
  | None ->
      Printf.eprintf "unknown query %s (try --list)\n" query;
      1
  | Some r ->
      let ctx = Ctx.create proto in
      start_trace ctx;
      Printf.printf "running %s under %s (%d parties)...\n%!" query
        (Ctx.kind_label proto) ctx.Ctx.parties;
      let explain, run, check = r.r_load ctx sf n in
      Option.iter (Printf.printf "plan:\n%s\n%!") explain;
      let t0 = Unix.gettimeofday () in
      let result = run () in
      let compute = Unix.gettimeofday () -. t0 in
      let opened = Orq_core.Table.reveal result in
      print_run ctx profile ~compute ~cols:(List.map fst opened) opened;
      if not validate then 0
      else if check () then begin
        print_endline "validation against plaintext engine: OK";
        0
      end
      else begin
        print_endline "validation against plaintext engine: MISMATCH";
        1
      end

let run list_only query sql proto sf n profile validate =
  (* the joins are priced under the profile the estimate is printed for *)
  Orq_proto.Primcost.set_profile profile;
  if list_only then begin
    print_endline "available queries:";
    List.iter (fun r -> Printf.printf "  %s\n" r.r_name) runnables;
    0
  end
  else
    match sql with
    | Some _ when validate ->
        prerr_endline
          "--validate checks a registered query against its plaintext \
           reference; ad-hoc --sql has no plaintext oracle yet";
        2
    | Some sql -> run_sql sql proto sf profile
    | None -> run_registered query proto sf n profile validate

(* ------------------------------------------------------------------ *)
(* serve / query: the long-running service and its client              *)
(* ------------------------------------------------------------------ *)

let serve socket sf seed workers pace_label max_jobs max_rows cache_cap verbose
    =
  match Service.pace_of_label pace_label with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok pace ->
      let defaults = Service.default_config () in
      let cfg =
        {
          Service.socket_path = socket;
          sf;
          seed;
          workers = max 1 workers;
          max_jobs;
          max_rows;
          cache_capacity = cache_cap;
          admit_timeout_s = defaults.Service.admit_timeout_s;
          drain_timeout_s = defaults.Service.drain_timeout_s;
          pace;
          prewarm = defaults.Service.prewarm;
          verbose;
          job_hook = None;
        }
      in
      let t = Service.start cfg in
      Printf.printf
        "orq service listening on %s (sf=%g, workers=%d, max-jobs=%d, \
         max-rows=%d, cache=%d%s)\n\
         stop with Ctrl-C; query with: orq_cli query --socket %s \"SELECT \
         ...\"\n\
         %!"
        socket sf cfg.Service.workers max_jobs max_rows cache_cap
        (match pace with
        | Some p -> ", pace=" ^ p.Orq_net.Netsim.label
        | None -> "")
        socket;
      Service.wait t;
      0

(* ------------------------------------------------------------------ *)
(* party: one process of a real multi-party cluster                    *)
(* ------------------------------------------------------------------ *)

let print_result label (r : Wire.query_result) =
  let n = List.length r.Wire.r_rows in
  Printf.printf "result (%d rows%s, under %s):\n  %s\n" n
    (if r.Wire.r_truncated then ", truncated" else "")
    label
    (String.concat " | " r.Wire.r_cols);
  List.iteri
    (fun i row ->
      if i < 20 then
        Printf.printf "  %s\n"
          (String.concat " | " (List.map string_of_int row)))
    r.Wire.r_rows;
  if n > 20 then Printf.printf "  ... (%d more)\n" (n - 20)

let print_net_stats (s : Wire.net_stats) =
  Printf.printf
    "wire: %d parties | %d exchanges | %.2f MiB measured payload | %d \
     messages | %d frames | %.3fs wall\n"
    s.Wire.n_parties s.Wire.n_exchanges
    (float_of_int s.Wire.n_payload_bytes /. 1024. /. 1024.)
    s.Wire.n_messages s.Wire.n_frames s.Wire.n_wall_s

let local_demo_queries =
  [
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY \
     o_orderpriority";
    "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey";
  ]

(* --local: fork a full cluster on loopback, run a few demo queries as a
   client, print results and measured wire traffic, shut down. The
   three-terminal workflow (README) does the same by hand. *)
let party_local proto seed sf max_rows verbose =
  let label = String.lowercase_ascii (Ctx.kind_label proto) in
  Printf.printf "launching a local %d-party %s cluster on loopback TCP...\n%!"
    (Ctx.parties_of proto) label;
  let l = Cluster.launch_local ~seed ~sf ~max_rows ~verbose proto in
  Fun.protect ~finally:(fun () -> Cluster.shutdown_local l) @@ fun () ->
  let c =
    Client.connect ~retry_ms:10_000 (Transport.format_addr l.Cluster.l_client)
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.set_protocol c label with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok _ ->
      Printf.printf "cluster up at %s\n%!"
        (Transport.format_addr l.Cluster.l_client);
      let rc = ref 0 in
      List.iter
        (fun sql ->
          Printf.printf "\n> %s\n%!" sql;
          match Client.query c sql with
          | Error (code, msg) ->
              Printf.eprintf "error (%s): %s\n" (Wire.err_label code) msg;
              rc := 1
          | Ok r -> (
              print_result label r;
              Printf.printf "metered: %d rounds | %d bits | %d messages\n"
                r.Wire.r_tally.Orq_net.Comm.t_rounds
                r.Wire.r_tally.Orq_net.Comm.t_bits
                r.Wire.r_tally.Orq_net.Comm.t_messages;
              match Client.net_stats c with
              | Ok s -> print_net_stats s
              | Error msg -> Printf.eprintf "net-stats: %s\n" msg))
        local_demo_queries;
      !rc

let party_run id listen_s peers_s client_s proto seed sf max_rows verbose
    local =
  if local then party_local proto seed sf max_rows verbose
  else
    let parse what s =
      match Transport.parse_addr s with
      | Ok a -> a
      | Error m ->
          Printf.eprintf "bad %s address: %s\n" what m;
          exit 2
    in
    let peers =
      match peers_s with
      | [] ->
          Printf.eprintf
            "a party needs --peers with one mesh address per party (or \
             --local for a self-contained demo cluster)\n";
          exit 2
      | l -> Array.of_list (List.map (parse "peer") l)
    in
    let cfg =
      {
        (Cluster.default_config ~party:id ~proto ~peers ()) with
        Cluster.seed;
        sf;
        max_rows;
        verbose;
        listen = Option.map (parse "listen") listen_s;
        client = Option.map (parse "client") client_s;
      }
    in
    match Cluster.run cfg with
    | () -> 0
    | exception Cluster.Cluster_error msg ->
        Printf.eprintf "party error: %s\n" msg;
        1

(* --explain: the per-join-node physical-operator decisions of a cold
   execution — chosen operator first, then every priced candidate (at a
   GROUP BY over the join, sort-grouped vs linear+aggregate). *)
let print_explain label (e : Wire.explain) =
  Printf.printf "physical join plan under %s (mode %s, profile %s):\n" label
    e.Wire.e_mode e.Wire.e_profile;
  if e.Wire.e_joins = [] then print_endline "  (no join nodes)";
  List.iter
    (fun (j : Wire.join_decision) ->
      Printf.printf "  %s  [%s, n=%d, m=%d] -> %s%s\n" j.Wire.je_node
        j.Wire.je_variant j.Wire.je_n j.Wire.je_m j.Wire.je_chosen
        (if j.Wire.je_forced then " (forced)" else "");
      List.iter
        (fun (c : Wire.join_cand) ->
          Printf.printf
            "   %s %-16s  %7d rounds | %11d bits | %9d msgs | est. %.4fs\n"
            (if c.Wire.jc_op = j.Wire.je_chosen then "*" else " ")
            c.Wire.jc_op c.Wire.jc_rounds c.Wire.jc_bits c.Wire.jc_messages
            c.Wire.jc_est_s)
        j.Wire.je_cands)
    e.Wire.e_joins;
  if e.Wire.e_fallbacks > 0 then
    Printf.printf "note: %d out-of-class quadratic fallback(s)\n"
      e.Wire.e_fallbacks

let client_query socket proto prio timeout_ms set_workers net_stats explain sql
    =
  match Client.connect ?timeout_ms socket with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot connect to %s: %s (is the server running?)\n"
        socket (Unix.error_message e);
      1
  | c -> (
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match set_workers with
      | Some n ->
          let s = Client.set_workers c n in
          Printf.printf "workers resized to %d\n%!" s.Wire.s_workers
      | None -> ());
      match Client.set_protocol c proto with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok label when explain -> (
          match Client.explain c sql with
          | Error (code, msg) ->
              Printf.eprintf "error (%s): %s\n" (Wire.err_label code) msg;
              1
          | Ok e ->
              print_explain label e;
              0)
      | Ok label -> (
          match Client.query ?prio c sql with
          | Error (code, msg) ->
              Printf.eprintf "error (%s): %s\n" (Wire.err_label code) msg;
              1
          | Ok r ->
              let n = List.length r.Wire.r_rows in
              Printf.printf "result (%d rows%s, under %s%s):\n  %s\n" n
                (if r.Wire.r_truncated then ", truncated" else "")
                label
                (if r.Wire.r_cache_hit then ", plan-cache hit" else "")
                (String.concat " | " r.Wire.r_cols);
              List.iteri
                (fun i row ->
                  if i < 20 then
                    Printf.printf "  %s\n"
                      (String.concat " | " (List.map string_of_int row)))
                r.Wire.r_rows;
              if n > 20 then Printf.printf "  ... (%d more)\n" (n - 20);
              if r.Wire.r_fallbacks > 0 then
                Printf.printf "note: %d quadratic join fallback(s)\n"
                  r.Wire.r_fallbacks;
              Printf.printf
                "costs: %d online rounds | %.2f MiB online | %.2f MiB \
                 preprocessing | est. LAN %.3fs | est. WAN %.3fs\n"
                r.Wire.r_tally.Orq_net.Comm.t_rounds
                (float_of_int r.Wire.r_tally.Orq_net.Comm.t_bits /. 8.
                /. 1024. /. 1024.)
                (float_of_int r.Wire.r_pre.Orq_net.Comm.t_bits /. 8. /. 1024.
               /. 1024.)
                r.Wire.r_lan_s r.Wire.r_wan_s;
              if r.Wire.r_peak_bytes > 0 then
                Printf.printf "memory: peak %.2f MiB chunked | %d spills\n"
                  (float_of_int r.Wire.r_peak_bytes /. 1024. /. 1024.)
                  r.Wire.r_spills;
              (if net_stats then
                 match Client.net_stats c with
                 | Ok s -> print_net_stats s
                 | Error msg -> Printf.printf "net-stats: %s\n" msg);
              0))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let list_t =
  Arg.(value & flag & info [ "list" ] ~doc:"List available queries and exit.")

let query_t =
  Arg.(
    value
    & opt string "Q3"
    & info [ "q"; "query" ] ~docv:"NAME" ~doc:"Query to run (see --list).")

let sql_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "sql" ] ~docv:"QUERY"
        ~doc:
          "Run an ad-hoc SQL query against the TPC-H catalog through the \
           automatic planner, e.g. \"SELECT o_orderpriority, COUNT(*) AS n \
           FROM orders GROUP BY o_orderpriority\".")

let proto_conv =
  Arg.conv (protocol_of_string, fun ppf k -> Fmt.string ppf (Ctx.kind_label k))

let proto_t =
  Arg.(
    value
    & opt proto_conv Ctx.Sh_hm
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:"MPC protocol: sh-dm (2PC), sh-hm (3PC) or mal-hm (4PC).")

let sf_t =
  Arg.(
    value
    & opt float 0.001
    & info [ "sf" ] ~docv:"SF" ~doc:"TPC-H scale factor (micro scale).")

let n_t =
  Arg.(
    value
    & opt int 800
    & info [ "n" ] ~docv:"N" ~doc:"Rows for the non-TPC-H datasets.")

let profile_t =
  Arg.(
    value
    & opt (conv (profile_of_string, fun ppf p -> Fmt.string ppf p.Netsim.label)) Netsim.lan
    & info [ "profile" ] ~docv:"ENV"
        ~doc:"Network model the joins are priced under and the \
              end-to-end estimate is printed for: lan, wan, geo or local.")

let validate_t =
  Arg.(
    value & flag
    & info [ "validate" ] ~doc:"Check the result against the plaintext engine.")

let domains_t =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Data-parallel domains for local vector work (default: the \
           ORQ_DOMAINS environment variable, else 1).")

let run_with_domains domains list_only query sql proto sf n profile validate =
  if domains > 0 then Orq_util.Parallel.set_num_domains domains;
  run list_only query sql proto sf n profile validate

let run_term =
  Term.(
    const run_with_domains $ domains_t $ list_t $ query_t $ sql_t $ proto_t
    $ sf_t $ n_t $ profile_t $ validate_t)

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"one-shot batch execution (the default)") run_term

(* serve flags default to Service.default_config's fields *)
let service_defaults = Service.default_config ()

let socket_t =
  Arg.(
    value
    & opt string service_defaults.Service.socket_path
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let workers_t =
    Arg.(
      value
      & opt int service_defaults.Service.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:"Execution worker domains.")
  in
  let pace_t =
    Arg.(
      value
      & opt string "off"
      & info [ "pace" ] ~docv:"PROFILE"
          ~doc:
            "Paced execution: each worker holds its slot for the query's \
             modeled network time under this Netsim profile (off, lan, wan, \
             geo or local).")
  in
  let max_jobs_t =
    Arg.(
      value
      & opt int service_defaults.Service.max_jobs
      & info [ "max-jobs" ] ~docv:"K"
          ~doc:"Admission control: maximum in-flight queries.")
  in
  let max_rows_t =
    Arg.(
      value
      & opt int service_defaults.Service.max_rows
      & info [ "max-rows" ] ~docv:"R"
          ~doc:"Truncate responses beyond this many rows.")
  in
  let cache_t =
    Arg.(
      value
      & opt int service_defaults.Service.cache_capacity
      & info [ "cache" ] ~docv:"C"
          ~doc:"Plan-cache capacity in entries; 0 disables caching.")
  in
  let seed_t =
    Arg.(
      value
      & opt int service_defaults.Service.seed
      & info [ "seed" ] ~docv:"S" ~doc:"Catalog generation seed.")
  in
  let verbose_t =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log sessions to stderr.")
  in
  let serve_with_domains domains socket sf seed workers pace max_jobs max_rows
      cache verbose =
    if domains > 0 then Orq_util.Parallel.set_num_domains domains;
    serve socket sf seed workers pace max_jobs max_rows cache verbose
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"start the oblivious query service on a Unix-domain socket")
    Term.(
      const serve_with_domains $ domains_t $ socket_t $ sf_t $ seed_t
      $ workers_t $ pace_t $ max_jobs_t $ max_rows_t $ cache_t $ verbose_t)

let query_cmd =
  let sql_pos_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SQL" ~doc:"The SQL query text.")
  in
  let proto_label_t =
    Arg.(
      value
      & opt string "sh-hm"
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:"Session protocol: sh-dm, sh-hm or mal-hm.")
  in
  let prio_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "prio" ] ~docv:"P"
          ~doc:"Priority class: 0 = high, 1 = normal, 2 = low.")
  in
  let timeout_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Receive timeout in milliseconds (default: none).")
  in
  let set_workers_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "set-workers" ] ~docv:"N"
          ~doc:"Live-resize the server's worker pool before querying.")
  in
  let net_stats_t =
    Arg.(
      value & flag
      & info [ "net-stats" ]
          ~doc:
            "After the query, fetch the cluster's measured on-the-wire \
             traffic (party clusters only).")
  in
  let explain_t =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Instead of the result, print the per-join-node physical \
             operator decisions of a cold execution: the chosen operator \
             and every applicable candidate's predicted rounds, bits, \
             messages, and modeled network seconds.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"send one SQL query to a running service or party cluster")
    Term.(
      const client_query $ socket_t $ proto_label_t $ prio_t $ timeout_t
      $ set_workers_t $ net_stats_t $ explain_t $ sql_pos_t)

let party_cmd =
  let id_t =
    Arg.(
      value & opt int 0
      & info [ "id" ] ~docv:"K" ~doc:"This process's party id (0-based).")
  in
  let listen_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Mesh bind address override (default: this party's --peers \
             entry). Addresses are unix:/path, tcp:host:port, or host:port.")
  in
  let peers_t =
    Arg.(
      value
      & opt (list string) []
      & info [ "peers" ] ~docv:"A0,A1,.."
          ~doc:
            "Comma-separated mesh addresses of every party, in party-id \
             order; the list length fixes the party count and must match \
             the protocol (2 for sh-dm, 3 for sh-hm, 4 for mal-hm).")
  in
  let client_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "client" ] ~docv:"ADDR"
          ~doc:
            "Party 0 only: serve the query-service protocol to clients on \
             this address.")
  in
  let seed_t =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"Cluster seed (must agree across all parties).")
  in
  let max_rows_t =
    Arg.(
      value & opt int 10_000
      & info [ "max-rows" ] ~docv:"R"
          ~doc:"Truncate responses beyond this many rows.")
  in
  let verbose_t =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Log mesh and query events to stderr.")
  in
  let local_t =
    Arg.(
      value & flag
      & info [ "local" ]
          ~doc:
            "Coordinator mode: fork a complete local cluster on loopback \
             TCP, run demo queries against it, print results and measured \
             wire traffic, and shut it down.")
  in
  Cmd.v
    (Cmd.info "party"
       ~doc:
         "run one party of a real multi-party deployment: N processes \
          exchanging actual framed messages over TCP or Unix sockets, \
          round-for-round equal to the metered simulation")
    Term.(
      const party_run $ id_t $ listen_t $ peers_t $ client_t $ proto_t
      $ seed_t $ sf_t $ max_rows_t $ verbose_t $ local_t)

let cmd =
  let doc = "run ORQ oblivious relational queries under MPC" in
  Cmd.group ~default:run_term
    (Cmd.info "orq_cli" ~doc)
    [ run_cmd; serve_cmd; query_cmd; party_cmd ]

let () =
  Orq_util.Parallel.init_from_env ();
  exit (Cmd.eval' cmd)
