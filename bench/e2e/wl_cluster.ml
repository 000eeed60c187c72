(* cluster-2pc: sh-dm as two real party processes on loopback TCP, driven
   by one client connection through the coordinator — the only workload
   through Cluster, Exchange, Pwire and Transport, with real framing and
   syscalls per metered round. *)

open Orq_proto
open Common
module Service = Orq_service.Service
module Client = Orq_service.Client
module Cluster = Orq_party.Cluster
module Transport = Orq_net.Transport
module Wire = Orq_net.Wire
module Ptable = Orq_plaintext.Ptable
module Tpch_gen = Orq_workloads.Tpch_gen

let name = "cluster-2pc"
let sf = 0.002
let kind = Ctx.Sh_dm
let proto_label = Ctx.kind_label kind
let max_rows = 10_000

(* The SQL suite of the real-deployment bench (bench/net.ml): aggregates,
   a filter and a top-k over every table size. *)
let suite =
  [
    "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem \
     GROUP BY l_returnflag";
    "SELECT l_shipmode, SUM(l_extendedprice) AS revenue FROM lineitem WHERE \
     l_discount > 2 GROUP BY l_shipmode";
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderpriority";
    "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC \
     LIMIT 10";
    "SELECT c_mktsegment, COUNT(*) AS n, SUM(c_acctbal) AS bal FROM customer \
     GROUP BY c_mktsegment";
    "SELECT p_brand, COUNT(*) AS n FROM part GROUP BY p_brand";
    "SELECT s_nationkey, COUNT(*) AS n FROM supplier GROUP BY s_nationkey";
    "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey";
  ]

type cluster = { local : Cluster.local; client : Client.t }

let shut_down c =
  Client.close c.client;
  Cluster.shutdown_local c.local

(* One set-up: fork the parties (each generates and shares the catalog),
   build the mesh, connect, and answer a first query. *)
let set_up ~cseed =
  let t0 = now () in
  let local = Cluster.launch_local ~seed:cseed ~sf ~max_rows kind in
  match
    Client.connect ~timeout_ms:120_000 ~retry_ms:60_000
      (Transport.format_addr local.Cluster.l_client)
  with
  | exception e ->
      Cluster.shutdown_local local;
      raise e
  | client -> (
      let c = { local; client } in
      try
        (match Client.set_protocol client (String.lowercase_ascii proto_label) with
        | Ok _ -> ()
        | Error msg -> failwith ("cluster refused the session: " ^ msg));
        match Client.query client (List.hd suite) with
        | Ok _ -> (c, now () -. t0)
        | Error (_, msg) -> failwith ("first query failed: " ^ msg)
      with e ->
        shut_down c;
        raise e)

type net = { wall : float; stats : Wire.net_stats }

(* Run one query through the coordinator; then, outside the timed span,
   check the response is byte-identical to the in-process simulation and
   that the mesh's measured wire counters equal the metered tally. *)
let exec c refs nets tracer ~qid (e : Suite.entry) =
  let sql = e.Suite.key in
  let t0 = now () in
  let resp = Client.query c.client sql in
  let t1 = now () in
  let wall = t1 -. t0 in
  match resp with
  | Error (code, msg) -> failwith (Wire.err_label code ^ ": " ^ msg)
  | Ok r ->
      let tally = r.Wire.r_tally in
      let vs_sim =
        if List.assoc sql refs = Wire.Result r then []
        else [ sql ^ ": cluster response differs from the in-process simulation" ]
      in
      let wire =
        match Client.net_stats c.client with
        | Error msg -> [ sql ^ ": net_stats: " ^ msg ]
        | Ok s ->
            Hashtbl.replace nets sql ({ wall; stats = s } :: Option.value (Hashtbl.find_opt nets sql) ~default:[]);
            Option.iter
              (fun tr ->
                Tracer.add_span tr ~qid
                  ~attrs:
                    Wire.
                      [
                        ("exchanges", Json.Num (float_of_int s.n_exchanges));
                        ("refunds", Json.Num (float_of_int s.n_refunds));
                        ("frames", Json.Num (float_of_int s.n_frames));
                        ("payload_bytes", Json.Num (float_of_int s.n_payload_bytes));
                        ("coordinator_s", Json.Num s.n_wall_s);
                        ("rounds", Json.Num (float_of_int tally.Comm.t_rounds));
                      ]
                  ("query." ^ sql) t0 t1)
              tracer;
            if
              s.Wire.n_bits = tally.Comm.t_bits
              && s.Wire.n_messages = tally.Comm.t_messages
              && s.Wire.n_exchanges - s.Wire.n_refunds = tally.Comm.t_rounds
            then []
            else
              [
                Printf.sprintf
                  "%s: wire (bits=%d msgs=%d exchanges=%d-%d) differs from the tally \
                   (bits=%d msgs=%d rounds=%d)"
                  sql s.Wire.n_bits s.Wire.n_messages s.Wire.n_exchanges s.Wire.n_refunds
                  tally.Comm.t_bits tally.Comm.t_messages tally.Comm.t_rounds;
              ]
      in
      { Suite.wall; on = tally; pre = r.Wire.r_pre; errors = vs_sim @ wire }

let run ~seed ~until ~trace_file : result =
  let outcome = outcome () in
  let t0 = now () in
  let cseed, plain = Catalog.generate ~sf ~seed in
  let gen_s = now () -. t0 in
  let setup_speed = speed () and speed = speed () in
  let c, setup =
    set_up_repeatedly ~speed:setup_speed ~set_up:(fun () -> set_up ~cseed) ~tear_down:shut_down
  in
  let rss () =
    Array.fold_left (fun m pid -> max m (vmhwm_kb (string_of_int pid))) 0 c.local.Cluster.l_pids
  in
  Fun.protect ~finally:(fun () -> shut_down c) @@ fun () ->
  (* the simulation reference: the path every party runs, in process *)
  let t0 = now () in
  let ctx = Ctx.create ~seed:cseed kind in
  let db = Tpch_gen.share ctx plain in
  let share_s = now () -. t0 in
  let refs =
    List.map
      (fun sql ->
        let qseed = Service.query_seed_for ~seed:cseed ~proto_label ~sql in
        (sql, Service.execute_sql ~ctx ~db ~qseed ~max_rows sql))
      suite
  in
  let facts =
    [
      ("protocol", Json.Str proto_label);
      ("parties", Json.Num (float_of_int (Ctx.parties_of kind)));
      ("sf", Json.Num sf);
      ("catalog_seed", Json.Num (float_of_int cseed));
      ("lineitem_rows", Json.Num (float_of_int (Ptable.nrows plain.Tpch_gen.lineitem)));
    ]
  in
  let nets = Hashtbl.create 16 in
  let pass es tracer ~until = Suite.loop ~outcome ~speed ~until es (exec c refs nets tracer) in
  match trace_file with
  | None ->
      let es = List.map Suite.entry suite in
      let r = pass es None ~until in
      let metrics, e2e_facts = Suite.run_e2e ~setup ~setup_speed ~speed ~rss_kb:(rss ()) es r in
      { workload = name; outcome; metrics; facts = facts @ e2e_facts @ [ Suite.query_facts es ] }
  | Some path ->
      let tr = Tracer.create () in
      let plain_es = List.map Suite.entry suite and es = List.map Suite.entry suite in
      let once es tracer () = ignore (pass es tracer ~until:0.) in
      ignore (Suite.alternate ~until ~plain:(once plain_es None) ~traced:(once es (Some tr)));
      let of_sql sql = List.rev (Option.value (Hashtbl.find_opt nets sql) ~default:[]) in
      let first f =
        sum (List.map (fun sql -> match of_sql sql with n :: _ -> f n | [] -> 0.) suite)
      in
      let all = List.concat_map of_sql suite in
      let probes = Probes.run tr kind ~n:(Ptable.nrows plain.Tpch_gen.lineitem) ~seed:cseed in
      let planner = Probes.plan_ms db suite in
      Json.to_file path (Tracer.to_json tr ~workload:name ~seed);
      let f = float_of_int in
      {
        workload = name;
        outcome;
        metrics =
          probes
          @ [
              metric "workloads.generate_s" gen_s;
              metric "workloads.share_s" share_s;
              metric "planner.plan_ms" planner;
              metric "party.exchanges" (first (fun n -> f n.stats.Wire.n_exchanges));
              metric "party.frames" (first (fun n -> f n.stats.Wire.n_frames));
              metric "party.payload_mib" (first (fun n -> f n.stats.Wire.n_payload_bytes) /. 1048576.);
              metric "party.coord_s"
                (sum
                   (List.map
                      (fun sql -> median (List.map (fun n -> n.stats.Wire.n_wall_s) (of_sql sql)))
                      suite));
              metric "party.client_gap_ms"
                (median (List.map (fun n -> (n.wall -. n.stats.Wire.n_wall_s) *. 1e3) all));
              metric "trace.overhead_ratio" (Suite.pass_s es /. Suite.pass_s plain_es);
            ];
        facts;
      }
