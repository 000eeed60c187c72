(* Real-deployment benchmark (DESIGN.md, "Real multi-party deployment"):
   for each protocol, fork a complete party cluster on loopback TCP —
   2 (sh-dm), 3 (sh-hm), or 4 (mal-hm) real OS processes exchanging
   actual framed messages — and drive the TPC-H SQL suite through the
   coordinator's client socket.

   Two identities are asserted per query, and gate the exit code:

     - results: the cluster's response (rows, columns, tallies, modeled
       times) must be byte-identical to the in-process simulation running
       [Service.execute_sql] with the same seed — the deployment must not
       perturb the oblivious execution;
     - wire: the measured on-the-wire traffic (summed over parties) must
       equal the metered Comm tally exactly — bits and messages as
       counted, physical exchanges = metered rounds.

   Wall-clock per query is recorded against the Netsim LAN estimate
   (loopback has negligible latency, so wall sits far below the modeled
   LAN time — the interesting number is the measured bytes, which are
   identical by construction, not simulated).

   Writes BENCH_net.json. ORQ_NET_QUICK=1 shrinks the suite to three
   queries per protocol (the CI smoke job). *)

open Orq_proto
module Wire = Orq_net.Wire
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim
module Transport = Orq_net.Transport
module Service = Orq_service.Service
module Client = Orq_service.Client
module Cluster = Orq_party.Cluster
module Tpch_gen = Orq_workloads.Tpch_gen

let quick () =
  match Sys.getenv_opt "ORQ_NET_QUICK" with
  | Some ("0" | "") | None -> false
  | Some _ -> true

let sf = 0.001
let seed = 42
let max_rows = 10_000

(* The SQL suite over the TPC-H catalog: aggregates, filters, and a
   top-k over every table size the micro scale offers (lineitem ~6k rows
   down to region's 5). The quick subset keeps one large-table and two
   small-table queries. *)
let full_suite =
  [
    "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty FROM \
     lineitem GROUP BY l_returnflag";
    "SELECT l_shipmode, SUM(l_extendedprice) AS revenue FROM lineitem \
     WHERE l_discount > 2 GROUP BY l_shipmode";
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY \
     o_orderpriority";
    "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice \
     DESC LIMIT 10";
    "SELECT c_mktsegment, COUNT(*) AS n, SUM(c_acctbal) AS bal FROM \
     customer GROUP BY c_mktsegment";
    "SELECT p_brand, COUNT(*) AS n FROM part GROUP BY p_brand";
    "SELECT s_nationkey, COUNT(*) AS n FROM supplier GROUP BY s_nationkey";
    "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey";
  ]

let quick_suite =
  [
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY \
     o_orderpriority";
    "SELECT s_nationkey, COUNT(*) AS n FROM supplier GROUP BY s_nationkey";
    "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey";
  ]

(* The simulation reference: the exact execution path the cluster runs,
   same seed derivation, no transport channel. *)
let simulate proto sql : Wire.response =
  let ctx = Ctx.create ~seed proto in
  let db = Tpch_gen.share ctx (Tpch_gen.generate ~seed sf) in
  let proto_label = Ctx.kind_label proto in
  let qseed = Service.query_seed_for ~seed ~proto_label ~sql in
  Service.execute_sql ~ctx ~db ~qseed ~max_rows sql

type row = {
  x_proto : string;
  x_sql : string;
  x_rounds : int;
  x_bits : int;
  x_msgs : int;
  x_exchanges : int;
  x_payload_bytes : int;
  x_frames : int;
  x_wall_s : float;
  x_lan_s : float;
  x_result_ok : bool;
  x_wire_ok : bool;
}

let bench_proto proto suite : row list =
  let label = String.lowercase_ascii (Ctx.kind_label proto) in
  Printf.printf "== %s: launching %d parties on loopback TCP\n%!" label
    (Ctx.parties_of proto);
  (* fork the cluster first: the children build their backends while
     this process computes the simulation references *)
  let l = Cluster.launch_local ~seed ~sf ~max_rows proto in
  Fun.protect ~finally:(fun () -> Cluster.shutdown_local l) @@ fun () ->
  let refs = List.map (fun sql -> (sql, simulate proto sql)) suite in
  let c =
    Client.connect ~timeout_ms:300_000 ~retry_ms:30_000
      (Transport.format_addr l.Cluster.l_client)
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.set_protocol c label with
  | Ok _ -> ()
  | Error msg -> failwith ("cluster refused Hello: " ^ msg));
  List.map
    (fun (sql, reference) ->
      let t0 = Unix.gettimeofday () in
      let resp = Client.query c sql in
      let wall = Unix.gettimeofday () -. t0 in
      let r =
        match resp with
        | Ok r -> r
        | Error (_, msg) -> failwith ("cluster query failed: " ^ msg)
      in
      let result_ok =
        match reference with
        | Wire.Result re -> r = re
        | _ -> false
      in
      if not result_ok then
        Printf.printf "   MISMATCH results: %s\n%!" sql;
      let s =
        match Client.net_stats c with
        | Ok s -> s
        | Error msg -> failwith ("net_stats: " ^ msg)
      in
      let tally = r.Wire.r_tally in
      let wire_ok =
        s.Wire.n_bits = tally.Comm.t_bits
        && s.Wire.n_messages = tally.Comm.t_messages
        && s.Wire.n_exchanges = tally.Comm.t_rounds
        && s.Wire.n_parties = Ctx.parties_of proto
      in
      if not wire_ok then
        Printf.printf
          "   MISMATCH wire: %s\n\
          \     measured bits=%d msgs=%d exch=%d | metered bits=%d msgs=%d \
           rounds=%d\n\
           %!"
          sql s.Wire.n_bits s.Wire.n_messages s.Wire.n_exchanges
          tally.Comm.t_bits tally.Comm.t_messages tally.Comm.t_rounds;
      Printf.printf
        "   %-9s %-36s %6d rounds %10.1f KiB wire  %.3fs wall (LAN est \
         %.3fs)%s\n\
         %!"
        label
        (String.sub sql 7 (min 36 (String.length sql - 7)))
        tally.Comm.t_rounds
        (float_of_int s.Wire.n_payload_bytes /. 1024.)
        wall r.Wire.r_lan_s
        (if result_ok && wire_ok then "" else "  << FAIL");
      {
        x_proto = label;
        x_sql = sql;
        x_rounds = tally.Comm.t_rounds;
        x_bits = tally.Comm.t_bits;
        x_msgs = tally.Comm.t_messages;
        x_exchanges = s.Wire.n_exchanges;
        x_payload_bytes = s.Wire.n_payload_bytes;
        x_frames = s.Wire.n_frames;
        x_wall_s = wall;
        x_lan_s = r.Wire.r_lan_s;
        x_result_ok = result_ok;
        x_wire_ok = wire_ok;
      })
    refs

let () =
  let q = quick () in
  let suite = if q then quick_suite else full_suite in
  Printf.printf
    "orq real-deployment bench: %d queries x {sh-dm, sh-hm, mal-hm} over \
     loopback TCP (sf=%g%s)\n\
     %!"
    (List.length suite) sf
    (if q then ", quick" else "");
  let rows =
    List.concat_map
      (fun proto -> bench_proto proto suite)
      [ Ctx.Sh_dm; Ctx.Sh_hm; Ctx.Mal_hm ]
  in
  let bad =
    List.filter (fun r -> not (r.x_result_ok && r.x_wire_ok)) rows
  in
  let oc = open_out "BENCH_net.json" in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n  \"schema\": \"orq-net-v1\",\n";
  pf "  \"quick\": %b,\n  \"sf\": %g,\n  \"seed\": %d,\n" q sf seed;
  pf
    "  \"note\": \"real multi-party deployment on loopback TCP: one OS \
     process per party, full mesh, one framed message per metered round. \
     result_identical = cluster response byte-identical to the in-process \
     simulation; wire_identical = measured on-the-wire bits/messages equal \
     the Comm tally and physical exchanges = metered rounds. wall_s is \
     loopback wall-clock; lan_est_s is the Netsim model at LAN latency.\",\n";
  pf "  \"results\": [\n";
  List.iteri
    (fun i r ->
      pf
        "    {\"proto\": %S, \"sql\": %S, \"rounds\": %d, \"bits\": %d, \
         \"messages\": %d, \"exchanges\": %d, \"payload_bytes\": %d, \
         \"frames\": %d, \"wall_s\": %.4f, \"lan_est_s\": %.4f, \
         \"result_identical\": %b, \"wire_identical\": %b}%s\n"
        r.x_proto r.x_sql r.x_rounds r.x_bits r.x_msgs r.x_exchanges
        r.x_payload_bytes r.x_frames r.x_wall_s r.x_lan_s
        r.x_result_ok r.x_wire_ok
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pf "  ],\n  \"failures\": %d\n}\n" (List.length bad);
  close_out oc;
  Printf.printf "wrote BENCH_net.json (%d runs)\n%!" (List.length rows);
  if bad <> [] then begin
    Printf.eprintf
      "FAIL: %d queries diverged between the cluster and the simulation\n"
      (List.length bad);
    exit 1
  end;
  Printf.printf
    "all %d cluster responses and wire measurements identical to the \
     simulation\n\
     %!"
    (List.length rows)
