(* service-mix: the query service under closed-loop SQL load — the only
   workload through Wire, Jobqueue, Plan_cache and the SQL planner, and the
   only one under 2PC (sh-dm) and 4PC (mal-hm).

   An in-process Service on a Unix socket (2 workers, cache 64, no pacing,
   sh-dm and mal-hm prewarmed) serves two client threads, one session per
   protocol. Each request picks one of six SQL templates by fixed weight,
   with a literal of Zipf(1.1)-distributed rank among 32 values: 384
   distinct (protocol, SQL) keys against 64 cache entries, so the cache
   both hits and evicts. *)

open Orq_proto
open Common
module Service = Orq_service.Service
module Client = Orq_service.Client
module Wire = Orq_net.Wire
module Ptable = Orq_plaintext.Ptable
module Tpch_gen = Orq_workloads.Tpch_gen

let name = "service-mix"
let sf = 0.001
let sessions = [ Ctx.Sh_dm; Ctx.Mal_hm ]
let literals = 32

type template = {
  tname : string;
  weight : float;
  sql : int -> string;  (** SQL at literal index 0..31 *)
  reference : Tpch_gen.plain -> int -> Ptable.t;
  cols : string list;  (** the SELECT list *)
}

let day v = 80 * (v + 1)
let lt col x (t : Ptable.t) = Ptable.filter t (fun get r -> get col r < x)
let gt col x (t : Ptable.t) = Ptable.filter t (fun get r -> get col r > x)
let agg src dst fn = { Ptable.src; dst; fn }

let templates =
  [
    {
      tname = "orders-by-priority";
      weight = 0.24;
      sql =
        (fun v ->
          Printf.sprintf
            "SELECT o_orderpriority, COUNT(*) AS n, SUM(o_totalprice) AS total FROM \
             orders WHERE o_orderdate < %d GROUP BY o_orderpriority"
            (day v));
      reference =
        (fun p v ->
          Ptable.group_by
            (lt "o_orderdate" (day v) p.Tpch_gen.orders)
            ~keys:[ "o_orderpriority" ]
            ~aggs:[ agg "o_orderkey" "n" Ptable.Count; agg "o_totalprice" "total" Ptable.Sum ]);
      cols = [ "o_orderpriority"; "n"; "total" ];
    };
    {
      tname = "customer-by-segment";
      weight = 0.2;
      sql =
        (fun v ->
          Printf.sprintf
            "SELECT c_mktsegment, COUNT(*) AS n, SUM(c_acctbal) AS bal FROM \
             customer WHERE c_acctbal > %d GROUP BY c_mktsegment"
            (31250 * v));
      reference =
        (fun p v ->
          Ptable.group_by
            (gt "c_acctbal" (31250 * v) p.Tpch_gen.customer)
            ~keys:[ "c_mktsegment" ]
            ~aggs:[ agg "c_custkey" "n" Ptable.Count; agg "c_acctbal" "bal" Ptable.Sum ]);
      cols = [ "c_mktsegment"; "n"; "bal" ];
    };
    {
      tname = "part-by-brand";
      weight = 0.2;
      sql =
        Printf.sprintf
          "SELECT p_brand, COUNT(*) AS n FROM part WHERE p_size > %d GROUP BY p_brand";
      reference =
        (fun p v ->
          Ptable.group_by (gt "p_size" v p.Tpch_gen.part) ~keys:[ "p_brand" ]
            ~aggs:[ agg "p_partkey" "n" Ptable.Count ]);
      cols = [ "p_brand"; "n" ];
    };
    {
      tname = "orders-join-customer";
      weight = 0.14;
      sql =
        (fun v ->
          Printf.sprintf
            "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS total FROM \
             orders JOIN customer ON o_custkey = c_custkey WHERE o_orderdate < %d \
             GROUP BY c_mktsegment"
            (day v));
      reference =
        (fun p v ->
          let cust = Ptable.rename_col p.Tpch_gen.customer ~from:"c_custkey" ~into:"o_custkey" in
          Ptable.group_by
            (Ptable.inner_join (lt "o_orderdate" (day v) p.Tpch_gen.orders) cust
               ~on:[ "o_custkey" ])
            ~keys:[ "c_mktsegment" ]
            ~aggs:[ agg "o_orderkey" "n" Ptable.Count; agg "o_totalprice" "total" Ptable.Sum ]);
      cols = [ "c_mktsegment"; "n"; "total" ];
    };
    {
      tname = "orders-top10";
      weight = 0.14;
      sql =
        (fun v ->
          Printf.sprintf
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderdate < %d \
             ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
            (day v));
      reference =
        (fun p v ->
          Ptable.limit
            (Ptable.sort (lt "o_orderdate" (day v) p.Tpch_gen.orders)
               [ ("o_totalprice", -1); ("o_orderkey", 1) ])
            10);
      cols = [ "o_orderkey"; "o_totalprice" ];
    };
    {
      tname = "lineitem-by-flag";
      weight = 0.08;
      sql =
        (fun v ->
          Printf.sprintf
            "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty FROM \
             lineitem WHERE l_shipdate < %d GROUP BY l_returnflag"
            (day v));
      reference =
        (fun p v ->
          Ptable.group_by
            (lt "l_shipdate" (day v) p.Tpch_gen.lineitem)
            ~keys:[ "l_returnflag" ]
            ~aggs:[ agg "l_orderkey" "n" Ptable.Count; agg "l_quantity" "qty" Ptable.Sum ]);
      cols = [ "l_returnflag"; "n"; "qty" ];
    };
  ]

let ntemplates = List.length templates
let template i = List.nth templates i

(* ------------------------------------------------------------------ *)
(* Request streams                                                     *)
(* ------------------------------------------------------------------ *)

let cdf weights =
  let tot = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  Array.map (fun w -> acc := !acc +. (w /. tot); !acc) weights

let zipf = cdf (Array.init literals (fun r -> 1. /. (float_of_int (r + 1) ** 1.1)))
let mix = cdf (Array.of_list (List.map (fun t -> t.weight) templates))

let draw cdf st =
  let u = Random.State.float st 1. in
  let rec find i = if i >= Array.length cdf - 1 || u <= cdf.(i) then i else find (i + 1) in
  find 0

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

type stream = {
  st : Random.State.t;
  hot : int array;  (** Zipf rank -> literal index, shared by both sessions *)
  mutable owed : int list;  (** templates not yet requested *)
}

(* A session's requests: first every template once (so every (protocol,
   template) pair has a cold sample), then templates by weight, each with a
   literal of Zipf-drawn rank. The sequence does not depend on --seed (which
   changes the catalog and the protocol randomness): the cache then sees
   the same reuse on every run, and since a template's traffic depends on
   its literal (a public constant) but not on the data, the traffic counts
   repeat exactly. [variant] picks another rank -> literal mapping. *)
let stream ~variant ~session =
  let st = Random.State.make [| 0x5e55; session |] in
  {
    st;
    hot = shuffle (Random.State.make [| 0x5eed; variant |]) (Array.init literals Fun.id);
    owed = Array.to_list (shuffle st (Array.init ntemplates Fun.id));
  }

let next s =
  let t =
    match s.owed with
    | t :: rest ->
        s.owed <- rest;
        t
    | [] -> draw mix s.st
  in
  (t, s.hot.(draw zipf s.st))

(* ------------------------------------------------------------------ *)
(* Service and load                                                    *)
(* ------------------------------------------------------------------ *)

let label k = String.lowercase_ascii (Ctx.kind_label k)
let warm_sql = "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey"

let start ~sock ~cseed =
  Service.start
    {
      (Service.default_config ~socket_path:sock ()) with
      Service.sf;
      seed = cseed;
      workers = 2;
      max_jobs = 8;
      max_rows = 10_000;
      cache_capacity = 64;
      admit_timeout_s = 60.;
      drain_timeout_s = 5.;
      pace = None;
      prewarm = sessions;
      verbose = false;
      job_hook = None;
    }

let connect ~sock kind =
  let c = Client.connect ~timeout_ms:120_000 ("unix:" ^ sock) in
  match Client.set_protocol c (label kind) with
  | Ok _ -> c
  | Error msg ->
      Client.close c;
      failwith ("service refused the session: " ^ msg)

(* One set-up: start the service (catalog generation inside), and wait for
   both protocol backends to answer a first query. *)
let set_up ~sock ~cseed =
  let t0 = now () in
  let svc = start ~sock ~cseed in
  List.iter
    (fun k ->
      let c = connect ~sock k in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      match Client.query c warm_sql with
      | Ok _ -> ()
      | Error (_, msg) -> failwith ("warm-up query failed: " ^ msg))
    sessions;
  (svc, now () -. t0)

type req = {
  kind : Ctx.kind;
  tidx : int;
  lit : int;
  sql : string;
  t0 : float;
  t1 : float;
  resp : (Wire.query_result, string) Stdlib.result;
  delta : (string * Json.t) list;  (** Service.stats deltas (traced runs) *)
}

let stats_delta (a : Wire.stats) (b : Wire.stats) =
  let d f = Json.Num (float_of_int (f b - f a)) in
  Wire.
    [
      ("cache_hits", d (fun s -> s.s_cache_hits));
      ("cache_misses", d (fun s -> s.s_cache_misses));
      ("coalesced", d (fun s -> s.s_coalesced));
      ("jobs", d (fun s -> s.s_jobs));
      ("queue_depth", Json.Num (float_of_int b.s_queue_depth));
    ]

(* Closed loop: each session sends its next request when the previous
   answer arrives, until the time [until]; between the two it samples the
   kernel for [speed]. *)
let load svc ~sock ~speed ~variant ~until ~traced =
  let out = Array.make (List.length sessions) [] in
  let session i kind =
    let s = stream ~variant ~session:i in
    let c = connect ~sock kind in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    while now () < until do
      sample speed;
      let tidx, lit = next s in
      let sql = (template tidx).sql lit in
      let before = if traced then Some (Service.stats svc) else None in
      let t0 = now () in
      let resp =
        match Client.query c sql with
        | Ok r -> Ok r
        | Error (code, msg) -> Error (Wire.err_label code ^ ": " ^ msg)
        | exception e -> Error (Printexc.to_string e)
      in
      let t1 = now () in
      let delta =
        match before with Some b -> stats_delta b (Service.stats svc) | None -> []
      in
      out.(i) <- { kind; tidx; lit; sql; t0; t1; resp; delta } :: out.(i)
    done
  in
  let start = now () in
  let threads =
    List.mapi
      (fun i kind ->
        Thread.create
          (fun () ->
            try session i kind
            with e ->
              out.(i) <-
                {
                  kind; tidx = 0; lit = 0; sql = ""; t0 = now (); t1 = now ();
                  resp = Error ("session failed: " ^ Printexc.to_string e); delta = [];
                }
                :: out.(i))
          ())
      sessions
  in
  List.iter Thread.join threads;
  (List.concat_map List.rev (Array.to_list out), now () -. start)

(* ------------------------------------------------------------------ *)
(* Checks and metrics                                                  *)
(* ------------------------------------------------------------------ *)

(* Every response must repeat its (protocol, SQL) key's first response
   (cache hits replay it, re-executions after eviction must reproduce it),
   carry the same rows under both protocols, and match the plaintext
   evaluation of its SQL. References are computed after the load, so no
   plaintext work competes with it. *)
let check outcome plain reqs =
  let first = Hashtbl.create 64 and rows = Hashtbl.create 64 and refs = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let errors =
        match r.resp with
        | Error msg -> [ Printf.sprintf "%s %s: %s" (label r.kind) r.sql msg ]
        | Ok res ->
            let key = (r.kind, r.sql) in
            let repeat =
              match Hashtbl.find_opt first key with
              | None ->
                  Hashtbl.add first key res;
                  []
              | Some f when { res with Wire.r_cache_hit = f.Wire.r_cache_hit } = f -> []
              | Some _ -> [ Printf.sprintf "%s %s: response differs from its first" (label r.kind) r.sql ]
            in
            let across =
              match Hashtbl.find_opt rows r.sql with
              | None ->
                  Hashtbl.add rows r.sql res.Wire.r_rows;
                  []
              | Some rs when rs = res.Wire.r_rows -> []
              | Some _ -> [ Printf.sprintf "%s: rows differ between protocols" r.sql ]
            in
            let t = template r.tidx in
            let want =
              match Hashtbl.find_opt refs r.sql with
              | Some w -> w
              | None ->
                  let w = Ptable.rows_sorted (t.reference plain r.lit) t.cols in
                  Hashtbl.add refs r.sql w;
                  w
            in
            let valid =
              if res.Wire.r_cols = t.cols && res.Wire.r_rows = want then []
              else [ Printf.sprintf "%s %s: rows differ from the plaintext reference" (label r.kind) r.sql ]
            in
            repeat @ across @ valid
      in
      record outcome errors)
    reqs

(* One suite entry per (protocol, template): its cold latencies and the
   tallies of its first answer. The literal does not change a template's
   traffic (execution is oblivious), so these tallies are the cost of one
   pass over all twelve pairs. A pair without a cold execution is
   reported and left out. *)
let entries outcome reqs =
  List.concat_map
    (fun kind ->
      List.filter (fun (e : Suite.entry) -> e.Suite.times <> [])
      @@ List.mapi
        (fun tidx t ->
          let e = Suite.entry (label kind ^ ":" ^ t.tname) in
          List.iter
            (fun r ->
              match r.resp with
              | Ok res when r.kind = kind && r.tidx = tidx ->
                  if e.Suite.online = None then begin
                    e.Suite.online <- Some res.Wire.r_tally;
                    e.Suite.preproc <- Some res.Wire.r_pre
                  end;
                  if not res.Wire.r_cache_hit then e.Suite.times <- (r.t1 -. r.t0) :: e.Suite.times
              | _ -> ())
            reqs;
          if e.Suite.times = [] then problem outcome ("no cold execution of " ^ e.Suite.key);
          e)
        templates)
    sessions

let cold_ms reqs =
  List.filter_map
    (fun r ->
      match r.resp with
      | Ok res when not res.Wire.r_cache_hit -> Some ((r.t1 -. r.t0) *. 1e3)
      | _ -> None)
    reqs

let answered reqs = List.length (List.filter (fun r -> Result.is_ok r.resp) reqs)

let facts ~cseed ~plain reqs =
  let hits =
    List.length
      (List.filter (fun r -> match r.resp with Ok x -> x.Wire.r_cache_hit | _ -> false) reqs)
  in
  [
    ("protocols", Json.Arr (List.map (fun k -> Json.Str (label k)) sessions));
    ("sf", Json.Num sf);
    ("catalog_seed", Json.Num (float_of_int cseed));
    ("lineitem_rows", Json.Num (float_of_int (Ptable.nrows plain.Tpch_gen.lineitem)));
    ("requests", Json.Num (float_of_int (List.length reqs)));
    ("cache_hits", Json.Num (float_of_int hits));
    ( "distinct_keys",
      Json.Num
        (float_of_int
           (List.length (List.sort_uniq compare (List.map (fun r -> (r.kind, r.sql)) reqs)))) );
  ]

let run ~seed ~until ~trace_file : result =
  let outcome = outcome () in
  let sock = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "svc-%d.sock" (Unix.getpid ())) in
  let t0 = now () in
  let cseed, plain = Catalog.generate ~sf ~seed in
  let gen_s = now () -. t0 in
  let setup_speed = speed () and speed = speed () in
  let svc, setup =
    set_up_repeatedly ~speed:setup_speed
      ~set_up:(fun () -> set_up ~sock ~cseed)
      ~tear_down:Service.stop
  in
  Fun.protect ~finally:(fun () -> Service.stop svc) @@ fun () ->
  match trace_file with
  | None ->
      let reqs, elapsed = load svc ~sock ~speed ~variant:0 ~until ~traced:false in
      check outcome plain reqs;
      let es = entries outcome reqs in
      let metrics, e2e_facts =
        Suite.e2e ~setup ~setup_speed ~speed ~entries:es
          ~qps:(float_of_int (answered reqs) /. elapsed)
          ~latencies_ms:(cold_ms reqs) ~rss_kb:(Chunkvec.rss_peak_kb ())
      in
      {
        workload = name;
        outcome;
        metrics;
        facts = facts ~cseed ~plain reqs @ e2e_facts @ [ Suite.query_facts es ];
      }
  | Some path ->
      let half = now () +. ((until -. now ()) /. 2.) in
      (* the traced half uses other literals, so it too runs mostly cold *)
      let untraced, _ = load svc ~sock ~speed ~variant:0 ~until:half ~traced:false in
      let reqs, _ = load svc ~sock ~speed ~variant:1 ~until ~traced:true in
      check outcome plain (untraced @ reqs);
      let pass rs = Suite.pass_s (entries outcome rs) in
      let overhead = pass reqs /. pass untraced in
      let tr = Tracer.create () in
      List.iteri
        (fun i r ->
          Tracer.add_span tr ~qid:i
            ~attrs:
              ([
                 ("protocol", Json.Str (label r.kind));
                 ("literal", Json.Num (float_of_int r.lit));
                 ( "cache_hit",
                   Json.Bool (match r.resp with Ok x -> x.Wire.r_cache_hit | Error _ -> false) );
               ]
              @ r.delta)
            ("request." ^ (template r.tidx).tname)
            r.t0 r.t1)
        reqs;
      let t0 = now () in
      let shared = List.map (fun k -> Tpch_gen.share (Ctx.create ~seed:cseed k) plain) sessions in
      let share_s = now () -. t0 in
      let planner = Probes.plan_ms (List.hd shared) (List.map (fun (t : template) -> t.sql 0) templates) in
      let probes =
        Probes.run tr Ctx.Sh_dm ~n:(Ptable.nrows plain.Tpch_gen.lineitem) ~seed:cseed
      in
      let st = Service.stats svc in
      Json.to_file path (Tracer.to_json tr ~workload:name ~seed);
      let f x = float_of_int x in
      {
        workload = name;
        outcome;
        metrics =
          probes
          @ Wire.
              [
                metric "workloads.generate_s" gen_s;
                metric "workloads.share_s" share_s;
                metric "planner.plan_ms" planner;
                metric "service.hit_ratio"
                  (f st.s_cache_hits /. f (max 1 (st.s_cache_hits + st.s_cache_misses)));
                metric "service.coalesced" (f st.s_coalesced);
                metric "service.rejected" (f st.s_rejected);
                metric "service.wait_p50_ms" st.s_wait_p50_ms;
                metric "service.wait_p95_ms" st.s_wait_p95_ms;
                metric "service.exec_p50_ms" st.s_exec_p50_ms;
                metric "service.exec_p95_ms" st.s_exec_p95_ms;
                metric "trace.overhead_ratio" overhead;
              ];
        facts = facts ~cseed ~plain reqs;
      }
