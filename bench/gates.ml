(** Benchmark gates: the ratio and selection checks that guard the
    engine's performance claims. No flag, no environment variable, no
    output file: every size, seed and threshold is fixed below. Each gate
    prints one PASS or FAIL line with the figures it judged, and the run
    exits 1 if any gate failed.

    Usage: dune exec bench/gates.exe

    - bitpack: the packed interactive AND ([Mpc.band_f]) is >= 8x cheaper
      per element than the word AND at width 1 on the same flags
      (n = 2^17, Sh-HM);
    - join: Q3 and Q9 at SF 0.0002 under Sh-HM, each run in forced sort,
      forced linear and cost-based auto ([Joincost]) mode: every run
      validates against the plaintext engine; the linear join beats the
      sort join on measured rounds and/or bits on both queries; auto is
      never costlier, in modeled network seconds under the costing
      profile, than a forced mode;
    - aggregation: a GROUP BY (two keys, SUM, COUNT, AVG) over n in
      {2, 5, 17, 64, 300, 3000} rows under every protocol, run on the
      aggregation network and on the compaction: both open the same rows,
      and the path [Dataflow.agg_path] picks is never costlier in modeled
      network seconds under the costing profile;
    - sort: a radix TableSort over a grid of shapes (1-3 keys, 0-3
      payload columns, n in {2, 300, 3000}) under every protocol, run on
      both paths ([Tablesort.sort_cols ~radix]) and on the one
      [Tablesort.radix_path] picks: all three give the same columns, and
      the picked run never moves more bits than the other path, nor takes
      more rounds unless it moves strictly fewer bits;
    - scale: with streaming on and no budget, chunked wall clock is
      <= 1.3x monolithic on Q1 + Q6 at SF 0.01; Q1 at SF 0.02 completes
      under a budget of 1/4 of its own unlimited streaming peak, spilling,
      with identical tallies; a Q6 ladder over SF 0.005/0.01/0.02 at
      budget = lineitem/4 keeps resident chunk bytes within budget + 10%;
    - service: cold (cache off, LAN-paced) Sh-HM throughput at 8 clients
      with 4 execution workers is >= 2x that of one worker. *)

open Orq_proto
open Orq_workloads
open Bench_util
module Chunkvec = Orq_util.Chunkvec
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim
module Joincost = Orq_core.Joincost
module Table = Orq_core.Table
module Dataflow = Orq_core.Dataflow
module Tablesort = Orq_core.Tablesort
module Service = Orq_service.Service
module Client = Orq_service.Client

let sprintf = Printf.sprintf

(* ---------------- bitpack ---------------- *)

(* Best of three timed blocks, each ~20 ms: ns per element. *)
let ns_per_elt ~n f =
  f ();
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let iters = max 3 (min 2000 (int_of_float (0.02 /. max 1e-6 once))) in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    best := min !best (Unix.gettimeofday () -. t0)
  done;
  !best /. float_of_int iters /. float_of_int n *. 1e9

let bitpack () =
  let n = 1 lsl 17 in
  let ctx = Ctx.create ~seed:21 Ctx.Sh_hm in
  let bits seed = Array.init n (fun i -> ((i * 73) lxor seed) land 1) in
  let x = Mpc.share_b ctx (bits 1) and y = Mpc.share_b ctx (bits 2) in
  let xf = Share.pack_flags x and yf = Share.pack_flags y in
  let packed = ns_per_elt ~n (fun () -> ignore (Mpc.band_f ctx xf yf)) in
  let word = ns_per_elt ~n (fun () -> ignore (Mpc.band ~width:1 ctx x y)) in
  let speedup = word /. packed in
  [
    ( "bitpack band1",
      speedup >= 8.0,
      sprintf "packed %.3f vs word %.3f ns/elt at n = 2^17: %.1fx (need >= 8x)"
        packed word speedup );
  ]

(* ---------------- join ---------------- *)

type jrun = { j_ok : bool; j_tally : Comm.tally; j_ops : string }

let join_run plain (q : Tpch.query) mode =
  let prev = Joincost.mode () in
  Joincost.set_mode mode;
  Fun.protect ~finally:(fun () -> Joincost.set_mode prev) @@ fun () ->
  Joincost.reset_log ();
  let ctx = Ctx.create ~seed:5 Ctx.Sh_hm in
  let mdb = Tpch_gen.share ctx plain in
  let before = Comm.snapshot ctx.Ctx.comm in
  let ok, _, _ = Query.validate q plain mdb in
  let j_tally = Comm.since ctx.Ctx.comm before in
  let j_ops =
    String.concat ","
      (List.map
         (fun (d : Joincost.decision) -> Joincost.op_label d.Joincost.jd_chosen)
         (Joincost.log ()))
  in
  { j_ok = ok; j_tally; j_ops }

let join () =
  let plain = Tpch_gen.generate ~seed:99 0.0002 in
  let rows =
    List.map
      (fun name ->
        let q = Tpch.find name in
        ( name,
          join_run plain q (Joincost.Force Joincost.Sort),
          join_run plain q (Joincost.Force Joincost.Linear),
          join_run plain q Joincost.Auto ))
      [ "Q3"; "Q9" ]
  in
  (* auto is compared in the profile the cost model itself prices with *)
  let secs r = Netsim.network_time (Joincost.profile ()) r.j_tally in
  let cell label r =
    sprintf "%s %s %d rounds %d bits %s" label r.j_ops r.j_tally.Comm.t_rounds
      r.j_tally.Comm.t_bits
      (pretty_time (secs r))
  in
  let show (name, s, l, a) =
    sprintf "%s [%s | %s | %s]" name (cell "sort" s) (cell "linear" l)
      (cell "auto" a)
  in
  let beats (_, s, l, _) =
    l.j_tally.Comm.t_rounds < s.j_tally.Comm.t_rounds
    || l.j_tally.Comm.t_bits < s.j_tally.Comm.t_bits
  in
  let auto_cheapest (_, s, l, a) = secs a <= min (secs s) (secs l) *. 1.0001 in
  let invalid =
    List.filter_map
      (fun (n, s, l, a) -> if s.j_ok && l.j_ok && a.j_ok then None else Some n)
      rows
  in
  let won = List.length (List.filter beats rows) in
  let lost = List.filter (fun r -> not (auto_cheapest r)) rows in
  [
    ( "join validation",
      invalid = [],
      sprintf "Q3, Q9 x sort, linear, auto against plaintext; failing: [%s]"
        (String.concat ", " invalid) );
    ( "join linear beats sort",
      won >= 2,
      sprintf "on %d/2 SH-HM queries (need 2): %s" won
        (String.concat "; " (List.map show rows)) );
    ( "join auto cheapest",
      lost = [],
      sprintf "auto loses to a forced mode on %d/2 SH-HM queries%s"
        (List.length lost)
        (String.concat "" (List.map (fun r -> ": " ^ show r) lost)) );
  ]

(* ---------------- aggregation ---------------- *)

(* One GROUP BY of [n] rows (two keys, interleaved invalid rows, SUM,
   COUNT and AVG) under [kind] on a given path: its opened rows, its
   online tally, and the path the chooser picks for it. *)
let agg_run kind n path =
  let ctx = Ctx.create ~seed:13 kind in
  let t =
    Table.create ctx "t"
      ~valid:(Array.init n (fun i -> if i mod 7 = 3 then 0 else 1))
      [
        ("g", 10, Array.init n (fun i -> (i * 7919) mod max 1 (n / 4)));
        ("h", 2, Array.init n (fun i -> i land 3));
        ("x", 16, Array.init n (fun i -> (i * 104729) land 0xffff));
      ]
  in
  let keys = [ "g"; "h" ] in
  let aggs =
    [
      { Dataflow.src = "x"; dst = "s"; fn = Dataflow.Sum };
      { Dataflow.src = "x"; dst = "c"; fn = Dataflow.Count };
      { Dataflow.src = "x"; dst = "a"; fn = Dataflow.Avg };
    ]
  in
  let chosen = Dataflow.agg_path t ~keys ~aggs in
  let before = Comm.snapshot ctx.Ctx.comm in
  let out = Dataflow.aggregate_by path t ~keys ~aggs in
  let tally = Comm.since ctx.Ctx.comm before in
  (Table.valid_rows_sorted out [ "g"; "h"; "s"; "c"; "a" ], tally, chosen)

(* The chooser's pick against both paths measured, over the closed
   forms' test grid: the picked path is never costlier in modeled network
   seconds under the costing profile, and both paths open the same
   rows. *)
let aggregation () =
  let secs t = Netsim.network_time (Joincost.profile ()) t in
  let cells =
    List.concat_map
      (fun kind ->
        List.map
          (fun n ->
            let rn, tn, chosen = agg_run kind n Dataflow.Network in
            let rc, tc, _ = agg_run kind n Dataflow.Compaction in
            let picked, other = if chosen = Dataflow.Network then (tn, tc) else (tc, tn) in
            ( sprintf "%s n=%d %s (%d vs %d rounds)" (Ctx.kind_label kind) n
                (if chosen = Dataflow.Network then "network" else "compaction")
                picked.Comm.t_rounds other.Comm.t_rounds,
              rn = rc,
              secs picked <= secs other *. 1.0001 ))
          [ 2; 5; 17; 64; 300; 3000 ])
      Ctx.all_kinds
  in
  let bad f = List.filter_map (fun (c, same, won) -> if f (same, won) then None else Some c) cells in
  let differ = bad fst and lost = bad snd in
  [
    ( "aggregation paths agree",
      differ = [],
      sprintf "network and compaction open the same rows on %d/%d cells%s"
        (List.length cells - List.length differ)
        (List.length cells)
        (String.concat "" (List.map (fun c -> "; differ: " ^ c) differ)) );
    ( "aggregation choice never loses",
      lost = [],
      sprintf "the picked path is the cheaper on %d/%d cells (%s)%s"
        (List.length cells - List.length lost)
        (List.length cells)
        (String.concat ", " (List.map (fun (c, _, _) -> c) cells))
        (String.concat "" (List.map (fun c -> "; loses: " ^ c) lost)) );
  ]

(* ---------------- sort ---------------- *)

(* One radix TableSort of [n] rows under [kind] on ascending keys of
   widths [keys] (a few distinct values each) carrying columns of widths
   [payload], on the forced path [radix] or (None) the picked one: the
   sorted columns, opened, and the online tally. *)
let sort_run kind n (keys, payload) radix =
  let ctx = Ctx.create ~seed:17 kind in
  let col i w =
    Share.wrap
      (Mpc.share_b ctx
         (Array.init n (fun r ->
              ((r * 7919) + (i * 104729)) mod (1 + (n / 5)) land Orq_util.Ring.mask (min w 62))))
  in
  let before = Comm.snapshot ctx.Ctx.comm in
  let k, p =
    Tablesort.sort_cols ctx ?radix
      ~keys:(List.mapi (fun i w -> (col i w, w, Tablesort.Asc)) keys)
      (List.mapi (fun i w -> (col (10 + i) w, w)) payload)
  in
  let tally = Comm.since ctx.Ctx.comm before in
  (List.map (fun c -> Share.reconstruct (Share.unpark c)) (k @ p), tally)

let sort_paths () =
  let shapes =
    [ ([ 1; 10; 2 ], [ 16 ]); ([ 1; 20 ], []); ([ 1; 32; 32 ], [ 24; 8; 8 ]); ([ 5 ], [ 40; 40 ]);
      ([ 1; 12 ], [ 64 ]) ]
  in
  let cells =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun n ->
            List.map
              (fun ((keys, payload) as shape) ->
                let vp, picked = sort_run kind n shape None in
                let vc, carry = sort_run kind n shape (Some Tablesort.Carry) in
                let vs, sigma = sort_run kind n shape (Some Tablesort.Sigma) in
                let is_carry = picked = carry in
                let other = if is_carry then sigma else carry in
                let widths l = String.concat "," (List.map string_of_int l) in
                ( sprintf "%s n=%d keys=%s payload=%s %s (%d vs %d rounds, %d vs %d bits)"
                    (Ctx.kind_label kind) n (widths keys) (widths payload)
                    (if is_carry then "carry" else "sigma")
                    picked.Comm.t_rounds other.Comm.t_rounds picked.Comm.t_bits
                    other.Comm.t_bits,
                  vp = vc && vc = vs,
                  (picked = carry || picked = sigma)
                  && picked.Comm.t_bits <= other.Comm.t_bits
                  && (picked.Comm.t_rounds <= other.Comm.t_rounds
                     || picked.Comm.t_bits < other.Comm.t_bits) ))
              shapes)
          [ 2; 300; 3000 ])
      Ctx.all_kinds
  in
  let bad f = List.filter_map (fun (c, same, won) -> if f (same, won) then None else Some c) cells in
  let differ = bad fst and lost = bad snd in
  [
    ( "sort paths agree",
      differ = [],
      sprintf "carry-through, sigma and the picked path give the same columns on %d/%d cells%s"
        (List.length cells - List.length differ)
        (List.length cells)
        (String.concat "" (List.map (fun c -> "; differ: " ^ c) differ)) );
    ( "sort choice never loses",
      lost = [],
      sprintf
        "the picked path moves no more bits than the other, and takes no more rounds \
         unless it moves fewer bits, on %d/%d cells (%s)%s"
        (List.length cells - List.length lost)
        (List.length cells)
        (String.concat ", " (List.map (fun (c, _, _) -> c) cells))
        (String.concat "" (List.map (fun c -> "; loses: " ^ c) lost)) );
  ]

(* ---------------- scale ---------------- *)

let with_streaming ~budget f =
  let rows0 = Chunkvec.chunk_rows () and budget0 = Chunkvec.budget () in
  let on0 = Chunkvec.streaming_enabled () in
  Chunkvec.set_chunk_rows 8192;
  Chunkvec.set_budget budget;
  Fun.protect
    ~finally:(fun () ->
      Chunkvec.set_chunk_rows rows0;
      Chunkvec.set_budget budget0;
      Chunkvec.set_streaming on0)
    f

let with_monolithic f =
  let on0 = Chunkvec.streaming_enabled () in
  Chunkvec.set_streaming false;
  Fun.protect ~finally:(fun () -> Chunkvec.set_streaming on0) f

(* One validated query run under the ambient streaming configuration,
   sharing inside the measurement so peak bytes cover the catalog. *)
let scale_query plain qname =
  Gc.full_major ();
  let ctx = Ctx.create ~seed:5 Ctx.Sh_hm in
  let (ok, _, _), m =
    measure ctx (fun () ->
        Query.validate (Tpch.find qname) plain (Tpch_gen.share ctx plain))
  in
  (ok, m)

(* Physical share bytes of lineitem: every column plus the validity bit,
   one ring word per party vector per row. *)
let lineitem_bytes plain =
  with_streaming ~budget:0 @@ fun () ->
  let ctx = Ctx.create ~seed:5 Ctx.Sh_hm in
  let t, _ = Tpch_gen.catalog (Tpch_gen.share ctx plain) "lineitem" in
  Share.length t.Table.valid * (List.length t.Table.cols + 1) * ctx.Ctx.parties * 8

let same_tally (a : measurement) (b : measurement) =
  a.online.Comm.t_rounds = b.online.Comm.t_rounds
  && a.online.Comm.t_bits = b.online.Comm.t_bits
  && a.online.Comm.t_messages = b.online.Comm.t_messages

(* The store guarantees its budget plus the pinned working set (chunks an
   active operator holds are not evictable): allow 10% slack. *)
let within budget peak = peak <= budget + (budget / 10)

let mib_of b = float_of_int b /. 1024. /. 1024.

let scale () =
  (* overhead at a memory-comfortable size *)
  let plain = Tpch_gen.generate ~seed:99 0.01 in
  let speed =
    List.map
      (fun q ->
        let ok_m, mm = with_monolithic (fun () -> scale_query plain q) in
        let ok_c, mc = with_streaming ~budget:0 (fun () -> scale_query plain q) in
        (ok_m && ok_c && same_tally mm mc, mm.wall_s, mc.wall_s))
      [ "Q1"; "Q6" ]
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. speed in
  let mono = sum (fun (_, m, _) -> m) and chunked = sum (fun (_, _, c) -> c) in
  let ratio = chunked /. mono in
  let speed_ok = List.for_all (fun (ok, _, _) -> ok) speed in
  (* Q1 at SF 0.02 under a quarter of its own unlimited peak *)
  let plain = Tpch_gen.generate ~seed:99 0.02 in
  let tbytes = lineitem_bytes plain in
  let ok_u, mu = with_streaming ~budget:0 (fun () -> scale_query plain "Q1") in
  let budget = max 1 (mu.peak_chunk_bytes / 4) in
  let ok_b, mb = with_streaming ~budget (fun () -> scale_query plain "Q1") in
  let big_ok =
    ok_u && ok_b && same_tally mu mb && mb.spills > 0
    && within budget mb.peak_chunk_bytes
    && budget < tbytes
  in
  (* Q6 ladder at budget = lineitem / 4 *)
  let ladder =
    List.map
      (fun sf ->
        let plain = Tpch_gen.generate ~seed:99 sf in
        let budget = max 1 (lineitem_bytes plain / 4) in
        let ok, m = with_streaming ~budget (fun () -> scale_query plain "Q6") in
        (sf, ok && within budget m.peak_chunk_bytes, budget, m))
      [ 0.005; 0.01; 0.02 ]
  in
  [
    ( "scale chunked overhead",
      ratio <= 1.30 && speed_ok,
      sprintf
        "Q1+Q6 @ SF 0.01: chunked %s / monolithic %s = %.2fx (need <= 1.30x); \
         tallies identical and validated: %b"
        (pretty_time chunked) (pretty_time mono) ratio speed_ok );
    ( "scale budgeted run",
      big_ok,
      sprintf
        "Q1 @ SF 0.02: lineitem %.1f MiB, unlimited peak %.1f MiB, budget \
         %.1f MiB, budgeted peak %.1f MiB, %d spills, %s; tallies identical: \
         %b, validated: %b"
        (mib_of tbytes) (mib_of mu.peak_chunk_bytes) (mib_of budget)
        (mib_of mb.peak_chunk_bytes) mb.spills (pretty_time mb.wall_s)
        (same_tally mu mb) (ok_u && ok_b) );
    ( "scale ladder",
      List.for_all (fun (_, ok, _, _) -> ok) ladder,
      String.concat "; "
        (List.map
           (fun (sf, ok, budget, (m : measurement)) ->
             sprintf "Q6 @ SF %g: peak %.1f / budget %.1f MiB, %d spills%s" sf
               (mib_of m.peak_chunk_bytes) (mib_of budget) m.spills
               (if ok then "" else " FAILED"))
           ladder) );
  ]

(* ---------------- service ---------------- *)

(* Small-table queries: a few milliseconds of oblivious compute against
   tens of milliseconds of modeled network time, the regime where the
   worker pool overlaps network time. *)
let service_sql =
  [|
    "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey";
    "SELECT s_nationkey, COUNT(*) AS n FROM supplier GROUP BY s_nationkey";
    "SELECT r_regionkey, COUNT(*) AS n FROM region GROUP BY r_regionkey";
    "SELECT n_nationkey, COUNT(*) AS n FROM nation GROUP BY n_nationkey";
  |]

(* Closed-loop cold throughput (queries/s) of a fresh server with
   [workers] workers: a warm-up wave of [workers] clients each sending
   every query once, then 8 clients sending 4 queries each. *)
let cold_qps workers =
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (sprintf "orq-gates-%d-%d.sock" (Unix.getpid ()) workers)
  in
  let srv =
    Service.start
      {
        (Service.default_config ~socket_path ()) with
        Service.sf = 0.001;
        workers;
        cache_capacity = 0;
        max_jobs = 64;
        pace = Some Netsim.lan;
        prewarm = [ Ctx.Sh_hm ];
      }
  in
  Fun.protect ~finally:(fun () -> Service.stop srv) @@ fun () ->
  let errors = Atomic.make 0 in
  let clients k sqls =
    List.init k (fun ci ->
        Thread.create
          (fun () ->
            try
              let c = Client.connect socket_path in
              Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
              if Result.is_error (Client.set_protocol c "sh-hm") then
                Atomic.incr errors;
              List.iter
                (fun sql ->
                  if Result.is_error (Client.query c sql) then
                    Atomic.incr errors)
                (sqls ci)
            with _ -> Atomic.incr errors)
          ())
    |> List.iter Thread.join
  in
  clients workers (fun _ -> Array.to_list service_sql);
  let t0 = Unix.gettimeofday () in
  clients 8 (fun ci ->
      List.init 4 (fun i -> service_sql.((ci + i) mod Array.length service_sql)));
  let wall = Unix.gettimeofday () -. t0 in
  if Atomic.get errors > 0 then
    failwith (sprintf "%d failed requests at %d workers" (Atomic.get errors) workers);
  32. /. wall

let service () =
  let one = cold_qps 1 in
  let four = cold_qps 4 in
  let speedup = four /. one in
  [
    ( "service cold scaling",
      speedup >= 2.0,
      sprintf
        "SH-HM, cache off, LAN-paced, 8 clients: %.1f qps (1 worker) -> %.1f \
         qps (4 workers) = %.2fx (need >= 2x)"
        one four speedup );
  ]

let () =
  let failed = ref 0 in
  List.iter
    (fun (group, f) ->
      let results = try f () with e -> [ (group, false, Printexc.to_string e) ] in
      List.iter
        (fun (name, pass, detail) ->
          if not pass then incr failed;
          Printf.printf "%s %s: %s\n%!" (if pass then "PASS" else "FAIL") name
            detail)
        results)
    [
      ("bitpack", bitpack);
      ("join", join);
      ("aggregation", aggregation);
      ("sort", sort_paths);
      ("scale", scale);
      ("service", service);
    ];
  if !failed > 0 then exit 1
