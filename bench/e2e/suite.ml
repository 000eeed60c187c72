(* Repeated passes over a fixed list of queries, and the end-to-end
   metrics every workload derives from per-query samples. *)

open Common

type entry = {
  key : string;  (** query name or SQL, unique within the suite *)
  mutable times : float list;  (** wall seconds of each execution *)
  mutable online : Comm.tally option;  (** first execution's tallies *)
  mutable preproc : Comm.tally option;
}

let entry key = { key; times = []; online = None; preproc = None }

type exec = {
  wall : float;
  on : Comm.tally;
  pre : Comm.tally;
  errors : string list;  (** failed checks of this execution *)
}

(* Every execution of a query is reseeded to the same per-query seed, so
   its tallies must repeat exactly; a drift is a failure. *)
let note (e : entry) (x : exec) =
  e.times <- x.wall :: e.times;
  let drift what first now =
    match first with
    | None -> []
    | Some t when t = now -> []
    | Some (t : Comm.tally) ->
        [
          Printf.sprintf "%s: %s tally drifted between executions (rounds %d -> %d, bits %d -> %d)"
            e.key what t.Comm.t_rounds now.Comm.t_rounds t.Comm.t_bits now.Comm.t_bits;
        ]
  in
  let errs = drift "online" e.online x.on @ drift "preprocessing" e.preproc x.pre in
  if e.online = None then begin
    e.online <- Some x.on;
    e.preproc <- Some x.pre
  end;
  errs

type run = { execs : int; elapsed : float; passes : int }

(* Whether to start another of [passes] passes begun at [start]: one is
   always run, and a further one when, at the mean pass time so far, it
   would end less than half a pass after [until]; so a run ends near
   [until] on average, not half a pass past it. *)
let another ~start ~until passes =
  passes = 0
  ||
  let t = now () in
  t +. ((t -. start) /. float_of_int passes /. 2.) < until

(* Run whole passes until the time [until], sampling the kernel for
   [speed] before each query. Whole passes keep every query's share of the
   samples fixed, which the latency percentiles over the mixed suite
   depend on. A query that raises is a failed execution with no sample. *)
let loop ~outcome ~speed ~until entries (exec : qid:int -> entry -> exec) =
  let start = now () in
  let execs = ref 0 and passes = ref 0 in
  while another ~start ~until !passes do
    List.iter
      (fun e ->
        incr execs;
        sample speed;
        match exec ~qid:!execs e with
        | x -> record outcome (x.errors @ note e x)
        | exception ex ->
            record outcome [ Printf.sprintf "%s raised %s" e.key (Printexc.to_string ex) ])
      entries;
    incr passes
  done;
  { execs = !execs; elapsed = now () -. start; passes = !passes }

(* Alternate one untraced and one traced pass until the time [until] (at
   least one of each), so warm-up biases neither side of the tracing
   overhead ratio. Returns the number of traced passes. *)
let alternate ~until ~plain ~traced =
  let start = now () in
  let rec go n =
    if another ~start ~until n then begin
      plain ();
      traced ();
      go (n + 1)
    end
    else n
  in
  go 0

(* Per-query medians, execution counts and tallies, for the facts. *)
let query_facts entries =
  let count f = Json.Num (float_of_int f) in
  ( "queries",
    Json.Obj
      (List.map
         (fun e ->
           let t = Option.value e.online ~default:Comm.zero_tally in
           ( e.key,
             Json.Obj
               [
                 ("median_s", Json.Num (median e.times));
                 ("executions", count (List.length e.times));
                 ("rounds", count t.Comm.t_rounds);
                 ("bits", count t.Comm.t_bits);
               ] ))
         entries) )

let tallies f entries = List.filter_map f entries

let total ts = List.fold_left Comm.add_tally Comm.zero_tally ts

(* Sum over the suite of each query's median wall time: steadier than the
   median of whole passes, whose sum of independent noises is wider. *)
let pass_s entries = sum (List.map (fun e -> median e.times) entries)

(* Of the metrics [e2e] reports: the one that comes from a network model
   rather than a measurement, the measured times scaled to the reference
   host speed, and the traffic counts, which are a function of the seed
   and repeat exactly on every run with it. *)
let modeled = [ "wan_est_s" ]
let scaled = [ "setup_s"; "pass_s"; "qps" ]
let counts = [ "online_rounds"; "online_mib"; "preproc_mib" ]

(* The end-to-end metrics shared by every workload, and facts with the
   numbers behind them. [setup] are the set-up times, and [setup_speed]
   the kernel samples taken with them; [entries] are the workload's
   distinct operations with at least one execution each, [qps] the
   operations completed per second of the measured loop, and [speed] the
   loop's kernel samples; [latencies_ms] is every uncached execution's
   latency. Times are scaled to the reference speed (see [Common.scale]);
   the facts keep them unscaled. *)
let e2e ~setup ~setup_speed ~speed ~entries ~qps ~latencies_ms ~rss_kb =
  let online = total (tallies (fun e -> e.online) entries) in
  let preproc = total (tallies (fun e -> e.preproc) entries) in
  let k_setup = scale setup_speed and k = scale speed in
  let pass = k *. pass_s entries in
  let num x = Json.Num x in
  ( [
      metric "setup_s" (k_setup *. setup_time setup);
      metric "pass_s" pass;
      metric "qps" (qps /. k);
      metric "online_rounds" (float_of_int online.Comm.t_rounds);
      metric "online_mib" (mib_of_bits online.Comm.t_bits);
      metric "preproc_mib" (mib_of_bits preproc.Comm.t_bits);
      metric "wan_est_s" (pass +. Netsim.network_time Netsim.wan online);
      metric "peak_rss_mib" (float_of_int rss_kb /. 1024.);
    ],
    [
      ( "unscaled",
        Json.Obj
          [ ("setup_s", num (setup_time setup)); ("pass_s", num (pass_s entries)); ("qps", num qps) ] );
      ( "kernel_s",
        Json.Obj
          [ ("set_ups", num (kernel_s setup_speed)); ("loop", num (kernel_s speed));
            ("samples", num (float_of_int (List.length speed.samples))) ] );
      ( "cold_latency_ms",
        Json.Obj
          [ ("p50", num (percentile 0.5 latencies_ms)); ("p95", num (percentile 0.95 latencies_ms));
            ("samples", num (float_of_int (List.length latencies_ms))) ] );
    ] )

(* [e2e] of a suite run, where every execution is uncached. *)
let run_e2e ~setup ~setup_speed ~speed ~rss_kb entries (r : run) =
  e2e ~setup ~setup_speed ~speed ~entries
    ~qps:(float_of_int r.execs /. r.elapsed)
    ~latencies_ms:(List.concat_map (fun e -> List.map (fun t -> t *. 1e3) e.times) entries)
    ~rss_kb
