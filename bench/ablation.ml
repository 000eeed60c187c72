(** Ablations of the design choices called out in DESIGN.md:

    - the trimming heuristic (§3.3 / Appendix C.3): Always / Never / Auto
      on asymmetric and symmetric joins;
    - sorting-algorithm choice (quicksort vs radixsort) across key widths;
    - AggNet power-of-two padding: the cost cliff right above 2^k (the
      Figure 8 / Q12 effect);
    - TableSort's one base sort on the packed composite key, on both
      radix paths (carry-through and sigma), vs per-key full re-sorting
      (the strawman Protocol 2 avoids). *)

open Orq_proto
open Orq_core
open Bench_util

let mk_table ctx name n key_bound =
  let prg = ctx.Ctx.prg in
  Table.create ctx name
    [
      ("k", 24, Array.init n (fun _ -> Orq_util.Prg.int_below prg key_bound));
      ("v", 24, Array.init n (fun _ -> Orq_util.Prg.int_below prg 1000));
    ]

let mk_left ctx n =
  Table.create ctx "L"
    [
      ("k", 24, Array.init n (fun i -> i + 1));
      ("lv", 24, Array.init n (fun i -> i * 7));
    ]

let trim_ablation ~n () =
  section "Ablation: join trimming heuristic (SH-HM)";
  hdr "%-26s %-8s %12s %12s %10s" "scenario" "trim" "LAN-est" "MB" "out-rows";
  List.iter
    (fun (label, ln, rn) ->
      List.iter
        (fun (tlabel, trim) ->
          let ctx = Ctx.create ~seed:23 Ctx.Sh_hm in
          let l = mk_left ctx ln in
          let r =
            Table.rename_col (mk_table ctx "R" rn (ln + 1)) ~from:"v" ~into:"rv"
          in
          let j, m =
            measure ctx (fun () ->
                Dataflow.inner_join ~trim l r ~on:[ "k" ] ~copy:[ "lv" ])
          in
          (* follow with an aggregation so the trimmed size pays off *)
          let _, m2 =
            measure ctx (fun () ->
                ignore
                  (Dataflow.aggregate j ~keys:[ "k" ]
                     ~aggs:[ { Dataflow.src = "rv"; dst = "s"; fn = Dataflow.Sum } ]))
          in
          let total =
            {
              m with
              wall_s = m.wall_s +. m2.wall_s;
              online = Orq_net.Comm.add_tally m.online m2.online;
            }
          in
          row "%-26s %-8s %12s %12.2f %10d" label tlabel
            (pretty_time (estimate Netsim.lan total))
            (mib total.online) (Table.nrows j))
        [ ("auto", `Auto); ("always", `Always); ("never", `Never) ])
    [
      (Printf.sprintf "symmetric %dx%d" n (2 * n), n, 2 * n);
      (Printf.sprintf "asymmetric %dx%d" (n / 8) (4 * n), n / 8, 4 * n);
    ];
  row "(heuristic: trim when 3*alpha*N < lg L * lg omega — C.3)"

let sort_algo_ablation ~n () =
  section "Ablation: quicksort vs radixsort by key width (SH-HM)";
  hdr "%-8s %-12s %12s %12s %12s %8s" "width" "algorithm" "compute"
    "LAN-est" "WAN-est" "MB";
  List.iter
    (fun w ->
      List.iter
        (fun (label, algo) ->
          let ctx = Ctx.create ~seed:29 Ctx.Sh_hm in
          let x =
            Mpc.share_b ctx
              (Array.init n (fun _ ->
                   Orq_util.Prg.int_below ctx.Ctx.prg (Orq_util.Ring.mask (min w 30))))
          in
          let _, m =
            measure ctx (fun () ->
                ignore
                  (Tablesort.sort_cols ctx ~algo
                     ~keys:[ (Share.wrap x, w, Tablesort.Asc) ] []))
          in
          row "%-8d %-12s %12s %12s %12s %8.2f" w label (pretty_time m.wall_s)
            (pretty_time (estimate Netsim.lan m))
            (pretty_time (estimate Netsim.wan m))
            (mib m.online))
        [
          ("quicksort", Tablesort.Quicksort);
          ("radixsort", Tablesort.Radixsort);
        ])
    [ 8; 16; 32; 48 ];
  row "(the engine defaults to radixsort at <=32 bits, quicksort above)"

let aggnet_padding_ablation () =
  section "Ablation: AggNet power-of-two padding cliff vs the compaction path (SH-HM)";
  hdr "%-10s %12s %12s %12s %12s" "rows" "net LAN-est" "net MB" "cmp LAN-est" "cmp MB";
  List.iter
    (fun n ->
      let run path =
        let ctx = Ctx.create ~seed:31 Ctx.Sh_hm in
        let t = mk_table ctx "T" n 50 in
        snd
          (measure ctx (fun () ->
               ignore
                 (Dataflow.aggregate_by path t ~keys:[ "k" ]
                    ~aggs:[ { Dataflow.src = "v"; dst = "s"; fn = Dataflow.Sum } ])))
      in
      let net = run Dataflow.Network and cmp = run Dataflow.Compaction in
      row "%-10d %12s %12.2f %12s %12.2f" n
        (pretty_time (estimate Netsim.lan net))
        (mib net.online)
        (pretty_time (estimate Netsim.lan cmp))
        (mib cmp.online))
    [ 1000; 1024; 1025; 2000; 2048; 2049 ];
  row
    "(crossing 2^k pads the network to the next power of two — the \
     paper's Q12 scaling outlier; the compaction path, which a SUM takes \
     at these sizes, does not pad)"

let tablesort_ablation ~n () =
  section
    "Ablation: TableSort packed-key sort vs per-key full re-sort";
  hdr "%-26s %12s %12s %8s" "strategy" "LAN-est" "MB" "rounds";
  let mk ctx =
    Table.create ctx "T"
      [
        ("a", 16, Array.init n (fun _ -> Orq_util.Prg.int_below ctx.Ctx.prg 64));
        ("b", 16, Array.init n (fun _ -> Orq_util.Prg.int_below ctx.Ctx.prg 64));
        ("c", 24, Array.init n (fun i -> i));
        ("d", 24, Array.init n (fun i -> i * 3));
        ("e", 24, Array.init n (fun i -> i * 5));
      ]
  in
  (* TableSort: one base sort on the packed key, on each radix path:
     carry the table through the digits, or extract sigma and permute the
     table once; the rule picks the one that moves fewer bits *)
  let picked =
    Tablesort.radix_path Ctx.Sh_hm ~n ~keys:[ 16; 16 ] ~payload:[ 1; 24; 24; 24 ]
  in
  List.iter
    (fun (label, path) ->
      let ctx = Ctx.create ~seed:37 Ctx.Sh_hm in
      let t = mk ctx in
      let _, m =
        measure ctx (fun () ->
            ignore
              (Tablesort.sort ~radix:path t [ ("a", Tablesort.Asc); ("b", Tablesort.Asc) ]))
      in
      row "%-26s %12s %12.2f %8d"
        (label ^ if path = picked then " *" else "")
        (pretty_time (estimate Netsim.lan m))
        (mib m.online) m.online.Orq_net.Comm.t_rounds)
    [
      ("TableSort carry-through", Tablesort.Carry);
      ("TableSort sigma route", Tablesort.Sigma);
    ];
  (* strawman: sort the full table for each key, least-significant first *)
  let ctx = Ctx.create ~seed:37 Ctx.Sh_hm in
  let t = mk ctx in
  let _, m =
    measure ctx (fun () ->
        let t = Tablesort.sort t [ ("b", Tablesort.Asc) ] in
        ignore (Tablesort.sort t [ ("a", Tablesort.Asc) ]))
  in
  row "%-26s %12s %12.2f %8d" "strawman (re-sort table)"
    (pretty_time (estimate Netsim.lan m))
    (mib m.online) m.online.Orq_net.Comm.t_rounds;
  row
    "(* the path TableSort picks: the fewer bits; the strawman moves every \
     column through every sort — Secrecy-style)"

let planner_ablation ~n () =
  section "Ablation: automatic planner (optimized vs naive plans)";
  hdr "%-34s %12s %12s %10s" "plan" "LAN-est" "MB" "fallbacks";
  let module Pl = Orq_planner.Plan in
  let module Cp = Orq_planner.Compile in
  let mk_plan ctx =
    let prg = ctx.Ctx.prg in
    let l =
      Table.create ctx "L"
        [
          ("k", 12, Array.init n (fun _ -> Orq_util.Prg.int_below prg (n / 4)));
          ("x", 12, Array.init n (fun _ -> Orq_util.Prg.int_below prg 100));
        ]
    in
    let r =
      Table.create ctx "R"
        [
          ("k", 12, Array.init n (fun _ -> Orq_util.Prg.int_below prg (n / 4)));
          ("v", 12, Array.init n (fun _ -> Orq_util.Prg.int_below prg 100));
        ]
    in
    (* many-to-many join + SUM, filter written above the join *)
    Pl.aggregate ~keys:[ "k" ]
      ~aggs:[ { Dataflow.src = "v"; dst = "s"; fn = Dataflow.Sum } ]
      (Pl.filter
         Expr.(col "x" <. const 50)
         (Pl.join (Pl.scan l) (Pl.scan r) ~on:[ "k" ]))
  in
  List.iter
    (fun (label, optimize, sz) ->
      let ctx = Ctx.create ~seed:43 Ctx.Sh_hm in
      let plan = mk_plan ctx in
      ignore sz;
      let (_, fb), m = measure ctx (fun () -> Cp.run (if optimize then Orq_planner.Optimize.run plan else plan)) in
      row "%-34s %12s %12.2f %10d" label
        (pretty_time (estimate Netsim.lan m))
        (mib m.online) fb)
    [
      ("optimized (preagg + pushdown)", true, n);
      ("naive (quadratic fallback)", false, n / 4);
    ];
  row "(the same SQL-level query: the rewrite keeps it O(n log n))"

let all ~n () =
  trim_ablation ~n ();
  sort_algo_ablation ~n ();
  aggnet_padding_ablation ();
  tablesort_ablation ~n ();
  planner_ablation ~n:(n / 2) ()
