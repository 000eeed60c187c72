(** Sorting and shuffling experiments:

    - Table 1: measured communication / rounds of the shuffle primitives
      per protocol, against the paper's closed forms;
    - Table 2 / Figure 11: hybrid radixsort vs the compose-based protocol
      of Asharov et al., LAN and WAN;
    - Figure 6 / Table 10: ORQ radixsort vs the non-parallel SBK baseline;
    - Figure 7 / Table 11: ORQ radixsort vs the MP-SPDZ-style row-wise
      baseline, per protocol;
    - Figure 10: quicksort and radixsort scalability across protocols. *)

open Orq_proto
open Bench_util
module Permops = Orq_shuffle.Permops
module Shardedperm = Orq_shuffle.Shardedperm

let rand_vec prg n bound =
  Array.init n (fun _ -> Orq_util.Prg.int_below prg bound)

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: shuffle primitive costs (measured vs paper formulas)";
  hdr "%-22s %-8s %12s %8s %16s" "primitive" "proto" "bits" "rounds"
    "paper formula";
  let n = 256 in
  List.iter
    (fun kind ->
      let label = Ctx.kind_label kind in
      let fresh () = Ctx.create ~seed:11 kind in
      let run name formula f =
        let ctx = fresh () in
        let _, m = measure ctx (fun () -> f ctx) in
        row "%-22s %-8s %12d %8d %16s" name label m.online.Orq_net.Comm.t_bits
          m.online.Orq_net.Comm.t_rounds formula
      in
      let l = 64 in
      run "applySharded"
        (match kind with
        | Ctx.Sh_dm -> Printf.sprintf "2ln=%d, 2r" (2 * l * n)
        | Ctx.Sh_hm -> Printf.sprintf "6ln=%d, 3r" (6 * l * n)
        | Ctx.Mal_hm -> Printf.sprintf "24ln=%d, 4r" (24 * l * n))
        (fun ctx ->
          let x = Mpc.share_b ctx (rand_vec ctx.Ctx.prg n 1000) in
          let p = Shardedperm.gen ctx n in
          ignore (Shardedperm.apply ctx [ (Share.wrap x, ctx.Ctx.ell) ] p));
      run "shuffle" "= applySharded" (fun ctx ->
          ignore (Permops.shuffle ctx (Mpc.share_b ctx (rand_vec ctx.Ctx.prg n 1000))));
      run "applyElementwise"
        (match kind with
        | Ctx.Sh_dm -> "2ln+3l_s n, 5r"
        | Ctx.Sh_hm -> "6ln+7l_s n, 7r"
        | Ctx.Mal_hm -> "24ln+25l_s n, 9r")
        (fun ctx ->
          let x = Mpc.share_b ctx (rand_vec ctx.Ctx.prg n 1000) in
          let rho =
            Mpc.share_a ctx (Orq_shuffle.Localperm.random ctx.Ctx.prg n)
          in
          ignore
            (Permops.apply_elementwise_table ctx
               [ (Share.wrap x, ctx.Ctx.ell) ]
               rho));
      run "compose"
        (match kind with
        | Ctx.Sh_dm -> "5l_s n, 5r"
        | Ctx.Sh_hm -> "13l_s n, 7r"
        | Ctx.Mal_hm -> "49l_s n, 9r")
        (fun ctx ->
          let s = Mpc.share_b ctx (Orq_shuffle.Localperm.random ctx.Ctx.prg n) in
          let r = Mpc.share_b ctx (Orq_shuffle.Localperm.random ctx.Ctx.prg n) in
          ignore (Permops.compose ctx s r));
      run "invertElementwise" "= compose" (fun ctx ->
          let p = Mpc.share_b ctx (Orq_shuffle.Localperm.random ctx.Ctx.prg n) in
          ignore (Permops.invert ctx p));
      run "convertElementwise" "= compose" (fun ctx ->
          let p = Mpc.share_b ctx (Orq_shuffle.Localperm.random ctx.Ctx.prg n) in
          ignore (Permops.convert ctx p Share.Arith)))
    Ctx.all_kinds

(* ------------------------------------------------------------------ *)

let radix_run kind ~bits ~n ~variant () =
  let ctx = Ctx.create ~seed:17 kind in
  let x = Mpc.share_b ctx (rand_vec ctx.Ctx.prg n (Orq_util.Ring.mask (min bits 30))) in
  let _, m =
    measure ctx (fun () ->
        match variant with
        | `Hybrid ->
            (* the key moves at its own l bits, as the compose variant's does *)
            ignore (Orq_sort.Radixsort.sort_c ctx ~bits [ (Share.wrap x, bits) ] [])
        | `Compose -> ignore (Orq_sort.Radix_compose.sort ctx ~bits x [])
        | `Naive -> ignore (Orq_baselines.Radix_naive.sort ctx ~bits x []))
  in
  m

let table2 () =
  section "Table 2: radixsort cost analysis (hybrid vs Asharov et al.)";
  hdr "%-6s %-10s %12s %8s %12s %8s %10s" "l" "size" "hybrid-bits"
    "rounds" "compose-bits" "rounds" "round-save";
  let n = 256 in
  List.iter
    (fun bits ->
      let h = radix_run Ctx.Sh_hm ~bits ~n ~variant:`Hybrid () in
      let c = radix_run Ctx.Sh_hm ~bits ~n ~variant:`Compose () in
      row "%-6d %-10d %12d %8d %12d %8d %9.0f%%" bits n
        h.online.Orq_net.Comm.t_bits h.online.Orq_net.Comm.t_rounds
        c.online.Orq_net.Comm.t_bits c.online.Orq_net.Comm.t_rounds
        (100.
        *. (1.
           -. float_of_int h.online.Orq_net.Comm.t_rounds
              /. float_of_int c.online.Orq_net.Comm.t_rounds)))
    [ 1; 16; 32; 60 ];
  row "(paper, l=32: comm -1.4%%, rounds -36%%; l=64: comm +22%%, rounds -37%%)"

let fig11 ~sizes () =
  section "Figure 11: hybrid vs compose radixsort (SH-HM), LAN and WAN";
  hdr "%-6s %-8s %10s %10s %10s %10s %8s" "l" "n" "hyb-LAN" "cmp-LAN"
    "hyb-WAN" "cmp-WAN" "win";
  List.iter
    (fun bits ->
      List.iter
        (fun n ->
          let h = radix_run Ctx.Sh_hm ~bits ~n ~variant:`Hybrid () in
          let c = radix_run Ctx.Sh_hm ~bits ~n ~variant:`Compose () in
          let hl = estimate Netsim.lan h and cl = estimate Netsim.lan c in
          let hw = estimate Netsim.wan h and cw = estimate Netsim.wan c in
          row "%-6d %-8d %10s %10s %10s %10s %7.2fx" bits n (pretty_time hl)
            (pretty_time cl) (pretty_time hw) (pretty_time cw) (cw /. hw))
        sizes)
    [ 32; 60 ];
  row "(paper: hybrid wins in all scenarios by up to 1.44x)"

let fig6_table10 ~sizes () =
  section
    "Figure 6 + Table 10: ORQ radixsort vs SecretFlow SBK (non-parallel)";
  hdr "%-8s %-10s %12s %12s %10s %14s %14s" "n" "variant" "orq-LAN"
    "sbk-LAN" "speedup" "orq-MB" "sbk-MB";
  List.iter
    (fun n ->
      List.iter
        (fun (label, bits) ->
          let o = radix_run Ctx.Sh_dm ~bits ~n ~variant:`Hybrid () in
          let s = radix_run Ctx.Sh_dm ~bits ~n ~variant:`Naive () in
          row "%-8d %-10s %12s %12s %9.1fx %14.2f %14.2f" n label
            (pretty_time (estimate Netsim.lan o))
            (pretty_time (estimate Netsim.lan s))
            (estimate Netsim.lan s /. estimate Netsim.lan o)
            (mib o.online) (mib s.online))
        [ ("32-bit", 32); ("64-bit", 60) ])
    sizes;
  row "(paper: ORQ up to 4.4x/5.5x faster; 1.34x-1.79x lower bandwidth)"

let fig7_table11 ~sizes () =
  section "Figure 7 + Table 11: ORQ vs MP-SPDZ-style radixsort, per protocol";
  hdr "%-8s %-8s %12s %12s %10s %12s %12s" "proto" "n" "orq-LAN" "spdz-LAN"
    "speedup" "orq-MB" "spdz-MB";
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let o = radix_run kind ~bits:32 ~n ~variant:`Hybrid () in
          (* the row-wise baseline becomes intractable quickly — like
             MP-SPDZ, which crashes/OOMs beyond 2^20-2^25 in the paper *)
          if n <= 1024 then begin
            let s = radix_run kind ~bits:32 ~n ~variant:`Naive () in
            row "%-8s %-8d %12s %12s %9.1fx %12.2f %12.2f"
              (Ctx.kind_label kind) n
              (pretty_time (estimate Netsim.lan o))
              (pretty_time (estimate Netsim.lan s))
              (estimate Netsim.lan s /. estimate Netsim.lan o)
              (mib o.online) (mib s.online)
          end
          else
            row "%-8s %-8d %12s %12s %10s %12.2f %12s"
              (Ctx.kind_label kind) n
              (pretty_time (estimate Netsim.lan o))
              "(baseline capped)" "-" (mib o.online) "-")
        sizes)
    Ctx.all_kinds;
  row "(paper: 8.5x-189x faster; MP-SPDZ crashes/OOMs at larger sizes)"

let fig10 ~sizes () =
  section "Figure 10: oblivious sorting scalability (LAN estimates)";
  hdr "%-8s %-12s %-10s %12s %12s %10s" "proto" "algorithm" "n" "compute"
    "LAN-est" "MB";
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let run_q () =
            let ctx = Ctx.create ~seed:19 kind in
            let x =
              Mpc.share_b ctx (rand_vec ctx.Ctx.prg n (Orq_util.Ring.mask 30))
            in
            measure ctx (fun () ->
                ignore
                  (Orq_core.Tablesort.sort_cols ctx ~algo:Orq_core.Tablesort.Quicksort
                     ~keys:[ (Share.wrap x, 32, Orq_core.Tablesort.Asc) ] []))
          in
          let run_r () =
            let ctx = Ctx.create ~seed:19 kind in
            let x =
              Mpc.share_b ctx (rand_vec ctx.Ctx.prg n (Orq_util.Ring.mask 30))
            in
            measure ctx (fun () ->
                ignore
                  (Orq_core.Tablesort.sort_cols ctx ~algo:Orq_core.Tablesort.Radixsort
                     ~keys:[ (Share.wrap x, 32, Orq_core.Tablesort.Asc) ] []))
          in
          let _, mq = run_q () in
          let _, mr = run_r () in
          row "%-8s %-12s %-10d %12s %12s %10.2f" (Ctx.kind_label kind)
            "quicksort" n (pretty_time mq.wall_s)
            (pretty_time (estimate Netsim.lan mq))
            (mib mq.online);
          row "%-8s %-12s %-10d %12s %12s %10.2f" (Ctx.kind_label kind)
            "radixsort" n (pretty_time mr.wall_s)
            (pretty_time (estimate Netsim.lan mr))
            (mib mr.online))
        sizes)
    Ctx.all_kinds;
  row
    "(paper: Mal-HM radixsort 2^27 in ~35min; SH-HM quicksort 2^29 in ~70min; \
     quicksort scales furthest)"
