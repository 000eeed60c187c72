(** ORQ benchmark harness: regenerates every table and figure of the
    paper's evaluation (see DESIGN.md for the experiment index and
    EXPERIMENTS.md for paper-vs-measured numbers).

    Usage:
      dune exec bench/main.exe                 # everything, quick sizes
      dune exec bench/main.exe -- fig4         # one experiment
      dune exec bench/main.exe -- fig4 --sf 0.002 --n 2000   # bigger
    Experiments: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
                 table1 table2 table7 ablation micro
    Flags: --sf F (TPC-H scale), --n N (other datasets),
           --domains D (data-parallel local loops, §4; also honors the
           ORQ_DOMAINS env var — the flag wins).

    The ratio and selection gates live in gates.exe. *)

let experiments =
  [ "all"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11";
    "fig12"; "table1"; "table2"; "table7"; "ablation"; "micro" ]

let usage () =
  Printf.printf "usage: main.exe [%s] [--sf F] [--n N]\n"
    (String.concat "|" experiments);
  exit 1

let () =
  Orq_util.Parallel.init_from_env ();
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse (cmds, sf, nn) = function
    | [] -> (cmds, sf, nn)
    | "--sf" :: v :: rest -> parse (cmds, float_of_string v, nn) rest
    | "--n" :: v :: rest -> parse (cmds, sf, int_of_string v) rest
    | "--domains" :: v :: rest ->
        Orq_util.Parallel.set_num_domains (int_of_string v);
        parse (cmds, sf, nn) rest
    | c :: rest -> parse (c :: cmds, sf, nn) rest
  in
  let cmds, sf, n = parse ([], 0.0005, 600) args in
  let cmds = if cmds = [] then [ "all" ] else List.rev cmds in
  if List.exists (fun c -> not (List.mem c experiments)) cmds then usage ();
  let sizes_small = [ 256; 512; 1024 ] in
  let sizes_scale = [ 256; 1024; 4096 ] in
  let t0 = Unix.gettimeofday () in
  let has c = List.mem c cmds || List.mem "all" cmds in
  Printf.printf
    "ORQ benchmark harness — lockstep MPC simulation; LAN/WAN/GEO times \
     are modeled as compute + rounds x RTT + bits/bandwidth (DESIGN.md).\n";
  if has "table1" then Fig_sort.table1 ();
  if has "table2" then Fig_sort.table2 ();
  if has "fig4" then Fig_queries.fig4 ~sf ~other_n:n ();
  if has "table7" then Fig_queries.table7 ~sf:(sf /. 2.) ~other_n:(n / 2) ();
  if has "fig5" then begin
    Fig_compare.fig5_secrecy ~sf:(sf /. 2.) ~other_n:(n / 2) ();
    Fig_compare.fig5_secretflow ~sf ()
  end;
  if has "fig6" then Fig_sort.fig6_table10 ~sizes:sizes_small ();
  if has "fig7" then Fig_sort.fig7_table11 ~sizes:sizes_small ();
  if has "fig8" then Fig_queries.fig8 ~sf:(sf /. 2.) ();
  if has "fig9" then Fig_queries.fig9 ~sf:(sf /. 2.) ();
  if has "fig10" then Fig_sort.fig10 ~sizes:sizes_scale ();
  if has "fig11" then Fig_sort.fig11 ~sizes:sizes_small ();
  if has "fig12" then Fig_queries.fig12 ~sf ();
  if has "ablation" then Ablation.all ~n:512 ();
  if has "micro" then Micro.run ();
  Printf.printf "\ntotal bench wall time: %.1fs\n"
    (Unix.gettimeofday () -. t0)
