(* Protocol tour: the same query under all three MPC protocols — the
   black-box protocol-agnostic design of §2.4 in action. The query code is
   written once; switching threat models is one constructor.

     SH-DM  — ABY-style 2PC, semi-honest, tolerates a dishonest majority;
     SH-HM  — replicated 3PC (Araki et al.), semi-honest, honest majority;
     Mal-HM — Fantastic-Four-style 4PC, malicious security with abort.

   Run with:  dune exec examples/protocol_tour.exe *)

open Orq_proto
open Orq_core
open Orq_workloads
module Netsim = Orq_net.Netsim

(* the query: market share per company over jointly held transactions *)
let market_share db = (Other_queries.find "MarketShare").Query.run db

let () =
  let plain = Other_gen.generate 600 in
  Printf.printf "%-8s %-8s %10s %10s %12s %12s %12s\n" "proto" "parties"
    "rounds" "MiB" "est-LAN" "est-WAN" "est-GEO";
  let results =
    List.map
      (fun kind ->
        let ctx = Ctx.create kind in
        let db = Other_gen.share ctx plain in
        let t0 = Unix.gettimeofday () in
        let res = market_share db in
        let compute = Unix.gettimeofday () -. t0 in
        let tally = Orq_net.Comm.snapshot ctx.Ctx.comm in
        let est p = compute +. Netsim.network_time p tally in
        Printf.printf "%-8s %-8d %10d %10.1f %11.1fs %11.1fs %11.1fs\n%!"
          (Ctx.kind_label kind) ctx.Ctx.parties tally.Orq_net.Comm.t_rounds
          (float_of_int tally.Orq_net.Comm.t_bits /. 8. /. 1024. /. 1024.)
          (est Netsim.lan) (est Netsim.wan) (est Netsim.geo);
        (kind, Table.valid_rows_sorted res [ "company"; "share_pct" ]))
      Ctx.all_kinds
  in
  (* every protocol computes the same relation *)
  (match results with
  | (_, r1) :: rest ->
      assert (List.for_all (fun (_, r) -> r = r1) rest);
      Printf.printf
        "\nall three protocols agree on the result (%d companies):\n"
        (List.length r1);
      List.iter
        (fun row ->
          match row with
          | [ c; s ] -> Printf.printf "  company %2d: %2d%% market share\n" c s
          | _ -> ())
        r1
  | [] -> ());
  (* and only the malicious protocol detects tampering *)
  Printf.printf "\ntamper detection: ";
  List.iter
    (fun kind ->
      let ctx = Ctx.create kind in
      let db = Other_gen.share ctx plain in
      let outcome =
        try
          Ctx.with_tamper ctx
            (fun ~party ~op ->
              if party = 0 && op = "mul" then Some 42 else None)
            (fun () -> ignore (market_share db));
          "ran (semi-honest: undetected)"
        with Ctx.Abort _ -> "ABORTED (detected)"
      in
      Printf.printf "%s=%s  " (Ctx.kind_label kind) outcome)
    Ctx.all_kinds;
  print_newline ()
