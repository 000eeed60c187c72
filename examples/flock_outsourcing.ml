(* Single-owner secure outsourcing — the Flock scenario the paper's §2
   notes ORQ also supports: one data owner (here, a payroll department)
   wants cloud-scale analytics without any cloud provider ever seeing the
   data. The owner splits shares across servers run by *different*
   infrastructure providers; no single provider — nor any external attacker
   who compromises one of them — learns anything.

   The analysis: payroll fraud screening.
     1. employees paid above the 95th-percentile-ish threshold per dept
        (salary > 2 * dept average);
     2. duplicate bank accounts across employees (a classic fraud signal).

   Run with:  dune exec examples/flock_outsourcing.exe *)

open Orq_proto
open Orq_core
module D = Dataflow
module E = Expr

let () =
  (* the owner picks the 2-party dishonest-majority protocol: even if one
     of the two providers is fully compromised, nothing leaks *)
  let ctx = Ctx.create Ctx.Sh_dm in
  Printf.printf "outsourcing to %d non-colluding cloud providers (%s)\n%!"
    ctx.Ctx.parties (Ctx.kind_label ctx.Ctx.kind);

  (* the owner's payroll table, secret-shared (plus padding so even the
     true headcount stays hidden from the providers) *)
  let prg = Orq_util.Prg.create 99 in
  let n = 500 in
  let dept = Array.init n (fun _ -> 1 + Orq_util.Prg.int_below prg 6) in
  let salary =
    Array.init n (fun i -> 40_000 + Orq_util.Prg.int_below prg 60_000 + (if i mod 97 = 0 then 150_000 else 0))
  in
  let account = Array.init n (fun i -> if i mod 83 = 0 then 1111 else 10_000 + i) in
  let payroll =
    Table.pad_rows
      (Table.create ctx "payroll"
         [
           ("emp", 16, Array.init n (fun i -> i + 1));
           ("dept", 4, dept);
           ("salary", 20, salary);
           ("account", 16, account);
         ])
      12 (* hide the exact headcount *)
  in
  Printf.printf "shared payroll: %d physical rows (true count hidden)\n%!"
    (Table.nrows payroll);

  (* 1. outliers vs department average *)
  let avgs =
    D.aggregate payroll ~keys:[ "dept" ]
      ~aggs:[ { D.src = "salary"; dst = "avg_sal"; fn = D.Avg } ]
  in
  let joined =
    D.inner_join
      (Table.project avgs [ "dept"; "avg_sal" ])
      (Table.rename_col payroll ~from:"dept" ~into:"dept")
      ~on:[ "dept" ] ~copy:[ "avg_sal" ]
  in
  let outliers =
    D.filter joined E.(col "salary" >. (col "avg_sal" *! const 2))
  in
  let flagged = Table.reveal (Table.project outliers [ "emp"; "salary" ]) in
  Printf.printf "\nemployees paid > 2x their department average: %d\n"
    (Array.length (List.assoc "emp" flagged));

  (* 2. duplicate bank accounts *)
  let dups =
    D.filter
      (D.aggregate payroll ~keys:[ "account" ]
         ~aggs:[ { D.src = "emp"; dst = "n"; fn = D.Count } ])
      E.(col "n" >=. const 2)
  in
  let dup_accounts = Table.reveal (Table.project dups [ "account"; "n" ]) in
  let accs = List.assoc "account" dup_accounts in
  Printf.printf "bank accounts shared by several employees: %d\n"
    (Array.length accs);
  Array.iteri
    (fun i a ->
      Printf.printf "  account %d used by %d employees\n" a
        (List.assoc "n" dup_accounts).(i))
    accs;

  let tally = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let pre = Orq_net.Comm.snapshot ctx.Ctx.preproc in
  Printf.printf
    "\nonline: %d rounds, %.1f MiB | preprocessing (dealer): %.1f MiB\n"
    tally.Orq_net.Comm.t_rounds
    (float_of_int tally.Orq_net.Comm.t_bits /. 8. /. 1024. /. 1024.)
    (float_of_int pre.Orq_net.Comm.t_bits /. 8. /. 1024. /. 1024.);
  Printf.printf "estimated WAN end-to-end: %.1fs\n"
    (Orq_net.Netsim.network_time Orq_net.Netsim.wan tally)
