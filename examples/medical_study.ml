(* A collaborative medical study — the scenario that motivates the
   outsourced MPC setting in the paper's introduction: several hospitals
   contribute patient records (so join keys are duplicated across owners
   and no PK-FK constraints can be assumed), and a research consortium
   learns only aggregate statistics.

   Three analyses over the shared data:
     1. Comorbidity  — most common diagnoses within a study cohort;
     2. Aspirin      — patients who took aspirin after a heart-disease
                       diagnosis (a many-to-many join, pre-aggregated);
     3. C.Diff       — patients with a recurring infection 15-56 days
                       after a previous one (adjacent-pair pattern).

   Run with:  dune exec examples/medical_study.exe *)

open Orq_proto
open Orq_workloads

(* opening shuffles row order; the analyst sorts the plaintext locally *)
let reveal_rows ?(sort_desc_by = -1) table cols =
  let opened = Orq_core.Table.reveal table in
  let k = Array.length (List.assoc (List.hd cols) opened) in
  let rows =
    List.init k (fun i -> List.map (fun c -> (List.assoc c opened).(i)) cols)
  in
  if sort_desc_by < 0 then rows
  else
    List.sort
      (fun a b -> compare (List.nth b sort_desc_by) (List.nth a sort_desc_by))
      rows

let () =
  (* four-party maliciously secure deployment: even a hospital that
     actively deviates cannot corrupt the study without detection *)
  let ctx = Ctx.create Ctx.Mal_hm in
  Printf.printf "protocol: %s (%d computing parties)\n%!"
    (Ctx.kind_label ctx.Ctx.kind) ctx.Ctx.parties;

  let plain = Other_gen.generate 800 in
  let db = Other_gen.share ctx plain in
  Printf.printf "shared: %d diagnosis rows, %d medication rows, cohort of %d\n%!"
    (Orq_core.Table.nrows db.Other_gen.m_diagnosis)
    (Orq_core.Table.nrows db.Other_gen.m_medication)
    (Orq_core.Table.nrows db.Other_gen.m_cohort);

  (* 1. Comorbidity *)
  let top = (Other_queries.find "Comorbidity").Query.run db in
  Printf.printf "\ntop diagnoses in cohort (diag, count):\n";
  List.iter
    (fun row ->
      match row with
      | [ d; c ] -> Printf.printf "  diagnosis %2d: %d patients\n" d c
      | _ -> ())
    (reveal_rows ~sort_desc_by:1 top [ "diag"; "cnt" ]);

  (* 2. Aspirin *)
  let asp = (Other_queries.find "Aspirin").Query.run db in
  (match reveal_rows asp [ "patients" ] with
  | [ [ n ] ] ->
      Printf.printf "\npatients on aspirin after heart-disease diagnosis: %d\n" n
  | _ -> ());

  (* 3. C.Diff recurrence *)
  let cd = (Other_queries.find "C.Diff").Query.run db in
  (match reveal_rows cd [ "patients" ] with
  | [ [ n ] ] -> Printf.printf "patients with recurring C.Diff: %d\n" n
  | _ -> ());

  (* malicious security in action: a tampering party is caught *)
  Printf.printf "\ninjecting a corrupted multiplication by party 2... %!";
  (try
     Ctx.with_tamper ctx
       (fun ~party ~op -> if party = 2 && op = "mul" then Some 1 else None)
       (fun () ->
         ignore ((Other_queries.find "Comorbidity").Query.run db))
   with Ctx.Abort msg -> Printf.printf "aborted as expected: %s\n" msg);

  let tally = Orq_net.Comm.snapshot ctx.Ctx.comm in
  Printf.printf
    "\ntotal: %d rounds, %.1f MiB — estimated %.1fs over WAN\n"
    tally.Orq_net.Comm.t_rounds
    (float_of_int tally.Orq_net.Comm.t_bits /. 8. /. 1024. /. 1024.)
    (Orq_net.Netsim.network_time Orq_net.Netsim.wan tally)
