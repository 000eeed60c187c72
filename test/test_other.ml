(* Validation of the nine queries from prior relational-MPC works against
   the plaintext reference engine, under the honest-majority protocol (plus
   cross-protocol smoke tests). *)

open Orq_proto
open Orq_workloads

let n = 400
let plain = lazy (Other_gen.generate ~seed:31 n)

let check kind qname () =
  let plain = Lazy.force plain in
  let ctx = Ctx.create ~seed:13 kind in
  let mdb = Other_gen.share ctx plain in
  let q = Other_queries.find qname in
  let ok, mpc_rows, ref_rows = Query.validate q plain mdb in
  if not ok then
    Alcotest.failf "%s mismatch:@.MPC: %a@.REF: %a" qname
      Fmt.(brackets (list ~sep:semi (brackets (list ~sep:semi int))))
      mpc_rows
      Fmt.(brackets (list ~sep:semi (brackets (list ~sep:semi int))))
      ref_rows

let nonempty qname () =
  (* the chosen dataset sizes must make every query non-degenerate *)
  let plain = Lazy.force plain in
  let q = Other_queries.find qname in
  let r = q.Query.reference plain in
  Alcotest.(check bool)
    (qname ^ " reference non-empty")
    true
    (Orq_plaintext.Ptable.nrows r > 0)

let cases =
  List.concat_map
    (fun (q : Other_queries.query) ->
      [
        Alcotest.test_case (q.Query.name ^ " non-degenerate") `Quick
          (nonempty q.Query.name);
        Alcotest.test_case (q.Query.name ^ " [SH-HM]") `Slow
          (check Ctx.Sh_hm q.Query.name);
      ])
    Other_queries.all

let cross =
  [
    Alcotest.test_case "Comorbidity [SH-DM]" `Slow (check Ctx.Sh_dm "Comorbidity");
    Alcotest.test_case "Comorbidity [Mal-HM]" `Slow (check Ctx.Mal_hm "Comorbidity");
    Alcotest.test_case "Patients [SH-DM]" `Slow (check Ctx.Sh_dm "Patients");
  ]

(* SecretFlow S1-S5, registered over the TPC-H catalog, validated here
   under SH-DM too (the ABY-based setting they run in). *)
let sf_plain = lazy (Tpch_gen.generate ~seed:21 0.0002)

let check_sf qname () =
  let plain = Lazy.force sf_plain in
  let ctx = Ctx.create ~seed:3 Ctx.Sh_dm in
  let mdb = Tpch_gen.share ctx plain in
  let q = Tpch.find qname in
  let ok, mpc_rows, ref_rows = Query.validate q plain mdb in
  if not ok then
    Alcotest.failf "%s mismatch:@.MPC: %a@.REF: %a" qname
      Fmt.(brackets (list ~sep:semi (brackets (list ~sep:semi int))))
      mpc_rows
      Fmt.(brackets (list ~sep:semi (brackets (list ~sep:semi int))))
      ref_rows

let sf_cases =
  List.map
    (fun name -> Alcotest.test_case (name ^ " [SH-DM]") `Slow (check_sf name))
    [ "S1"; "S2"; "S3"; "S4"; "S5" ]

let () =
  Alcotest.run "orq_other_queries"
    [ ("other", cases @ cross); ("secretflow", sf_cases) ]
