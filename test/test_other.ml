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

(* Empty inputs: Comorbidity, Password and C.Diff over 0 rows, where
   every sort, DISTINCT and GROUP BY they run sees an empty table (and
   C.Diff has no adjacent pair), validate under every protocol, in
   process and through orq_cli. *)
let check_empty qname () =
  let plain = Other_gen.generate ~seed:31 0 in
  let q = Other_queries.find qname in
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:13 kind in
      let ok, _, _ = Query.validate q plain (Other_gen.share ctx plain) in
      Alcotest.(check bool) (qname ^ " " ^ Ctx.kind_label kind) true ok)
    Ctx.all_kinds;
  let out = Filename.temp_file "orq_cli" ".out" in
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/orq_cli.exe"
  in
  let code =
    Sys.command
      (Printf.sprintf "%s -q %s -p sh-hm -n 0 --validate > %s 2>&1"
         (Filename.quote cli) qname (Filename.quote out))
  in
  let lines = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) (qname ^ " orq_cli exit code") 0 code;
  Alcotest.(check bool) (qname ^ " orq_cli validates") true
    (List.mem "validation against plaintext engine: OK"
       (String.split_on_char '\n' lines))

let empty_cases =
  List.map
    (fun name -> Alcotest.test_case (name ^ " on 0 rows") `Quick (check_empty name))
    [ "Comorbidity"; "Password"; "C.Diff" ]

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
    [ ("other", cases @ cross @ empty_cases); ("secretflow", sf_cases) ]
