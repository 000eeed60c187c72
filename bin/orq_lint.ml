(* Static-analysis + oblivious-transcript certifier driver.

     orq_lint lint   [--json] [paths...]   leakage lint (default path: lib)
     orq_lint lint   --expect-violations p self-test: fixture must trip rules
     orq_lint concur [--json] [paths...]   concurrency-discipline lint
     orq_lint concur --expect-violations p self-test: fixture must trip rules
     orq_lint exports [--json] [paths...]  dead-export audit of .mli vals
     orq_lint certify [options]            predicted-vs-measured transcripts
     orq_lint certdiff OLD NEW             per-row deltas of two certificates;
                                           one totals line per protocol, then
                                           a summary counting the rows where
                                           any count rose

   Exit codes (the three lint passes, certify and certdiff):
     0  clean — no violations / all pairs certified / no row lost
     1  violations found (or, with --expect-violations, expected
        violations missing, or a stale allowlist entry); for certdiff, a
        row of OLD missing from NEW or no longer certified or validated
     2  usage error or unreadable input *)

module Lint = Orq_analysis.Lint
module Declass = Orq_analysis.Declass
module Concur = Orq_analysis.Concur
module Exports = Orq_analysis.Exports
module Lockmap = Orq_analysis.Lockmap
module Certify = Orq_analysis.Certify

let say fmt = Format.printf (fmt ^^ "@.")

(* ---------------- JSON rendering (hand-rolled; no dependency) -------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_finding ~pass ~file ~line ~rule ~site ~detail =
  Printf.sprintf
    "{\"pass\":\"%s\",\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"site\":\"%s\",\"detail\":\"%s\"}"
    pass (json_escape file) line (json_escape rule) (json_escape site)
    (json_escape detail)

let emit_json ~pass items =
  print_string "{\"pass\":\"";
  print_string pass;
  print_string "\",\"violations\":[";
  print_string (String.concat "," items);
  Printf.printf "],\"count\":%d}\n" (List.length items)

(* ---------------- leakage lint ---------------- *)

let stale_detail (e : Declass.entry) =
  Printf.sprintf "allowlist entry [%s] %s matches no finding"
    (Declass.rule_label e.Declass.d_rule)
    e.Declass.d_callee

let run_lint ~expect_violations ~json paths =
  let paths = if paths = [] then [ "lib" ] else paths in
  let findings =
    try Lint.lint_paths paths
    with Sys_error e ->
      say "orq_lint: %s" e;
      exit 2
  in
  let violations = Lint.violations findings in
  let modules =
    List.map Lint.module_of_file (List.concat_map Lint.ml_files paths)
  in
  let stale = Lint.stale_entries ~modules findings in
  let leaky = Lint.leaky_findings findings in
  let allowed =
    List.filter
      (fun f -> match Lint.verdict f with Lint.Allowed _ -> true | _ -> false)
      findings
  in
  if expect_violations then begin
    (* self-test over the seeded fixture: all three rules must fire *)
    let has rule =
      List.exists (fun (f : Lint.finding) -> f.Lint.f_rule = rule) violations
    in
    List.iter (fun f -> say "seeded: %a" Lint.pp_finding f) violations;
    if has Declass.Declass && has Declass.Branch && has Declass.In_parallel
    then begin
      say
        "lint self-test: fixture trips declass + branch + parallel rules (%d \
         findings)"
        (List.length violations);
      exit 0
    end
    else begin
      say
        "lint self-test FAILED: expected an unregistered open_, a \
         branch-on-opened and an in-Parallel violation in %s"
        (String.concat " " paths);
      exit 1
    end
  end
  else if json then begin
    emit_json ~pass:"leakage"
      (List.map
         (fun (f : Lint.finding) ->
           json_finding ~pass:"leakage" ~file:f.Lint.f_file ~line:f.Lint.f_line
             ~rule:(Declass.rule_label f.Lint.f_rule)
             ~site:f.Lint.f_site ~detail:("uses " ^ f.Lint.f_callee))
         violations
      @ List.map
          (fun (e : Declass.entry) ->
            json_finding ~pass:"leakage" ~file:"lib/analysis/declass.ml"
              ~line:0 ~rule:"stale" ~site:e.Declass.d_site ~detail:(stale_detail e))
          stale);
    exit (if violations = [] && stale = [] then 0 else 1)
  end
  else begin
    List.iter
      (fun (f : Lint.finding) ->
        match Lint.verdict f with
        | Lint.Leaky e ->
            say "leaky: %a  (%s)" Lint.pp_finding f e.Declass.d_why
        | _ -> ())
      leaky;
    List.iter (fun f -> say "VIOLATION: %a" Lint.pp_finding f) violations;
    List.iter
      (fun (e : Declass.entry) ->
        say "STALE: %s %s" e.Declass.d_site (stale_detail e))
      stale;
    say
      "lint: %d findings — %d audited declassifications, %d leaky-by-design \
       baseline sites, %d violations, %d stale allowlist entries"
      (List.length findings) (List.length allowed) (List.length leaky)
      (List.length violations) (List.length stale);
    exit (if violations = [] && stale = [] then 0 else 1)
  end

(* ---------------- concurrency lint ---------------- *)

let run_concur ~expect_violations ~json paths =
  let paths = if paths = [] then [ "lib" ] else paths in
  let violations =
    try Concur.lint_paths paths
    with Sys_error e ->
      say "orq_lint: %s" e;
      exit 2
  in
  if expect_violations then begin
    (* self-test over the seeded fixture: every rule must fire *)
    let has rule =
      List.exists
        (fun (f : Concur.finding) -> f.Concur.c_rule = rule)
        violations
    in
    List.iter (fun f -> say "seeded: %a" Concur.pp_finding f) violations;
    let missing =
      List.filter
        (fun r -> not (has r))
        [
          Lockmap.Registry;
          Lockmap.Order;
          Lockmap.Blocking;
          Lockmap.Shared;
          Lockmap.Finaliser;
        ]
    in
    if missing = [] then begin
      say
        "concur self-test: fixture trips all five rules (%d findings)"
        (List.length violations);
      exit 0
    end
    else begin
      say "concur self-test FAILED: rule(s) %s not tripped in %s"
        (String.concat ", " (List.map Lockmap.rule_label missing))
        (String.concat " " paths);
      exit 1
    end
  end
  else if json then begin
    emit_json ~pass:"concur"
      (List.map
         (fun (f : Concur.finding) ->
           json_finding ~pass:"concur" ~file:f.Concur.c_file
             ~line:f.Concur.c_line
             ~rule:(Lockmap.rule_label f.Concur.c_rule)
             ~site:f.Concur.c_site ~detail:f.Concur.c_detail)
         violations);
    exit (if violations = [] then 0 else 1)
  end
  else begin
    List.iter (fun f -> say "VIOLATION: %a" Concur.pp_finding f) violations;
    say "concur: %d registered locks, %d violations"
      (List.length Lockmap.locks) (List.length violations);
    exit (if violations = [] then 0 else 1)
  end

(* ---------------- dead-export audit ---------------- *)

let run_exports ~json paths =
  let paths = if paths = [] then [ "lib" ] else paths in
  let findings =
    try Exports.audit_paths paths
    with (Sys_error _ | Syntaxerr.Error _) as e ->
      say "orq_lint: %s" (Printexc.to_string e);
      exit 2
  in
  let count rule =
    List.length
      (List.filter
         (fun (f : Exports.finding) -> Exports.rule_label f.Exports.x_kind = rule)
         findings)
  in
  if json then
    emit_json ~pass:"exports"
      (List.map
         (fun (f : Exports.finding) ->
           json_finding ~pass:"exports" ~file:f.Exports.x_file
             ~line:f.Exports.x_line ~rule:(Exports.rule_label f.Exports.x_kind)
             ~site:f.Exports.x_site
             ~detail:
               (match f.Exports.x_kind with
               | Exports.Unused -> "no use outside its module"
               | Exports.Test_only -> "used outside its module only from test/"
               | Exports.Stale_keep why -> "stale keep-list entry: " ^ why))
         findings)
  else begin
    List.iter (fun f -> say "EXPORT: %a" Exports.pp_finding f) findings;
    say
      "exports: %d audited keep-list entries, %d unused exports, %d \
       test-only exports, %d stale keep-list entries"
      (List.length Exports.keep) (count "dead-export")
      (count "test-only-export") (count "stale-keep-entry")
  end;
  exit (if findings = [] then 0 else 1)

(* ---------------- certify ---------------- *)

(* Quick mode mirrors the round-fusion bench's representative subset, one
   protocol per security model class. *)
let quick_names = [ "Q1"; "Q4"; "Q6"; "Q13"; "Aspirin"; "Comorbidity" ]

let run_certify ~quick ~sf ~other_n ~out =
  let names = if quick then Some quick_names else None in
  let kinds =
    if quick then [ Orq_proto.Ctx.Sh_dm; Orq_proto.Ctx.Mal_hm ]
    else Orq_proto.Ctx.all_kinds
  in
  let certs = Certify.run_suite ~sf ~other_n ~kinds ?names () in
  List.iter (fun c -> say "%a" Certify.pp_cert c) certs;
  let ok = Certify.all_ok certs in
  let oc = open_out out in
  output_string oc (Certify.report_json ~sf ~other_n certs);
  close_out oc;
  say "wrote %s" out;
  let exact =
    List.length (List.filter (fun c -> c.Certify.c_mode = Certify.Exact) certs)
  in
  say
    "certify: %d/%d (query, protocol) pairs certified (%d exact, %d \
     modulo-quicksort)%s"
    (List.length (List.filter (fun c -> c.Certify.c_ok) certs))
    (List.length certs) exact
    (List.length certs - exact)
    (if ok then "" else " — TRANSCRIPT DEPENDS ON SECRET DATA");
  exit (if ok then 0 else 1)

(* ---------------- certdiff ---------------- *)

let run_certdiff old_path new_path =
  let read path =
    try Certify.read_report path
    with Sys_error e | Failure e ->
      say "certdiff: %s: %s" path e;
      exit 2
  in
  let old_rows = read old_path and new_rows = read new_path in
  let delta name (a, b) = Printf.sprintf "%s %d -> %d (%+d)" name a b (b - a) in
  let lost = ref 0 and moved = ref 0 and rose = ref 0 in
  (* per count, (old, new) summed over the rows in both files: overall
     and per protocol, protocols in order of first appearance *)
  let zero = List.map (fun _ -> (0, 0)) Certify.report_counts in
  let totals = ref zero and by_proto = ref [] in
  let add acc counts = List.map2 (fun (ta, tb) (a, b) -> (ta + a, tb + b)) acc counts in
  List.iter
    (fun ((q, p), (o : Certify.report_row)) ->
      match List.assoc_opt (q, p) new_rows with
      | None ->
          incr lost;
          say "%-12s %-7s LOST: row missing from %s" q p new_path
      | Some nw ->
          let counts = List.combine o.r_counts nw.r_counts in
          totals := add !totals counts;
          let was = Option.value (List.assoc_opt p !by_proto) ~default:zero in
          by_proto := (p, add was counts) :: List.remove_assoc p !by_proto;
          if o.r_counts <> nw.r_counts then incr moved;
          if List.exists (fun (a, b) -> b > a) counts then incr rose;
          let lose what was now = if was && not now then [ "LOST " ^ what ] else [] in
          let losses =
            lose "certified" o.r_certified nw.r_certified
            @ lose "validated" o.r_validated nw.r_validated
          in
          if losses <> [] then incr lost;
          let shown =
            List.map2
              (fun name (a, b) -> if a = b then name ^ " =" else delta name (a, b))
              Certify.report_counts counts
          in
          say "%-12s %-7s %s" q p (String.concat "  " (shown @ losses)))
    old_rows;
  List.iter
    (fun ((q, p), _) ->
      if not (List.mem_assoc (q, p) old_rows) then say "%-12s %-7s new row" q p)
    new_rows;
  let line t = String.concat ", " (List.map2 delta Certify.report_counts t) in
  let protocols =
    List.fold_left
      (fun acc ((_, p), _) -> if List.mem p acc then acc else acc @ [ p ])
      [] old_rows
  in
  List.iter
    (fun p ->
      match List.assoc_opt p !by_proto with
      | Some t -> say "certdiff: %s totals %s" p (line t)
      | None -> ())
    protocols;
  say "certdiff: %d rows, %d moved, %d rose, %d lost; totals %s"
    (List.length old_rows) !moved !rose !lost (line !totals);
  exit (if !lost = 0 then 0 else 1)

(* ---------------- arg parsing ---------------- *)

let usage () =
  say
    "usage: orq_lint [lint [--json] [--expect-violations] [paths...]]\n\
    \       orq_lint concur [--json] [--expect-violations] [paths...]\n\
    \       orq_lint exports [--json] [paths...]\n\
    \       orq_lint certify [--quick] [--sf F] [--n N] [--out FILE]\n\
    \       orq_lint certdiff OLD.json NEW.json\n\
     exit codes: 0 clean, 1 violations, 2 usage/input error";
  exit 2

let lint_flags rest =
  let expect = List.mem "--expect-violations" rest in
  let json = List.mem "--json" rest in
  let paths =
    List.filter (fun a -> a <> "--expect-violations" && a <> "--json") rest
  in
  if List.exists (fun a -> String.length a > 0 && a.[0] = '-') paths then
    usage ();
  (expect, json, paths)

let () =
  match Array.to_list Sys.argv with
  | _ :: "certify" :: rest ->
      let quick = ref (Sys.getenv_opt "ORQ_CERTIFY_QUICK" <> None) in
      let sf = ref 0.0002 and n = ref 400 and out = ref "CERTIFICATE.json" in
      let rec parse = function
        | [] -> ()
        | "--quick" :: r -> quick := true; parse r
        | "--sf" :: v :: r -> sf := float_of_string v; parse r
        | "--n" :: v :: r -> n := int_of_string v; parse r
        | "--out" :: v :: r -> out := v; parse r
        | _ -> usage ()
      in
      parse rest;
      run_certify ~quick:!quick ~sf:!sf ~other_n:!n ~out:!out
  | [ _; "certdiff"; old_path; new_path ] -> run_certdiff old_path new_path
  | _ :: "certdiff" :: _ -> usage ()
  | _ :: "exports" :: rest -> (
      match lint_flags rest with
      | false, json, paths -> run_exports ~json paths
      | true, _, _ -> usage ())
  | _ :: "concur" :: rest -> (
      match rest with
      | "--help" :: _ | "-h" :: _ -> usage ()
      | _ ->
          let expect, json, paths = lint_flags rest in
          run_concur ~expect_violations:expect ~json paths)
  | argv -> (
      let rest =
        match argv with _ :: "lint" :: r -> r | _ :: r -> r | [] -> []
      in
      match rest with
      | "--help" :: _ | "-h" :: _ -> usage ()
      | _ ->
          let expect, json, paths = lint_flags rest in
          run_lint ~expect_violations:expect ~json paths)
