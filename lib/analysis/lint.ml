(** Static leakage lint: a Parsetree walker (built on [compiler-libs], which
    ships with the compiler — no new dependency) that checks every [.ml]
    under [lib/] against the declassification discipline:

    {b Rule 1 (declass)} — any syntactic use of the opening primitives
    ({!open_prims}: [Mpc]'s [open_], [open_f], [open_many], [open_f_many]
    and the fused openings [band_open_f] and [reshare_open_unmetered], and
    the entry points built on them, [Shardedperm.apply_open],
    [Permops.shuffle_open_table] and [Compare.lt_lex_open]; bare or
    qualified by their module) must be registered in {!Declass.all} for
    its enclosing [Module.function] site.

    {b Rule 2 (branch)} — any [if]/[match]/[while] scrutinee or [for] bound
    that flows from an opened value must likewise be registered. Flow is
    tracked per top-level binding as a syntactic taint: names let-bound (or
    [:=]-assigned) from an expression containing an opening call are
    tainted, taint propagates through further bindings that mention a
    tainted name, and control-flow scrutinees mentioning a tainted name (or
    containing an opening call directly) are flagged. A function literal
    passed in an application whose other arguments are tainted has every
    parameter tainted, so the callback of [Array.iteri f opened] is
    checked like a let-bound use. The analysis is intentionally over-
    rather than under-approximate within a binding, but it does not follow
    values into the parameters of named functions — the allowlist
    documents the audited residue.

    {b Rule 3 (parallel)} — interactive [Mpc] primitives must not be called
    inside [Parallel] worker lambdas: workers race on the shared meter, so
    the transcript event order would become scheduler-dependent
    (trace nondeterminism), and in a real deployment each domain would need
    its own channel schedule. No allowlist for this rule.

    Findings against a [leaky:] allowlist entry are legal only under
    [lib/baselines/] and are reported separately instead of failing. An
    allowlist entry of a linted module that no finding resolves to is
    stale ({!stale_entries}) and fails the lint too: the code it audited
    is gone or has moved, and the entry would silently admit whatever
    lands at its site next. *)

open Parsetree

(* Every primitive that opens, with the module that defines it. The
   fused openings open a value in the round that produced it: the
   reconstruction a permute-and-reshare pass delivers in the clear, the
   AND opened in its own round, and the shuffle and comparison entry
   points built on them. *)
let open_prims =
  [
    ("Mpc", "open_");
    ("Mpc", "open_f");
    ("Mpc", "open_many");
    ("Mpc", "open_f_many");
    ("Mpc", "band_open_f");
    ("Mpc", "reshare_open_unmetered");
    ("Shardedperm", "apply_open");
    ("Permops", "shuffle_open_table");
    ("Compare", "lt_lex_open");
  ]

let open_names = List.map snd open_prims

(* Interactive (round-consuming) Mpc primitives for rule 3. Local share
   algebra (xor, add, shifts, …) is domain-safe and deliberately absent. *)
let interactive_names =
  open_names
  @ [
      "mul";
      "mul_many";
      "band";
      "band_many";
      "band_f";
      "band_f_many";
      "bor_many";
      "bor_f_many";
      "fuse_rounds";
    ]

let parallel_entry_points =
  [ "run_spans"; "run_tasks" ]

type finding = {
  f_rule : Declass.rule;
  f_file : string;
  f_line : int;
  f_site : string;  (** enclosing ["Module.function"] *)
  f_callee : string;  (** opened primitive, branch keyword, or Mpc callee *)
}

type verdict =
  | Allowed of Declass.entry
  | Leaky of Declass.entry  (** leak-by-design baseline, in lib/baselines/ *)
  | Violation

let in_baselines file =
  List.exists (fun seg -> seg = "baselines") (String.split_on_char '/' file)

let verdict (f : finding) : verdict =
  match
    Declass.find ~site:f.f_site ~rule:f.f_rule ~callee:f.f_callee
  with
  | None -> Violation
  | Some e when e.d_leaky -> if in_baselines f.f_file then Leaky e else Violation
  | Some e -> Allowed e

let violations fs = List.filter (fun f -> verdict f = Violation) fs

let leaky_findings fs =
  List.filter (fun f -> match verdict f with Leaky _ -> true | _ -> false) fs

let pp_finding ppf (f : finding) =
  Fmt.pf ppf "%s:%d: [%s] %s uses %s" f.f_file f.f_line
    (Declass.rule_label f.f_rule)
    f.f_site f.f_callee

(* ---------------- Longident helpers ---------------- *)

let parts lid = try Longident.flatten lid with _ -> []

let last_of lid = match List.rev (parts lid) with x :: _ -> x | [] -> ""

let qualifier lid =
  match List.rev (parts lid) with _ :: q :: _ -> q | _ -> ""

(* Opening primitives: bare (inside their own module) or qualified by
   the module that defines them. *)
let is_open_ident lid =
  let l = last_of lid and q = qualifier lid in
  List.exists (fun (m, name) -> name = l && (q = "" || q = m)) open_prims

let is_interactive_mpc lid =
  is_open_ident lid
  || (qualifier lid = "Mpc" && List.mem (last_of lid) interactive_names)

let is_parallel_entry lid =
  qualifier lid = "Parallel" && List.mem (last_of lid) parallel_entry_points

(* ---------------- generic expression scans ---------------- *)

(* [exists_ident p e]: does [e] contain a [Pexp_ident] satisfying [p]? *)
let exists_ident p (e : expression) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident lid when p lid.Location.txt -> found := true
          | _ -> ());
          if not !found then Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

let pat_vars (p : pattern) =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self pa ->
          (match pa.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self pa);
    }
  in
  it.pat it p;
  !acc

module Sset = Set.Make (String)

(* ---------------- rule 2: per-binding taint ---------------- *)

let mentions_tainted taint e =
  exists_ident (fun lid -> Sset.mem (last_of lid) taint) e

let tainted_source taint e =
  exists_ident is_open_ident e || mentions_tainted taint e

(* The parameters of a function literal, through nested [fun]s. *)
let rec lambda_params (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, p, body) -> pat_vars p @ lambda_params body
  | _ -> []

(* One pass collecting newly tainted names from let-bindings, [:=] and
   the parameters of callbacks applied alongside tainted arguments. *)
let taint_pass (body : expression) (taint : Sset.t) : Sset.t =
  let taint = ref taint in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  if tainted_source !taint vb.pvb_expr then
                    List.iter
                      (fun v -> taint := Sset.add v !taint)
                      (pat_vars vb.pvb_pat))
                vbs
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Lident ":="; _ }; _ },
                [ (_, { pexp_desc = Pexp_ident { txt = l; _ }; _ }); (_, rhs) ]
              )
            when tainted_source !taint rhs ->
              taint := Sset.add (last_of l) !taint
          | Pexp_apply (_, args) ->
              List.iter
                (fun (_, arg) ->
                  match lambda_params arg with
                  | [] -> ()
                  | ps ->
                      if
                        List.exists
                          (fun (_, o) -> o != arg && tainted_source !taint o)
                          args
                      then List.iter (fun v -> taint := Sset.add v !taint) ps)
                args
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it body;
  !taint

let rec taint_fixpoint body taint fuel =
  let taint' = taint_pass body taint in
  if fuel = 0 || Sset.equal taint taint' then taint'
  else taint_fixpoint body taint' (fuel - 1)

(* ---------------- the walker ---------------- *)

let module_of_file file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

let lint_structure ~file (str : structure) : finding list =
  let modname = module_of_file file in
  let findings = ref [] in
  let add rule ~loc ~site ~callee =
    findings :=
      {
        f_rule = rule;
        f_file = file;
        f_line = loc.Location.loc_start.Lexing.pos_lnum;
        f_site = site;
        f_callee = callee;
      }
      :: !findings
  in
  (* rules 1 and 3, one traversal per top-level binding *)
  let scan_rules_1_3 ~site body =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self ex ->
            (match ex.pexp_desc with
            | Pexp_ident { txt; loc } when is_open_ident txt ->
                add Declass ~loc ~site ~callee:(last_of txt)
            | Pexp_apply
                ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args)
              when is_parallel_entry txt ->
                List.iter
                  (fun (_, arg) ->
                    if exists_ident is_interactive_mpc arg then
                      add In_parallel ~loc ~site
                        ~callee:(last_of txt))
                  args
            | _ -> ());
            Ast_iterator.default_iterator.expr self ex);
      }
    in
    it.expr it body
  in
  (* rule 2: taint, then flag control flow on tainted scrutinees *)
  let scan_rule_2 ~site body =
    let taint = taint_fixpoint body Sset.empty 8 in
    if not (Sset.is_empty taint) || exists_ident is_open_ident body then begin
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self ex ->
              (match ex.pexp_desc with
              | Pexp_ifthenelse (c, _, _) when tainted_source taint c ->
                  add Branch ~loc:ex.pexp_loc ~site ~callee:"if"
              | Pexp_match (scrut, _) when tainted_source taint scrut ->
                  add Branch ~loc:ex.pexp_loc ~site ~callee:"match"
              | Pexp_while (c, _) when tainted_source taint c ->
                  add Branch ~loc:ex.pexp_loc ~site ~callee:"while"
              | Pexp_for (_, lo, hi, _, _)
                when tainted_source taint lo || tainted_source taint hi ->
                  add Branch ~loc:ex.pexp_loc ~site ~callee:"for"
              | _ -> ());
              Ast_iterator.default_iterator.expr self ex);
        }
      in
      it.expr it body
    end
  in
  let rec scan_item (item : structure_item) =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let name =
              match pat_vars vb.pvb_pat with v :: _ -> v | [] -> "_"
            in
            let site = modname ^ "." ^ name in
            scan_rules_1_3 ~site vb.pvb_expr;
            scan_rule_2 ~site vb.pvb_expr)
          vbs
    | Pstr_module { pmb_expr; _ } -> scan_module_expr pmb_expr
    | Pstr_recmodule mbs ->
        List.iter (fun mb -> scan_module_expr mb.pmb_expr) mbs
    | Pstr_include { pincl_mod; _ } -> scan_module_expr pincl_mod
    | _ -> ()
  and scan_module_expr me =
    match me.pmod_desc with
    | Pmod_structure str -> List.iter scan_item str
    | Pmod_functor (_, body) -> scan_module_expr body
    | Pmod_constraint (me, _) -> scan_module_expr me
    | _ -> ()
  in
  List.iter scan_item str;
  List.rev !findings

let lint_string ~filename src : finding list =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf filename;
  lint_structure ~file:filename (Parse.implementation lexbuf)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lint_file path : finding list = lint_string ~filename:path (read_file path)

(* Walk directories for files with [suffix] (sorted for stable reports). *)
let rec files ~suffix path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f -> files ~suffix (Filename.concat path f))
  else if Filename.check_suffix path suffix then [ path ]
  else []

let ml_files = files ~suffix:".ml"

let lint_paths paths : finding list =
  List.concat_map (fun p -> List.concat_map lint_file (ml_files p)) paths

(* Allowlist entries whose module is among [modules] (the linted ones)
   but to which no finding resolves. *)
let stale_entries ~modules findings : Declass.entry list =
  let used =
    List.map
      (fun f -> Declass.find ~site:f.f_site ~rule:f.f_rule ~callee:f.f_callee)
      findings
  in
  List.filter
    (fun (e : Declass.entry) ->
      List.mem (List.hd (String.split_on_char '.' e.d_site)) modules
      && not (List.mem (Some e) used))
    Declass.all
