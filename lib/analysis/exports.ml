(** Dead-export audit: a third Parsetree pass (compiler-libs, no new
    dependency — the same approach as {!Lint} and {!Concur}).

    It lists every top-level [val] of an audited [.mli] that no [.ml]
    under the reference roots ([lib/], [bin/], [bench/], [test/]) uses
    outside the value's own module. A use is a path [M.v] (through any
    library prefix, or a local module alias [module X = ...M]) or, in a
    file that opens or includes [M], a bare [v]. The bare-name rule
    over-approximates uses, so the pass can miss a dead export but never
    reports a live one. An export kept on purpose without an outside use
    goes in {!keep} with its reason. *)

open Parsetree

type finding = {
  x_file : string;  (** the interface *)
  x_line : int;
  x_site : string;  (** ["Module.value"] *)
}

(** The audited keep-list: exports with no outside use, kept on purpose. *)
let keep : (string * string) list = []

let pp_finding ppf f =
  Fmt.pf ppf "%s:%d: %s is exported but never used outside its module"
    f.x_file f.x_line f.x_site

let module_of file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

let last = Lint.last_of

(* ---------------- what a file uses ---------------- *)

module Sset = Set.Make (String)

type uses = {
  qualified : (string * string) list;  (** (module or alias, value) *)
  opened : Sset.t;  (** modules or aliases opened or included *)
  bare : Sset.t;  (** unqualified value names *)
  aliases : (string * string) list;  (** [module X = ...M] as (X, M) *)
}

let uses_of_structure (str : structure) : uses =
  let qualified = ref [] and opened = ref Sset.empty and bare = ref Sset.empty in
  let aliases = ref [] in
  let open_mod (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> opened := Sset.add (last txt) !opened
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident v; _ } -> bare := Sset.add v !bare
          | Pexp_ident { txt = Longident.Ldot (m, v); _ } ->
              qualified := (last m, v) :: !qualified
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      open_declaration =
        (fun self od ->
          open_mod od.popen_expr;
          Ast_iterator.default_iterator.open_declaration self od);
      include_declaration =
        (fun self id ->
          open_mod id.pincl_mod;
          Ast_iterator.default_iterator.include_declaration self id);
      module_binding =
        (fun self mb ->
          (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
          | Some x, Pmod_ident { txt; _ } -> aliases := (x, last txt) :: !aliases
          | _ -> ());
          Ast_iterator.default_iterator.module_binding self mb);
    }
  in
  it.structure it str;
  { qualified = !qualified; opened = !opened; bare = !bare; aliases = !aliases }

(* Aliases reach other files through [open], so they resolve globally:
   a name stands for itself and everything it aliases, transitively. *)
let resolver (all : uses list) =
  let edges = List.concat_map (fun u -> u.aliases) all in
  let rec close seen = function
    | [] -> seen
    | x :: rest when Sset.mem x seen -> close seen rest
    | x :: rest ->
        let next = List.filter_map (fun (a, t) -> if a = x then Some t else None) edges in
        close (Sset.add x seen) (next @ rest)
  in
  fun name -> close Sset.empty [ name ]

let uses resolve (u : uses) (m, v) =
  List.exists (fun (q, v') -> v' = v && Sset.mem m (resolve q)) u.qualified
  || Sset.mem v u.bare
     && Sset.exists (fun o -> Sset.mem m (resolve o)) u.opened

(* ---------------- the audit ---------------- *)

let exports_of_signature (sg : signature) =
  List.filter_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd ->
          Some (vd.pval_name.txt, vd.pval_loc.Location.loc_start.Lexing.pos_lnum)
      | _ -> None)
    sg

let parse parser ~filename src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf filename;
  parser lexbuf

(** [audit ~interfaces ~impls] over [(filename, source)] pairs: the
    exports of [interfaces] no file of [impls] uses outside the export's
    own module, minus {!keep}. *)
let audit ~interfaces ~impls : finding list =
  let users =
    List.map
      (fun (file, src) ->
        ( module_of file,
          uses_of_structure (parse Parse.implementation ~filename:file src) ))
      impls
  in
  let resolve = resolver (List.map snd users) in
  List.concat_map
    (fun (file, src) ->
      let m = module_of file in
      let others = List.filter (fun (um, _) -> um <> m) users in
      List.filter_map
        (fun (v, line) ->
          let site = m ^ "." ^ v in
          if List.mem_assoc site keep
             || List.exists (fun (_, u) -> uses resolve u (m, v)) others
          then None
          else Some { x_file = file; x_line = line; x_site = site })
        (exports_of_signature (parse Parse.interface ~filename:file src)))
    interfaces

let reference_roots = [ "lib"; "bin"; "bench"; "test" ]

(** Audit the interfaces under [paths] against every implementation under
    {!reference_roots} (those that exist). *)
let audit_paths paths : finding list =
  let load suffix roots =
    List.concat_map
      (fun r -> List.map (fun f -> (f, Lint.read_file f)) (Lint.files ~suffix r))
      roots
  in
  audit
    ~interfaces:(load ".mli" paths)
    ~impls:(load ".ml" (List.filter Sys.file_exists reference_roots))
