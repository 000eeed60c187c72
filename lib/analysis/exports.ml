(** Dead-export audit: a third Parsetree pass (compiler-libs, no new
    dependency — the same approach as {!Lint} and {!Concur}).

    It reports two classes of top-level [val] of an audited [.mli]: one
    that no [.ml] uses outside the value's own module ({!Unused}), and
    one that only test code uses ({!Test_only}). Only implementations
    under the {!reference_roots} ([lib/], [bin/], [bench/], [examples/])
    count as uses; those under {!test_root} merely tell the two classes
    apart, so dead code cannot hide behind its own tests. A use is a path
    [M.v] (through any library prefix, or a local module alias
    [module X = ...M]) or, in a file that opens or includes [M], a bare
    [v]. The bare-name rule over-approximates uses, so the pass can miss
    a dead export but never reports a live one. An export kept on purpose
    in either class goes in {!keep} with its reason; an entry whose val
    is gone or now has a use outside test/ is stale ({!Stale_keep}) and
    fails the audit too. *)

open Parsetree

type kind =
  | Unused  (** no use outside its module *)
  | Test_only  (** used outside its module only from test/ *)
  | Stale_keep of string  (** a {!keep} entry that no longer holds: why *)

type finding = {
  x_file : string;  (** the interface *)
  x_line : int;
  x_site : string;  (** ["Module.value"] *)
  x_kind : kind;
}

(** The audited keep-list: exports with no use outside test/, kept on
    purpose, each with its reason. *)
let keep : (string * string) list =
  [
    (* oracles tests compare live code against *)
    ("Localperm.is_permutation", "oracle: tests check every sigma, rho and \
      sorting permutation the protocols produce is a bijection");
    ("Share.reconstruct_flags", "oracle: tests open packed flag shares in \
      the clear, bypassing the metered open, to compare with plaintext");
    ("Shardedperm.plaintext", "oracle: the dealer-side plaintext of a \
      sharded permutation, which shuffle and sort tests compare against");
    ("Ring.to_signed", "oracle: the signed reading of a ring element that \
      the circuit tests compare signed comparisons and subtractions to");
    (* closed forms tests check the meter against *)
    ("Divide.udiv_rounds", "closed form: test_circuits checks udiv's \
      metered rounds against it over (w, wd, qw)");
    ("Divide.pub_rounds", "closed form: test_circuits checks udiv_pub's \
      metered rounds against it over every divisor class");
    ("Primcost.open_", "closed form: test_analysis checks the metered \
      open's events against it");
    ("Primcost.lt", "closed form: test_analysis checks Compare.lt's metered \
      events against it");
    ("Primcost.a2b", "closed form: test_analysis checks Convert.a2b's \
      metered events against it");
    ("Joincost.predict", "closed form: test_linjoin pins its per-shape \
      predictions (choose_logged prices candidates through it)");
    ("Tpch_gen.shapes", "closed form: TPC-H's public row bounds and \
      domains at any scale; test_domains checks SF 10 fits the ring");
    (* test hooks *)
    ("Debug.set_checks", "test hook: turns the runtime invariant checks \
      on for one test without the ORQ_DEBUG_CHECKS environment");
    ("Locked.held_names", "test hook: the lock-rank tests read which \
      locks the current domain holds");
    (* live functions whose own unit tests call them *)
    ("Compare.eq_many", "live: Compare.eq and eq_composite_many run \
      through it; test_fusion pins its lane fusion directly");
    ("Radix_compose.sort_with_perm", "live: Radix_compose.sort runs \
      through it; tests check the composed permutation sort drops");
    ("Dom.max_width", "live: Dom.check refuses domains wider than it; \
      test_domains probes that boundary");
    ("Table.peek", "live: Table.valid_rows_sorted reads through it; tests \
      read physical rows, padding and invalid rows included");
    ("Netsim.local", "live: Netsim.of_label returns it for \"local\"; \
      tests pin a zero-cost pacing profile directly");
    ("Wire.encode_request", "live: Wire.send_request frames through it; \
      test_party writes raw and hostile request frames");
    ("Wire.decode_response", "live: Wire.recv_response decodes through \
      it; test_party reads the reply to a raw frame");
    ("Client.ping", "client side of the wire's Ping, which Service and \
      Cluster answer; test_service drives that endpoint with it");
    ("Client.stats", "client side of the wire's Stats_req, which Service \
      answers; service tests read the server counters with it");
    ("Cluster.verify_hello", "live: accept_handshake and dial_handshake \
      run it; test_party checks each mismatched hello field");
    ("Cluster.accept_handshake", "live: Cluster.establish_mesh accepts \
      peers through it; test_party drives it over a socketpair");
    ("Cluster.dial_handshake", "live: Cluster.establish_mesh dials peers \
      through it; test_party drives it over a socketpair");
    ("Exchange.share_of", "live: Exchange.exchange splits each round's \
      tally with it; test_party checks the shares sum exactly");
    ("Pwire.magic", "live: Pwire.encode and decode frame every mesh body \
      with it; test_party builds a bad-tag body from it");
    ("Pwire.encode", "live: Pwire.send frames through it; test_party \
      round-trips every mesh message");
    ("Pwire.decode", "live: Pwire.recv decodes through it; test_party \
      round-trips every mesh message and rejects bad ones");
  ]

let rule_label = function
  | Unused -> "dead-export"
  | Test_only -> "test-only-export"
  | Stale_keep _ -> "stale-keep-entry"

let pp_finding ppf f =
  match f.x_kind with
  | Unused ->
      Fmt.pf ppf "%s:%d: %s is exported but never used outside its module"
        f.x_file f.x_line f.x_site
  | Test_only ->
      Fmt.pf ppf "%s:%d: %s is exported but used only from test/" f.x_file
        f.x_line f.x_site
  | Stale_keep why ->
      Fmt.pf ppf "%s:%d: keep-list entry %s is stale: %s" f.x_file f.x_line
        f.x_site why

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

(** [audit ~interfaces ~impls ~tests] over [(filename, source)] pairs:
    the exports of [interfaces] that no file of [impls] uses outside the
    export's own module, each {!Unused} or, when a file of [tests] uses
    it, {!Test_only}; those in [keep] (default {!keep}) are left out.
    Plus a {!Stale_keep} finding for each [keep] entry of an audited
    module whose val is gone or has a use in [impls]. *)
let audit ?(keep = keep) ~interfaces ~impls ~tests () : finding list =
  let users files =
    List.map
      (fun (file, src) ->
        ( module_of file,
          uses_of_structure (parse Parse.implementation ~filename:file src) ))
      files
  in
  let live = users impls and tested = users tests in
  let resolve = resolver (List.map snd (live @ tested)) in
  let used_by users m v =
    List.exists (fun (um, u) -> um <> m && uses resolve u (m, v)) users
  in
  List.concat_map
    (fun (file, src) ->
      let m = module_of file in
      let exports = exports_of_signature (parse Parse.interface ~filename:file src) in
      let finding ?(line = 1) site kind =
        { x_file = file; x_line = line; x_site = site; x_kind = kind }
      in
      let classified =
        List.filter_map
          (fun (v, line) ->
            let site = m ^ "." ^ v in
            let kept = List.mem_assoc site keep in
            match (used_by live m v, kept) with
            | true, true -> Some (finding ~line site (Stale_keep "used outside test/"))
            | true, false | false, true -> None
            | false, false ->
                Some (finding ~line site (if used_by tested m v then Test_only else Unused)))
          exports
      in
      let sites = List.map (fun (v, _) -> m ^ "." ^ v) exports in
      let gone =
        List.filter_map
          (fun (site, _) ->
            if String.starts_with ~prefix:(m ^ ".") site && not (List.mem site sites)
            then Some (finding site (Stale_keep "no such val"))
            else None)
          keep
      in
      classified @ gone)
    interfaces

let reference_roots = [ "lib"; "bin"; "bench"; "examples" ]
let test_root = "test"

(** Audit the interfaces under [paths] against every implementation under
    {!reference_roots} and {!test_root} (those that exist). *)
let audit_paths paths : finding list =
  let load suffix roots =
    List.concat_map
      (fun r -> List.map (fun f -> (f, Lint.read_file f)) (Lint.files ~suffix r))
      roots
  in
  let refs roots = load ".ml" (List.filter Sys.file_exists roots) in
  audit ~interfaces:(load ".mli" paths) ~impls:(refs reference_roots)
    ~tests:(refs [ test_root ]) ()
