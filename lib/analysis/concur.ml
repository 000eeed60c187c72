(** Static concurrency-discipline lint: a second Parsetree walker (same
    zero-dependency [compiler-libs] style as {!Lint}) that checks every
    [.ml] under [lib/] against the lock discipline written down in
    {!Lockmap}:

    {b Rule 1 (registry)} — mutexes exist only as [Locked.t]: any raw
    [Mutex.create]/[lock]/[unlock] (and any unstructured
    [Locked.lock]/[unlock]) outside [lib/util/locked.ml] is a
    violation, and every [Locked.create] site must pass literal
    [~name]/[~rank] arguments matching a {!Lockmap.locks} entry.

    {b Rule 2 (order)} — syntactic nesting of lock regions
    ([Locked.with_lock], or a local wrapper function whose body enters
    one) must respect the declared total order: acquiring a lock of
    lower or equal rank while one is held is a violation, as is
    [Locked.wait] on a lock that is not the innermost held. Lock
    identities resolve through top-level [let x = Locked.create ...]
    bindings and record fields initialised with [Locked.create ...]
    in record literals; the walk recurses into same-file functions
    referenced from a held region, so indirect acquisition through
    local helpers is seen.

    {b Rule 3 (blocking)} — no blocking call inside a held region:
    [Unix] I/O and sleeps, [Domain.join]/[Thread.join], raw
    [Condition.wait], or interactive [Mpc] primitives
    ({!Lint.interactive_names}). Audited exceptions live in
    {!Lockmap.blocking_exempts} (today: the chunk store's single-fd
    spill I/O, which must serialize under the store lock).

    {b Rule 4 (shared)} — a top-level [ref]/[Hashtbl]/[Queue] may not
    be captured by a closure handed to [Domain.spawn],
    [Thread.create], or a [Parallel] entry point: cross-domain mutable
    state must be [Atomic], domain-local, or a registered locked
    structure. (This is the rule that would have flagged the
    preconditions of both PR 9 chunk-store bugs.)

    {b Rule 5 (finaliser)} — a [Gc.finalise] callback must not take a
    registered lock: finalisers fire at allocation points, possibly on
    a thread already holding the very lock they would take (the PR 9
    deadlock). Callbacks wrapped in [Locked.finaliser_guard] are
    accepted — the runtime checker polices their body.

    The analysis is per-file and syntactic: cross-module acquisition
    chains (e.g. a service region calling a [Plan_cache] accessor) are
    out of static scope and covered by the runtime half — the
    [ORQ_DEBUG_CHECKS=1] held-stack checker in {!Orq_util.Locked} —
    which validates every acquisition order the test suite actually
    performs against the same registry. *)

open Parsetree

type finding = {
  c_rule : Lockmap.rule;
  c_file : string;
  c_line : int;
  c_site : string;  (** enclosing ["Module.function"] *)
  c_detail : string;  (** what happened, with the names involved *)
}

let pp_finding ppf (f : finding) =
  Fmt.pf ppf "%s:%d: [concur:%s] %s: %s" f.c_file f.c_line
    (Lockmap.rule_label f.c_rule)
    f.c_site f.c_detail

(* The runtime wrapper implements the raw operations the rest of the
   tree is forbidden to use; it is audited by hand and by its own
   runtime-checker tests. *)
let exempt_file file = Filename.basename file = "locked.ml"

let last_of = Lint.last_of
let qualifier = Lint.qualifier

let blocking_callees =
  [
    ("Unix", "read");
    ("Unix", "write");
    ("Unix", "connect");
    ("Unix", "accept");
    ("Unix", "select");
    ("Unix", "sleep");
    ("Unix", "sleepf");
    ("Unix", "system");
    ("Unix", "waitpid");
    ("Unix", "openfile");
    ("Domain", "join");
    ("Thread", "join");
    ("Condition", "wait");
  ]

let mutable_makers = [ ("", "ref"); ("Hashtbl", "create"); ("Queue", "create") ]

let spawn_like lid =
  match (qualifier lid, last_of lid) with
  | "Domain", "spawn" | "Thread", "create" -> true
  | "Parallel", l -> List.mem l Lint.parallel_entry_points
  | _ -> false

(* ---------------- lock-expression resolution ---------------- *)

let const_string = function
  | Pconst_string (s, _, _) -> Some s
  | _ -> None

let const_int = function
  | Pconst_integer (s, None) -> int_of_string_opt s
  | _ -> None

(* [Locked.create ~name:LIT ~rank:LIT ()] → (name?, rank?) when [e] is a
   create application (literal args only; [None] components otherwise). *)
let lock_create_args e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when qualifier txt = "Locked" && last_of txt = "create" ->
      let labelled l =
        List.find_map
          (function
            | Asttypes.Labelled l', { pexp_desc = Pexp_constant c; _ }
              when l' = l ->
                Some c
            | _ -> None)
          args
      in
      Some
        ( Option.bind (labelled "name") const_string,
          Option.bind (labelled "rank") const_int )
  | _ -> None

let rank_of_create = function
  | Some (_, Some r) -> Some r
  | Some (Some n, None) -> Lockmap.rank_of n
  | _ -> None

(* ---------------- per-file environment ---------------- *)

type env = {
  modname : string;
  var_ranks : (string, int) Hashtbl.t;  (** top-level lock bindings *)
  field_ranks : (string, int) Hashtbl.t;  (** record fields holding locks *)
  wrappers : (string, int option) Hashtbl.t;
      (** local functions whose body immediately enters a lock region *)
  bindings : (string, expression) Hashtbl.t;  (** all top-level bindings *)
  mutable_tops : (string, unit) Hashtbl.t;  (** top-level ref/Hashtbl/Queue *)
}

let rec strip_fun e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> strip_fun body
  | _ -> e

let binding_name vb =
  match Lint.pat_vars vb.pvb_pat with v :: _ -> Some v | [] -> None

(* Resolve the first argument of a [with_lock]-style application to a
   (description, rank?) pair. *)
let rec lock_of env e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } ->
      (n, Hashtbl.find_opt env.var_ranks n)
  | Pexp_field (_, { txt; _ }) ->
      let f = last_of txt in
      (f, Hashtbl.find_opt env.field_ranks f)
  | Pexp_constraint (e, _) -> lock_of env e
  | _ -> ("<lock>", None)

let rec is_mutable_maker e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> is_mutable_maker e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      List.mem (qualifier txt, last_of txt) mutable_makers
  | _ -> false

let build_env ~file (str : structure) : env =
  let env =
    {
      modname =
        String.capitalize_ascii Filename.(remove_extension (basename file));
      var_ranks = Hashtbl.create 8;
      field_ranks = Hashtbl.create 8;
      wrappers = Hashtbl.create 8;
      bindings = Hashtbl.create 64;
      mutable_tops = Hashtbl.create 8;
    }
  in
  let scan_binding vb =
    match binding_name vb with
    | None -> ()
    | Some name ->
        Hashtbl.replace env.bindings name vb.pvb_expr;
        (match rank_of_create (lock_create_args vb.pvb_expr) with
        | Some r -> Hashtbl.replace env.var_ranks name r
        | None -> ());
        if is_mutable_maker vb.pvb_expr then
          Hashtbl.replace env.mutable_tops name ()
  in
  let rec scan_item item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter scan_binding vbs
    | Pstr_module { pmb_expr; _ } -> scan_module pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> scan_module mb.pmb_expr) mbs
    | Pstr_include { pincl_mod; _ } -> scan_module pincl_mod
    | _ -> ()
  and scan_module me =
    match me.pmod_desc with
    | Pmod_structure s -> List.iter scan_item s
    | Pmod_functor (_, body) -> scan_module body
    | Pmod_constraint (me, _) -> scan_module me
    | _ -> ()
  in
  List.iter scan_item str;
  (* record fields initialised with a lock, anywhere in the file *)
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_record (fields, _) ->
              List.iter
                (fun ({ Location.txt; _ }, value) ->
                  match rank_of_create (lock_create_args value) with
                  | Some r -> Hashtbl.replace env.field_ranks (last_of txt) r
                  | None -> ())
                fields
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.structure it str;
  (* wrappers: [let w params = Locked.with_lock LOCK ...] — calling [w]
     acquires LOCK around its function argument *)
  Hashtbl.iter
    (fun name body ->
      match (strip_fun body).pexp_desc with
      | Pexp_apply
          ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, lockarg) :: _)
        when qualifier txt = "Locked" && last_of txt = "with_lock"
             && body != strip_fun body ->
          Hashtbl.replace env.wrappers name (snd (lock_of env lockarg))
      | _ -> ())
    env.bindings;
  env

(* ---------------- the walker ---------------- *)

let analyze_structure ~file (str : structure) : finding list =
  let env = build_env ~file str in
  let findings = ref [] in
  let add rule ~loc ~site detail =
    findings :=
      {
        c_rule = rule;
        c_file = file;
        c_line = loc.Location.loc_start.Lexing.pos_lnum;
        c_site = site;
        c_detail = detail;
      }
      :: !findings
  in
  (* held: innermost-first (description, rank option) *)
  let check_order ~loc ~site ~held (desc, rank) =
    match (held, rank) with
    | (tdesc, Some tr) :: _, Some r when tr >= r ->
        add Lockmap.Order ~loc ~site
          (Printf.sprintf
             "acquires %S (rank %d) while holding %S (rank %d) — ranks must \
              strictly increase inward"
             desc r tdesc tr)
    | _ -> ()
  in
  let check_blocking ~loc ~site txt =
    let q = qualifier txt and l = last_of txt in
    let callee = if q = "" then l else q ^ "." ^ l in
    let is_blocking =
      List.mem (q, l) blocking_callees || Lint.is_interactive_mpc txt
    in
    if is_blocking && Lockmap.find_blocking_exempt ~site ~callee = None then
      add Lockmap.Blocking ~loc ~site
        (Printf.sprintf
           "calls %s inside a held-lock region (no blocking under lock; \
            audited exemptions live in lockmap.ml)"
           callee)
  in
  (* Does [e] (transitively through same-file bindings) acquire a
     registered lock? Used for the finaliser rule. *)
  let acquires_lock e0 =
    let found = ref false in
    let visited = Hashtbl.create 8 in
    let rec go e =
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self ex ->
              (match ex.pexp_desc with
              | Pexp_ident { txt; _ }
                when qualifier txt = "Locked"
                     && List.mem (last_of txt) [ "with_lock"; "lock"; "wait" ]
                ->
                  found := true
              | Pexp_ident { txt = Longident.Lident n; _ }
                when Hashtbl.mem env.wrappers n ->
                  found := true
              | Pexp_ident { txt = Longident.Lident n; _ }
                when Hashtbl.mem env.bindings n
                     && not (Hashtbl.mem visited n) ->
                  Hashtbl.replace visited n ();
                  go (Hashtbl.find env.bindings n)
              | _ -> ());
              if not !found then Ast_iterator.default_iterator.expr self ex);
        }
      in
      it.expr it e
    in
    go e0;
    !found
  in
  let check_finaliser ~loc ~site cb =
    let guarded =
      match cb.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
          qualifier txt = "Locked" && last_of txt = "finaliser_guard"
      | _ -> false
    in
    let body =
      match cb.pexp_desc with
      | Pexp_ident { txt = Longident.Lident n; _ } ->
          Hashtbl.find_opt env.bindings n
      | _ -> Some cb
    in
    match (guarded, body) with
    | true, _ -> ()
    | false, Some b when acquires_lock b ->
        add Lockmap.Finaliser ~loc ~site
          "Gc.finalise callback can take a registered lock — finalisers \
           fire at allocation points, possibly while this very lock is \
           held; hand work off lock-free (graveyard pattern) and wrap the \
           callback in Locked.finaliser_guard"
    | _ -> ()
  in
  let registry_check ~loc ~site e =
    match lock_create_args e with
    | None -> ()
    | Some (name, rank) -> (
        match (name, rank) with
        | None, _ | _, None ->
            add Lockmap.Registry ~loc ~site
              "Locked.create without literal ~name/~rank arguments — lock \
               identities must be auditable in lockmap.ml"
        | Some n, Some r -> (
            match Lockmap.find_name n with
            | None ->
                add Lockmap.Registry ~loc ~site
                  (Printf.sprintf
                     "lock %S is not registered in lockmap.ml — every lock \
                      needs a rank and a written justification"
                     n)
            | Some lk when lk.Lockmap.lk_rank <> r ->
                add Lockmap.Registry ~loc ~site
                  (Printf.sprintf
                     "lock %S created with rank %d but registered with rank \
                      %d in lockmap.ml"
                     n r lk.Lockmap.lk_rank)
            | Some _ -> ()))
  in
  (* The main walk: [site] is the function whose body we are inside
     (recursion into same-file helpers updates it, so blocking
     exemptions anchor to the helper that performs the call). *)
  let rec walk ~site ~held ~visited e =
    let recurse = walk ~visited in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self ex ->
            registry_check ~loc:ex.pexp_loc ~site ex;
            match ex.pexp_desc with
            | Pexp_apply
                ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
                let q = qualifier txt and l = last_of txt in
                match (q, l) with
                | "Mutex", _ when not (exempt_file file) ->
                    add Lockmap.Registry ~loc ~site
                      (Printf.sprintf
                         "raw Mutex.%s — engine mutexes are Locked.t, \
                          created/held only through Locked.create and \
                          Locked.with_lock"
                         l)
                | "Locked", ("lock" | "unlock") when not (exempt_file file)
                  ->
                    add Lockmap.Registry ~loc ~site
                      (Printf.sprintf
                         "unstructured Locked.%s — hold locks only through \
                          Locked.with_lock regions"
                         l)
                | "Locked", "with_lock" ->
                    let lk =
                      match args with
                      | (_, a) :: _ -> lock_of env a
                      | [] -> ("<lock>", None)
                    in
                    check_order ~loc ~site ~held lk;
                    List.iter
                      (fun (_, a) -> recurse ~site ~held:(lk :: held) a)
                      args
                | "Locked", "wait" ->
                    (let lk =
                       match args with
                       | (_, a) :: _ -> lock_of env a
                       | [] -> ("<lock>", None)
                     in
                     match (held, lk) with
                     | [], _ ->
                         add Lockmap.Order ~loc ~site
                           (Printf.sprintf
                              "Locked.wait on %S outside any held-lock \
                               region"
                              (fst lk))
                     | (tdesc, Some tr) :: _, (desc, Some r) when tr <> r ->
                         add Lockmap.Order ~loc ~site
                           (Printf.sprintf
                              "Locked.wait on %S (rank %d) while %S (rank \
                               %d) is innermost — wait only on the \
                               innermost held lock"
                              desc r tdesc tr)
                     | _ -> ());
                    List.iter (fun (_, a) -> recurse ~site ~held a) args
                | "Gc", ("finalise" | "finalise_last") ->
                    (match args with
                    | (_, cb) :: _ -> check_finaliser ~loc ~site cb
                    | [] -> ());
                    List.iter (fun (_, a) -> recurse ~site ~held a) args
                | "", n when Hashtbl.mem env.wrappers n ->
                    let rank = Hashtbl.find env.wrappers n in
                    let lk = (n, rank) in
                    check_order ~loc ~site ~held lk;
                    List.iter
                      (fun (_, a) -> recurse ~site ~held:(lk :: held) a)
                      args
                | _ ->
                    if held <> [] then check_blocking ~loc ~site txt;
                    Ast_iterator.default_iterator.expr self ex)
            | Pexp_ident { txt = Longident.Lident n; _ }
              when held <> []
                   && Hashtbl.mem env.bindings n
                   && not (Hashtbl.mem visited n) ->
                Hashtbl.replace visited n ();
                walk
                  ~site:(env.modname ^ "." ^ n)
                  ~held ~visited
                  (Hashtbl.find env.bindings n)
            | _ -> Ast_iterator.default_iterator.expr self ex);
      }
    in
    it.expr it e
  in
  (* rule 4: top-level mutable state captured by cross-domain closures *)
  let shared_check ~site body =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self ex ->
            (match ex.pexp_desc with
            | Pexp_apply
                ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args)
              when spawn_like txt
                   || (qualifier txt = ""
                      && env.modname = "Parallel"
                      && List.mem (last_of txt) Lint.parallel_entry_points)
              ->
                List.iter
                  (fun (_, arg) ->
                    Hashtbl.iter
                      (fun name () ->
                        let mentions =
                          Lint.exists_ident
                            (fun lid ->
                              lid = Longident.Lident name)
                            arg
                        in
                        let exempt =
                          Lockmap.find_shared_exempt
                            ~site:(env.modname ^ "." ^ name)
                          <> None
                        in
                        if mentions && not exempt then
                          add Lockmap.Shared ~loc ~site
                            (Printf.sprintf
                               "top-level mutable %S reaches a %s closure — \
                                cross-domain state must be Atomic, \
                                domain-local, or a registered locked \
                                structure"
                               name
                               (last_of txt)))
                      env.mutable_tops)
                  args
            | _ -> ());
            Ast_iterator.default_iterator.expr self ex);
      }
    in
    it.expr it body
  in
  let scan_binding vb =
    let name =
      match binding_name vb with Some v -> v | None -> "_"
    in
    let site = env.modname ^ "." ^ name in
    let visited = Hashtbl.create 8 in
    Hashtbl.replace visited name ();
    walk ~site ~held:[] ~visited vb.pvb_expr;
    shared_check ~site vb.pvb_expr
  in
  let rec scan_item item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter scan_binding vbs
    | Pstr_module { pmb_expr; _ } -> scan_module pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> scan_module mb.pmb_expr) mbs
    | Pstr_include { pincl_mod; _ } -> scan_module pincl_mod
    | _ -> ()
  and scan_module me =
    match me.pmod_desc with
    | Pmod_structure s -> List.iter scan_item s
    | Pmod_functor (_, body) -> scan_module body
    | Pmod_constraint (me, _) -> scan_module me
    | _ -> ()
  in
  List.iter scan_item str;
  (* several walk roots can reach the same helper; report each site once *)
  List.sort_uniq compare (List.rev !findings)

(* ---------------- entry points (mirror Lint's) ---------------- *)

let lint_string ~filename src : finding list =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf filename;
  analyze_structure ~file:filename (Parse.implementation lexbuf)

let lint_file path : finding list =
  if exempt_file path then []
  else lint_string ~filename:path (Lint.read_file path)

let lint_paths paths : finding list =
  List.concat_map (fun p -> List.concat_map lint_file (Lint.ml_files p)) paths
