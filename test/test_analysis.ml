(* The leakage-analysis layer: lint rules and allowlist discipline,
   transcript recorder mechanics, closed-form cost model vs the metering
   layer, and the shape-twin certifier on live queries. *)

open Orq_proto
module Comm = Orq_net.Comm
module Lint = Orq_analysis.Lint
module Declass = Orq_analysis.Declass
module Exports = Orq_analysis.Exports
module Primcost = Orq_proto.Primcost
module Certify = Orq_analysis.Certify

let event_t = Alcotest.testable Comm.pp_event ( = )

(* ---------------- lint ---------------- *)

(* The fixture directory is not compiled, so the seeded violations are
   embedded here as source text: the lint must flag all three rules. *)
let leaky_src =
  {|
let leak ctx xs =
  let opened = Mpc.open_ ctx xs in
  let total = ref 0 in
  for i = 0 to Vec.length opened - 1 do
    if Vec.get opened i = 1 then incr total
  done;
  !total

let racy ctx x y = Parallel.run_tasks 2 (fun _ -> ignore (Mpc.band ctx x y))
|}

let test_lint_flags_seeded_violations () =
  let fs = Lint.lint_string ~filename:"fixture/seeded.ml" leaky_src in
  let vs = Lint.violations fs in
  let has rule callee =
    List.exists
      (fun (f : Lint.finding) -> f.Lint.f_rule = rule && f.Lint.f_callee = callee)
      vs
  in
  Alcotest.(check bool) "unregistered open_ flagged" true
    (has Declass.Declass "open_");
  Alcotest.(check bool) "for bound on opened value flagged" true
    (has Declass.Branch "for");
  Alcotest.(check bool) "if on opened value flagged" true
    (has Declass.Branch "if");
  Alcotest.(check bool) "Mpc inside Parallel lambda flagged" true
    (has Declass.In_parallel "run_tasks");
  (* site naming: Module.function from the filename + top-level binding *)
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check bool) "site module is Seeded" true
        (String.length f.Lint.f_site > 7
        && String.sub f.Lint.f_site 0 7 = "Seeded."))
    vs

let test_lint_clean_code_passes () =
  let clean_src =
    {|
let dot ctx x y =
  let p = Mpc.mul ctx x y in
  let n = Share.length p in
  if n > 0 then Some p else None
|}
  in
  let fs = Lint.lint_string ~filename:"fixture/clean.ml" clean_src in
  Alcotest.(check int) "no findings on clean code" 0 (List.length fs)

(* An opened vector consumed by a callback: the branch sits on a lambda
   parameter, not on a let-bound name. *)
let callback_src =
  {|
let reveal ctx t =
  let opened, _ = Permops.shuffle_open_table ctx ~opened:t [] in
  let keep = ref [] in
  Array.iteri (fun i b -> if b = 1 then keep := i :: !keep) (List.hd opened);
  !keep
|}

let test_lint_follows_callbacks () =
  let fs = Lint.lint_string ~filename:"fixture/seeded.ml" callback_src in
  Alcotest.(check bool) "branch on a callback parameter flagged" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.f_rule = Declass.Branch && f.Lint.f_callee = "if")
       (Lint.violations fs))

(* The same code under the name of an allowlisted site: the branch entry
   is used; without the branch nothing resolves to it, so it is stale. *)
let test_lint_reports_stale_entries () =
  let stale src =
    Lint.stale_entries ~modules:[ "Table" ]
      (Lint.lint_string ~filename:"fixture/table.ml" src)
    |> List.map (fun (e : Declass.entry) ->
           (e.Declass.d_site, Declass.rule_label e.Declass.d_rule))
  in
  Alcotest.(check (list (pair string string)))
    "every Table entry used" [] (stale callback_src);
  let no_branch =
    {|
let reveal ctx t = fst (Permops.shuffle_open_table ctx ~opened:t [])
|}
  in
  Alcotest.(check (list (pair string string)))
    "unmatched branch entry reported"
    [ ("Table.reveal", "branch") ]
    (stale no_branch);
  (* the audited tree: clean, with no stale entry *)
  let lib = if Sys.file_exists "../lib/proto" then "../lib" else "lib" in
  let fs = Lint.lint_paths [ lib ] in
  Alcotest.(check int) "no violations under lib/" 0
    (List.length (Lint.violations fs));
  let modules = List.map Lint.module_of_file (Lint.ml_files lib) in
  Alcotest.(check int) "no stale entries under lib/" 0
    (List.length (Lint.stale_entries ~modules fs))

let test_lint_audited_tree_is_registered () =
  (* every allowlist entry used by the live tree resolves; leaky entries
     are confined to baselines *)
  List.iter
    (fun (e : Declass.entry) ->
      if e.Declass.d_leaky then
        Alcotest.(check bool)
          (e.Declass.d_site ^ " leaky entries name baseline modules")
          true
          (String.length e.Declass.d_site >= 5
          && String.sub e.Declass.d_site 0 5 = "Leaky");
      Alcotest.(check bool)
        (e.Declass.d_site ^ " has a written justification")
        true
        (String.length e.Declass.d_why > 20))
    Declass.all

(* ---------------- dead-export audit ---------------- *)

let test_exports_flags_unused () =
  let mli =
    ( "lib/x/stack.mli",
      "val push : int -> unit\nval pop : unit -> int\nval peek : unit -> int\n\
       val dead : int\nval shown : unit -> unit\nval tested : int -> int\n\
       val oracle : int -> bool\n" )
  in
  let impls =
    [
      (* its own module's uses do not count *)
      ("lib/x/stack.ml", "let dead = 1\nlet peek () = dead\nlet tested x = x\n");
      (* a qualified use through a library prefix *)
      ("lib/y/a.ml", "let f () = Orq_x.Stack.push 1\n");
      (* an alias declared in one file, opened from another *)
      ("lib/y/util.ml", "module S = Orq_x.Stack\n");
      ("lib/y/b.ml", "open Util\nlet g () = S.pop ()\n");
      (* a bare name under a local open *)
      ("bench/c.ml", "let h () = Stack.(peek ())\n");
      (* examples/ is a reference root *)
      ("examples/demo.ml", "let () = Stack.shown ()\n");
    ]
  in
  (* test/ uses tell the two classes apart but never make a val live *)
  let tests =
    [ ("test/test_stack.ml", "let () = assert (Stack.tested 1 = 1 && Stack.oracle 2)\n") ]
  in
  let found ~keep =
    List.map
      (fun f -> (f.Exports.x_site, Exports.rule_label f.Exports.x_kind))
      (Exports.audit ~keep ~interfaces:[ mli ] ~impls ~tests ())
  in
  Alcotest.(check (list (pair string string)))
    "the unused export and the test-only ones"
    [
      ("Stack.dead", "dead-export");
      ("Stack.tested", "test-only-export");
      ("Stack.oracle", "test-only-export");
    ]
    (found ~keep:[]);
  (* a keep entry covers either class *)
  Alcotest.(check (list (pair string string)))
    "kept exports are not reported" [ ("Stack.tested", "test-only-export") ]
    (found ~keep:[ ("Stack.dead", "kept"); ("Stack.oracle", "kept") ]);
  (* an entry whose val is gone, or that now has a use outside test/, is
     stale and fails the audit *)
  let stale =
    List.filter_map
      (fun f ->
        match f.Exports.x_kind with
        | Exports.Stale_keep why -> Some (f.Exports.x_site, why)
        | _ -> None)
      (Exports.audit
         ~keep:[ ("Stack.gone", "kept"); ("Stack.push", "kept"); ("Other.gone", "kept") ]
         ~interfaces:[ mli ] ~impls ~tests ())
  in
  Alcotest.(check (list (pair string string)))
    "stale keep-list entries"
    [ ("Stack.push", "used outside test/"); ("Stack.gone", "no such val") ]
    stale

let test_exports_keep_list_is_justified () =
  List.iter
    (fun (site, why) ->
      Alcotest.(check bool) (site ^ " has a written reason") true
        (String.length why > 20))
    Exports.keep;
  Alcotest.(check int) "one entry per site"
    (List.length Exports.keep)
    (List.length (List.sort_uniq compare (List.map fst Exports.keep)))

(* ---------------- env-knob inventory ---------------- *)

(* Every environment variable the library, the executables and the
   benchmarks read, each with the reason it exists. A knob that forks
   control flow is a second path that tests must keep equivalent to the
   first, so a new "ORQ_..." literal under lib/, bin/ or bench/ fails this
   test until it is audited here. *)
let audited_env_knobs =
  [
    ("ORQ_SERVICE_ADMIT_MS", "how long a request may wait for admission: \
      deployment sizing");
    ("ORQ_SERVICE_DRAIN_MS", "graceful-stop drain deadline: deployment \
      sizing");
    ("ORQ_CHUNK_ROWS", "rows per chunk for out-of-core streaming; \
      certificates identical with chunking forced on");
    ("ORQ_MEM_BUDGET", "resident chunk-store budget that turns \
      out-of-core streaming on: deployment memory sizing");
    ("ORQ_DEBUG_CHECKS", "runtime invariant checks (lock ranks, width \
      sanity, index bounds); changes no value or tally");
    ("ORQ_DOMAINS", "local data-parallel domain count; tallies identical \
      across counts");
    ("ORQ_TRACE", "orq_cli dumps the recorded communication transcript \
      after the query; values and tallies unchanged");
  ]

(* Quoted "ORQ_..." literals in a source text; the bare prefix "ORQ_"
   (bench/e2e strips every ORQ_ setting from a child's environment) names
   no knob. *)
let env_literals src =
  let n = String.length src in
  let knob_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' in
  let rec go i acc =
    if i + 5 > n then acc
    else if String.sub src i 5 <> "\"ORQ_" then go (i + 1) acc
    else begin
      let j = ref (i + 1) in
      while !j < n && knob_char src.[!j] do incr j done;
      if !j < n && src.[!j] = '"' && !j > i + 5 then
        go (!j + 1) (String.sub src (i + 1) (!j - i - 1) :: acc)
      else go !j acc
    end
  in
  go 0 []

let test_env_knob_inventory () =
  (* tests run inside the build tree, where lib/ sits next to test/ *)
  let root = if Sys.file_exists "../lib/proto" then ".." else "." in
  let found =
    List.concat_map
      (fun dir ->
        let dir = Filename.concat root dir in
        Alcotest.(check bool) ("the scan sees " ^ dir) true
          (Sys.file_exists dir);
        List.concat_map
          (fun path -> env_literals (Lint.read_file path))
          (Lint.files ~suffix:".ml" dir))
      [ "lib"; "bin"; "bench" ]
    |> List.sort_uniq compare
  in
  List.iter
    (fun k ->
      if not (List.mem_assoc k audited_env_knobs) then
        Alcotest.failf "%s is read under lib/, bin/ or bench/ but not in the \
                        audited knob list" k)
    found;
  List.iter
    (fun (k, why) ->
      if not (List.mem k found) then
        Alcotest.failf "audited knob %s is no longer read under lib/, bin/ \
                        or bench/" k;
      Alcotest.(check bool) (k ^ " has a reason") true (String.length why > 20))
    audited_env_knobs

(* ---------------- recorder mechanics ---------------- *)

let test_recorder_ring_and_labels () =
  let c = Comm.create ~parties:3 in
  Comm.round c ~bits:10 ~messages:1;
  Alcotest.(check int) "no events recorded when off" 0
    (Array.length (Comm.transcript c));
  Comm.start_recording ~capacity:4 c;
  Comm.push_label c "op";
  Comm.push_label c "inner";
  Comm.round c ~bits:7 ~messages:3;
  Comm.pop_label c;
  Comm.traffic c ~bits:5 ~messages:1;
  Comm.pop_label c;
  let tr = Comm.transcript c in
  Alcotest.(check int) "two events" 2 (Array.length tr);
  Alcotest.(check string) "nested label" "op/inner" tr.(0).Comm.ev_label;
  Alcotest.(check string) "popped label" "op" tr.(1).Comm.ev_label;
  Alcotest.(check bool) "round event" true (tr.(0).Comm.ev_op = Comm.Round);
  Alcotest.(check int) "bits recorded" 7 tr.(0).Comm.ev_bits;
  (* ring overwrite: capacity 4, push 6 more *)
  for _ = 1 to 6 do
    Comm.round c ~bits:1 ~messages:1
  done;
  Alcotest.(check int) "dropped = recorded - capacity" 4
    (Comm.dropped_events c);
  Alcotest.(check int) "transcript truncated to capacity" 4
    (Array.length (Comm.transcript c));
  Comm.stop_recording c;
  Comm.push_label c "after";
  Comm.round c ~bits:1 ~messages:1;
  Alcotest.(check int) "stop halts recording" 4 (Comm.dropped_events c);
  Alcotest.(check string) "no label once stopped" "" (Comm.current_label c)

(* The transcript outlives [stop_recording] and goes with the next
   [start_recording]. *)
let test_transcript_after_stop () =
  let c = Comm.create ~parties:3 in
  Comm.start_recording ~capacity:2 c;
  Comm.push_label c "op";
  for b = 1 to 3 do
    Comm.round c ~bits:b ~messages:1
  done;
  let before = Comm.transcript c and dropped = Comm.dropped_events c in
  Comm.stop_recording c;
  Comm.round c ~bits:9 ~messages:1;
  Comm.pop_label c;
  let event_t = Alcotest.testable Comm.pp_event ( = ) in
  Alcotest.(check (array event_t)) "same events after stop" before
    (Comm.transcript c);
  Alcotest.(check int) "two events kept" 2 (Array.length before);
  Alcotest.(check string) "labelled" "op" before.(0).Comm.ev_label;
  Alcotest.(check int) "drops still answer" dropped (Comm.dropped_events c);
  Alcotest.(check int) "one dropped" 1 dropped;
  Comm.start_recording c;
  Alcotest.(check int) "next start empties it" 0
    (Array.length (Comm.transcript c));
  Alcotest.(check int) "and its drops" 0 (Comm.dropped_events c)

let test_transcript_diff () =
  let ev op r b m =
    {
      Comm.ev_op = op;
      ev_label = "";
      ev_rounds = r;
      ev_bits = b;
      ev_messages = m;
    }
  in
  let a = [| ev Comm.Round 1 8 2; ev Comm.Traffic 0 4 1 |] in
  Alcotest.(check bool) "equal transcripts" true (Comm.transcript_diff a a = None);
  let b = [| ev Comm.Round 1 8 2; ev Comm.Traffic 0 5 1 |] in
  (match Comm.transcript_diff a b with
  | Some (1, Some _, Some _) -> ()
  | _ -> Alcotest.fail "diff should localize to event 1");
  match Comm.transcript_diff a [| ev Comm.Round 1 8 2 |] with
  | Some (1, Some _, None) -> ()
  | _ -> Alcotest.fail "length mismatch should report early end"

(* ---------------- cost model vs metering ---------------- *)

let strip_labels =
  Array.map (fun (e : Comm.event) -> { e with Comm.ev_label = "" })

let record kind f =
  let ctx = Ctx.create ~seed:42 kind in
  Comm.start_recording ctx.Ctx.comm;
  f ctx;
  strip_labels (Comm.transcript ctx.Ctx.comm)

let check_predicted name kind predicted measured =
  Alcotest.(check (array event_t))
    (Printf.sprintf "%s [%s]" name (Ctx.kind_label kind))
    predicted (record kind measured)

let test_costmodel_primitives () =
  List.iter
    (fun kind ->
      List.iter
        (fun (w, n) ->
          let data = Array.init n (fun i -> (i * 7) land ((1 lsl w) - 1)) in
          check_predicted
            (Printf.sprintf "open w=%d n=%d" w n)
            kind
            (Primcost.open_ kind ~w ~n)
            (fun ctx -> ignore (Mpc.open_ ~width:w ctx (Mpc.share_b ctx data)));
          check_predicted
            (Printf.sprintf "band w=%d n=%d" w n)
            kind
            (Primcost.mul kind ~w ~n)
            (fun ctx ->
              let x = Mpc.share_b ctx data in
              ignore (Mpc.band ~width:w ctx x x));
          check_predicted
            (Printf.sprintf "bit_b2a n=%d" n)
            kind
            (Primcost.b2a kind ~w:1 ~n)
            (fun ctx ->
              ignore
                (Orq_circuits.Convert.bit_b2a ctx
                   (Share.pack_flags (Mpc.share_b ctx data))));
          check_predicted
            (Printf.sprintf "b2a w=%d n=%d" w n)
            kind
            (Primcost.b2a kind ~w ~n)
            (fun ctx ->
              ignore (Orq_circuits.Convert.b2a ~w ctx (Mpc.share_b ctx data)));
          check_predicted
            (Printf.sprintf "eq w=%d n=%d" w n)
            kind
            (Primcost.eq kind ~w ~n)
            (fun ctx ->
              let x = Mpc.share_b ctx data in
              ignore (Orq_circuits.Compare.eq ctx ~w x x));
          check_predicted
            (Printf.sprintf "lt w=%d n=%d" w n)
            kind
            (Primcost.lt kind ~w ~n)
            (fun ctx ->
              let x = Mpc.share_b ctx data in
              ignore (Orq_circuits.Compare.lt ctx ~w x x));
          check_predicted
            (Printf.sprintf "shuffle w=%d n=%d" w n)
            kind
            (Primcost.shuffle kind ~w ~n)
            (fun ctx ->
              ignore
                (Orq_shuffle.Permops.shuffle ~width:w ctx (Mpc.share_b ctx data))))
        [ (1, 16); (8, 33); (24, 100); (40, 7); (3, 5); (61, 9) ])
    Ctx.all_kinds

(* The adders' closed forms (the live carry positions of every Sklansky
   level, the generate AND at w - 1 bits, the opening of an A2B) against
   the metered transcripts, event for event, around the 2^k and 2^k + 1
   widths where the prefix depth steps and the packed-word lane lengths. *)
let test_costmodel_adders () =
  let module Adder = Orq_circuits.Adder in
  let ell = (Ctx.create Ctx.Sh_hm).Ctx.ell in
  List.iter
    (fun kind ->
      List.iter
        (fun w ->
          List.iter
            (fun n ->
              let data salt =
                Array.init n (fun i ->
                    ((i * 2654435761) + salt) land Orq_util.Ring.mask w)
              in
              let b ctx salt = Mpc.share_b ctx (data salt) in
              List.iter
                (fun (what, predicted, f) ->
                  check_predicted
                    (Printf.sprintf "%s w=%d n=%d" what w n)
                    kind predicted
                    (fun ctx -> ignore (f ctx)))
                [
                  ("add", Primcost.add kind ~w ~n, fun ctx -> Adder.add ctx ~w (b ctx 1) (b ctx 2));
                  ("sub", Primcost.add kind ~w ~n, fun ctx -> Adder.sub ctx ~w (b ctx 1) (b ctx 2));
                  ( "add_carry",
                    Primcost.add kind ~w ~n,
                    fun ctx ->
                      Adder.add_carry ctx ~w (b ctx 1) (b ctx 2)
                        (Share.pack_flags (Mpc.share_b ctx (Array.map (fun v -> v land 1) (data 4)))) );
                  ( "a2b",
                    Primcost.a2b kind ~ell ~w ~n,
                    fun ctx -> Orq_circuits.Convert.a2b ~w ctx (Mpc.share_a ctx (data 3)) );
                ])
            [ 1; 63; 64; 1025 ])
        [ 1; 2; 3; 5; 8; 9; 16; 17; 31; 33; 37; 46; 63 ])
    Ctx.all_kinds

(* Full-width and single-bit B2A both draw one daBit correlation for all
   their bits: one preprocessing event of 2·nvec·w·n·(ℓ+1) bits and one
   message per party. *)
let test_b2a_preproc_metering () =
  List.iter
    (fun kind ->
      List.iter
        (fun (w, n) ->
          let check name f =
            let ctx = Ctx.create ~seed:42 kind in
            let x =
              Mpc.share_b ctx
                (Array.init n (fun i -> (i * 2654435761) land Orq_util.Ring.mask w))
            in
            Comm.start_recording ctx.Ctx.preproc;
            f ctx x;
            Alcotest.(check (array event_t))
              (Printf.sprintf "%s w=%d n=%d [%s]" name w n (Ctx.kind_label kind))
              [|
                {
                  Comm.ev_op = Comm.Round;
                  ev_label = "";
                  ev_rounds = 1;
                  ev_bits = 2 * ctx.Ctx.nvec * w * n * (ctx.Ctx.ell + 1);
                  ev_messages = ctx.Ctx.parties;
                };
              |]
              (strip_labels (Comm.transcript ctx.Ctx.preproc))
          in
          check "b2a" (fun ctx x -> ignore (Orq_circuits.Convert.b2a ~w ctx x));
          if w = 1 then
            check "bit_b2a" (fun ctx x ->
                ignore (Orq_circuits.Convert.bit_b2a ctx (Share.pack_flags x))))
        [ (1, 0); (1, 130); (2, 63); (40, 7); (62, 64); (63, 127) ])
    Ctx.all_kinds

let test_costmodel_arith_mul () =
  List.iter
    (fun kind ->
      let n = 50 in
      check_predicted "arith mul" kind
        (Primcost.mul kind ~w:64 ~n)
        (fun ctx ->
          let x = Mpc.share_a ctx (Array.init n (fun i -> i)) in
          ignore (Mpc.mul ctx x x)))
    Ctx.all_kinds

(* The two GROUP BY paths against their closed forms and the compaction
   against the runs it must total, under every protocol. *)
let agg_path_ns = [ 2; 5; 17; 64; 300; 3000 ]

(* One digit's ranking ([Genbitperm.gen_digit]) against its closed
   form, event for event, over row counts either side of the index-width
   steps and every digit width. The destinations must still be the
   stable digit sort. *)
let test_costmodel_rank_digit () =
  List.iter
    (fun kind ->
      List.iter
        (fun (l, n) ->
          let digits = Array.init n (fun i -> ((i * 5) + (i / 3)) land ((1 lsl l) - 1)) in
          let dest = ref [||] in
          check_predicted
            (Printf.sprintf "rank_digit l=%d n=%d" l n)
            kind
            (Primcost.rank_digit kind ~l ~n)
            (fun ctx ->
              let d = Mpc.share_b ctx digits in
              dest :=
                Share.reconstruct
                  (Orq_sort.Genbitperm.gen_digit ctx
                     (Array.init l (fun j -> Mpc.extract_bit_f d j))));
          let order = Array.init n Fun.id in
          Array.stable_sort (fun i j -> compare digits.(i) digits.(j)) order;
          let want = Array.make n 0 in
          Array.iteri (fun r i -> want.(i) <- r) order;
          Alcotest.(check (array int))
            (Printf.sprintf "rank_digit l=%d n=%d [%s] values" l n (Ctx.kind_label kind))
            want !dest)
        (List.concat_map (fun l -> List.map (fun n -> (l, n)) [ 1; 2; 3; 8; 9; 40; 64; 65 ]) [ 1; 2; 3 ]))
    Ctx.all_kinds

(* TableSort's two radix paths: each path forced through
   [Tablesort.sort_cols ~radix] meters exactly its closed form
   ([Primcost.tablesort_carry], [Primcost.tablesort_sigma]) over the digit
   schedule of the packed key, written out independently in
   {!Radix_cost.digits} (and equal to [Radixsort.digits]). Shapes: 1-3
   keys of widths 1..32 (one and two 60-bit words) and 0-4 payload
   columns, under every protocol. *)
let test_costmodel_tablesort_paths () =
  let module T = Orq_core.Tablesort in
  let shapes =
    [
      ([ 1 ], []);
      ([ 32 ], [ 8; 8; 8; 8 ]);
      ([ 5; 12 ], [ 1 ]);
      ([ 1; 32; 32 ], [ 24; 3 ]);
      ([ 7; 3; 2 ], [ 60; 1; 13 ]);
      ([ 20 ], [ 2; 64 ]);
    ]
  in
  let tally_t =
    Alcotest.testable
      (fun ppf (t : Comm.tally) ->
        Fmt.pf ppf "%d rounds, %d bits, %d messages" t.Comm.t_rounds t.t_bits t.t_messages)
      ( = )
  in
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          List.iter
            (fun (keys, payload) ->
              let tag what =
                Printf.sprintf "%s n=%d keys=[%s] payload=[%s] [%s]" what n
                  (String.concat ";" (List.map string_of_int keys))
                  (String.concat ";" (List.map string_of_int payload))
                  (Ctx.kind_label kind)
              in
              let digits = Radix_cost.digits kind keys in
              Alcotest.(check (list int)) (tag "digits") digits
                (Orq_sort.Radixsort.digits kind
                   (List.rev
                      (let rec words r = if r <= 60 then [ r ] else 60 :: words (r - 60) in
                       words (List.fold_left ( + ) 0 keys))));
              let run path =
                let ctx = Ctx.create ~seed:47 kind in
                let col i w =
                  Share.wrap
                    (Mpc.share_b ctx
                       (Array.init n (fun r -> ((r * 2654435761) + (i * 40503)) land Orq_util.Ring.mask (min w 62))))
                in
                let ks = List.mapi (fun i w -> (col i w, w, T.Asc)) keys in
                let ps = List.mapi (fun i w -> (col (10 + i) w, w)) payload in
                let before = Comm.snapshot ctx.Ctx.comm in
                ignore (T.sort_cols ctx ~radix:path ~keys:ks ps);
                Comm.since ctx.Ctx.comm before
              in
              Alcotest.check tally_t (tag "carry")
                (Primcost.tablesort_carry kind ~n ~digits ~keys ~payload)
                (run T.Carry);
              Alcotest.check tally_t (tag "sigma")
                (Primcost.tablesort_sigma kind ~n ~digits ~keys ~payload)
                (run T.Sigma))
            shapes)
        [ 2; 7; 300; 3000 ])
    Ctx.all_kinds

(* [Dataflow.aggregate_by] on each path, less its sort, against the
   closed forms [Primcost.aggnet] and [Primcost.aggcompact] (source
   conversion, ladders, totals, and the finish: the A2B of the totals
   and AVG's division, at n rows on the network and at the group bound
   after compaction), over a grid of protocol, row count, key domains
   and an optional carried non-key column, some cells with a group
   bound below the row count. Then the
   compaction alone ([Aggnet.compact]) on a table of n rows in runs of
   equal (validity, k1, k2): its totals must be the runs' sums and
   sizes, in order. *)
let test_costmodel_agg_paths () =
  let module Aggnet = Orq_core.Aggnet in
  let module Table = Orq_core.Table in
  let module Column = Orq_core.Column in
  let module Dataflow = Orq_core.Dataflow in
  let module Tablesort = Orq_core.Tablesort in
  let module Dom = Orq_core.Dom in
  let tally_t =
    Alcotest.testable
      (fun ppf (t : Comm.tally) ->
        Fmt.pf ppf "%d rounds, %d bits, %d messages" t.Comm.t_rounds t.t_bits t.t_messages)
      ( = )
  in
  List.iter
    (fun kind ->
      List.iter
        (fun (n, doms, carried) ->
          let table ctx =
            let t =
              Table.create ctx "t"
                ~valid:(Array.init n (fun i -> if i mod 5 = 2 then 0 else 1))
                ([
                   ("x", 12, Array.init n (fun i -> (i * 7919) land 0xfff));
                   ("y", 7, Array.init n (fun i -> (i * 31) land 0x7f));
                 ]
                @ List.mapi
                    (fun j (d : Dom.t) ->
                      ( Printf.sprintf "k%d" j,
                        Dom.width d,
                        Array.init n (fun i ->
                            (d.Dom.lo + ((i / (j + 1)) mod (d.Dom.hi - d.Dom.lo + 1)))
                            land Orq_util.Ring.mask (Dom.width d)) ))
                    doms)
            in
            List.fold_left
              (fun t (j, d) ->
                let k = Printf.sprintf "k%d" j in
                Table.set_col t k (Column.with_dom (Table.find t k) d))
              t
              (List.mapi (fun j d -> (j, d)) doms)
          in
          let keys = List.mapi (fun j _ -> Printf.sprintf "k%d" j) doms in
          let carry = if carried then [ "y" ] else [] in
          let aggs =
            [
              { Dataflow.src = "x"; dst = "s"; fn = Dataflow.Sum };
              { Dataflow.src = "x"; dst = "c"; fn = Dataflow.Count };
              { Dataflow.src = "x"; dst = "a"; fn = Dataflow.Avg };
            ]
          in
          let measure f =
            let ctx = Ctx.create ~seed:42 kind in
            let t = table ctx in
            let before = Comm.snapshot ctx.Ctx.comm in
            let r = f t in
            (r, Comm.since ctx.Ctx.comm before)
          in
          let _, sort =
            measure (fun t ->
                Tablesort.sort ~valid:Tablesort.Asc
                  (Table.project t (keys @ carry @ [ "x" ]))
                  (List.map (fun k -> (k, Tablesort.Asc)) keys))
          in
          let less (t : Comm.tally) =
            {
              Comm.t_rounds = t.t_rounds - sort.t_rounds;
              t_bits = t.t_bits - sort.t_bits;
              t_messages = t.t_messages - sort.t_messages;
            }
          in
          let bound =
            List.fold_left (fun b (d : Dom.t) -> b * (d.Dom.hi - d.Dom.lo + 1)) 1 doms
          in
          let tag what =
            Printf.sprintf "%s n=%d bound=%d carry=%b [%s]" what n bound carried
              (Ctx.kind_label kind)
          in
          let keys_w = 1 :: List.map Dom.width doms in
          let rows = Dom.width (Dom.v 0 n) in
          let sum_w = Dom.width (Dom.sum ~n (Dom.of_width 12)) in
          let finish =
            { Primcost.f_ell = 64; f_totals = [ sum_w; rows ]; f_divs = [ (12, sum_w, rows) ] }
          in
          List.iter
            (fun path ->
              let out, measured =
                measure (fun t -> Dataflow.aggregate_by path ~carry t ~keys ~aggs)
              in
              let predicted =
                match path with
                | Dataflow.Network ->
                    Primcost.aggnet kind ~n ~keys:keys_w ~conv:[ 12 ] ~sums:[ sum_w; rows ]
                      ~finish
                | Dataflow.Compaction ->
                    Primcost.aggcompact kind ~n ~bound:(min n bound) ~keys:keys_w ~conv:[ 12 ]
                      ~sums:[ sum_w ] ~local:1
                      ~moved:(List.fold_left ( + ) 0 keys_w + if carried then 7 else 0)
                      ~finish
              in
              let label = match path with Dataflow.Network -> "network" | Dataflow.Compaction -> "compaction" in
              Alcotest.check tally_t (tag label) predicted (less measured);
              Alcotest.(check int) (tag (label ^ " rows"))
                (match path with Dataflow.Network -> n | Dataflow.Compaction -> min n bound)
                (Table.nrows out))
            [ Dataflow.Network; Dataflow.Compaction ])
        [
          (2, [ Dom.v 0 1023; Dom.v 0 3 ], true);
          (5, [ Dom.v 0 2 ], false);
          (17, [ Dom.v 0 2; Dom.v 0 1 ], true);
          (64, [ Dom.v 0 1023; Dom.v 0 3 ], false);
          (64, [ Dom.v (-3) 3 ], false);
          (300, [ Dom.v 0 6; Dom.v 0 24 ], false);
          (300, [ Dom.v 0 2; Dom.v 0 1 ], true);
          (3000, [ Dom.v 0 1023; Dom.v 0 3 ], true);
          (3000, [ Dom.v 0 6; Dom.v 0 24 ], true);
        ];
      List.iter
        (fun n ->
          let tag what = Printf.sprintf "%s n=%d [%s]" what n (Ctx.kind_label kind) in
          let v = Array.init n (fun i -> if i < n / 5 then 0 else 1) in
          let k1 = Array.init n (fun i -> i / 3) in
          let k2 = Array.init n (fun i -> i / 2 land 3) in
          let x = Array.init n (fun i -> (i * 7919) land 0xfff) in
          let ctx = Ctx.create ~seed:42 kind in
          let keys = List.map2 (fun a w -> (Mpc.share_b ctx a, w)) [ v; k1; k2 ] [ 1; 10; 2 ] in
          let last = Aggnet.last_of_group_bits ctx ~keys in
          let totals, last, _ =
            Aggnet.compact ctx ~last
              [ Aggnet.Prefix (Mpc.share_a ctx x, 24); Aggnet.Rows ]
              (List.map (fun (k, w) -> (Share.wrap k, w)) keys)
          in
          (* each total is defined modulo 2^w for its lane's width *)
          let totals =
            List.map2
              (fun t w -> Array.map (fun v -> v land Orq_util.Ring.mask w) (Share.reconstruct t))
              totals
              [ 24; Orq_util.Ring.index_bits (n + 1) ]
          in
          let last = Share.reconstruct_flags last in
          (* the runs' sums and sizes, in order *)
          let runs = ref [] in
          Array.iteri
            (fun i xi ->
              match !runs with
              | (key, s, c) :: rest when key = (v.(i), k1.(i), k2.(i)) ->
                  runs := (key, s + xi, c + 1) :: rest
              | _ -> runs := ((v.(i), k1.(i), k2.(i)), xi, 1) :: !runs)
            x;
          let ends f =
            List.filteri (fun i _ -> Orq_util.Bits.get last i = 1) (Array.to_list f)
          in
          Alcotest.(check (list int)) (tag "sums")
            (List.rev_map (fun (_, s, _) -> s) !runs)
            (ends (List.nth totals 0));
          Alcotest.(check (list int)) (tag "counts")
            (List.rev_map (fun (_, _, c) -> c) !runs)
            (ends (List.nth totals 1)))
        agg_path_ns)
    Ctx.all_kinds

(* The fused openings: a sharded-permutation application that opens
   some of its lanes, Protocol 5 (whose index vector opens that way) and
   the lexicographic less-than opened in its last AND round. Predicted =
   measured event for event under every protocol, around the word and
   chunk-size boundaries, and the opened values equal the plaintext
   result. *)
let fused_ns = [ 1; 2; 3; 63; 64; 65; 1023; 1024; 1025 ]

let test_costmodel_fused_openings () =
  let vec = Alcotest.(array int) in
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let tag what = Printf.sprintf "%s n=%d [%s]" what n (Ctx.kind_label kind) in
          let data w salt =
            Array.init n (fun i -> ((i * 2654435761) + salt) land ((1 lsl w) - 1))
          in
          let iw = Orq_util.Ring.index_bits n in
          (* two opened lanes (a 9-bit column and an index vector) and a
             reshared 5-bit column under one application *)
          let a = data 9 1 and b = data 5 2 in
          let rho = Orq_shuffle.Localperm.random (Orq_util.Prg.create 5) n in
          let opened = ref [] and moved = ref [] and perm = ref [||] in
          check_predicted (tag "apply_open") kind
            (Primcost.shuffle_open kind ~w:5 ~opened:[ 9; iw ] ~n)
            (fun ctx ->
              let p = Orq_shuffle.Shardedperm.gen ctx n in
              perm := Orq_shuffle.Shardedperm.plaintext p;
              let vs, cs =
                Orq_shuffle.Shardedperm.apply_open ctx
                  ~opened:
                    [
                      (Share.wrap (Mpc.share_b ctx a), 9);
                      (Share.wrap (Mpc.share_a ctx rho), iw);
                    ]
                  [ (Share.wrap (Mpc.share_b ctx b), 5) ]
                  p
              in
              opened := vs;
              moved := List.map Share.reconstruct_c cs);
          let permuted x = Orq_util.Vec.scatter x !perm in
          Alcotest.(check (list vec)) (tag "opened lanes")
            [ permuted a; permuted rho ] !opened;
          Alcotest.(check (list vec)) (tag "reshared lane") [ permuted b ] !moved;
          (* Protocol 5 on a 13-bit column *)
          let c = data 13 3 in
          let out = ref [] in
          check_predicted (tag "applyperm") kind
            (Primcost.applyperm kind ~w:13 ~n)
            (fun ctx ->
              out :=
                List.map Share.reconstruct_c
                  (Orq_shuffle.Permops.apply_elementwise_table ctx
                     [ (Share.wrap (Mpc.share_b ctx c), 13) ]
                     (Mpc.share_b ctx rho)));
          Alcotest.(check (list vec)) (tag "applyperm values")
            [ Orq_util.Vec.scatter c rho ] !out;
          (* lexicographic less-than, opened, over one to five columns *)
          List.iter
            (fun ws ->
              let cols =
                List.mapi (fun k w -> (w, data w (10 * k), data w ((10 * k) + 7))) ws
              in
              (* ties on the leading column exercise the later ones *)
              let cols =
                List.mapi
                  (fun k (w, x, y) ->
                    if k = 0 then (w, x, Array.mapi (fun i v -> if i mod 3 = 0 then x.(i) else v) y)
                    else (w, x, y))
                  cols
              in
              let want =
                Array.init n (fun i ->
                    let rec go = function
                      | [] -> 0
                      | (_, x, y) :: rest ->
                          if x.(i) < y.(i) then 1
                          else if x.(i) > y.(i) then 0
                          else go rest
                    in
                    go cols)
              in
              let got = ref [||] in
              let name =
                "lt_lex_open ws=" ^ String.concat "," (List.map string_of_int ws)
              in
              check_predicted (tag name) kind
                (Primcost.lt_lex_open kind ~ws ~n)
                (fun ctx ->
                  let bits =
                    Orq_circuits.Compare.lt_lex_open ctx
                      (List.map
                         (fun (w, x, y) -> (Mpc.share_b ctx x, Mpc.share_b ctx y, w))
                         cols)
                  in
                  got := Array.init n (Orq_util.Bits.get bits));
              Alcotest.(check vec) (tag (name ^ " values")) want !got)
            [
              [ 1 ]; [ 2 ]; [ 7 ]; [ 40 ]; [ 61 ]; [ 12; iw ]; [ 6; 61 ]; [ 1; 30; 5 ];
              [ 3; 9; 17; 2 ]; [ 5; 5; 5; 5; 5 ];
            ])
        fused_ns)
    Ctx.all_kinds

(* ---------------- certifier ---------------- *)

let test_certify_queries () =
  (* one representative TPC-H query + one prior-work query under all three
     protocols at a small scale: predicted (shape twin) == measured *)
  let certs =
    Certify.run_suite ~sf:0.0002 ~other_n:120
      ~names:[ "Q6"; "Aspirin" ] ()
  in
  Alcotest.(check int) "2 queries x 3 protocols" 6 (List.length certs);
  List.iter
    (fun (c : Certify.cert) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s certified" c.Certify.c_query c.Certify.c_protocol)
        true c.Certify.c_ok;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s validated" c.Certify.c_query c.Certify.c_protocol)
        true c.Certify.c_validated;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s nonempty" c.Certify.c_query c.Certify.c_protocol)
        true (c.Certify.c_events > 0))
    certs

(* The whole registry under one protocol: both catalogs, every query,
   one row each (over a smaller prior-work dataset than the committed
   certificates). *)
let test_certify_suite_rows () =
  let certs =
    Certify.run_suite ~sf:0.0002 ~other_n:120 ~kinds:[ Ctx.Sh_dm ] ()
  in
  Alcotest.(check int) "36 rows under one protocol" 36 (List.length certs);
  Alcotest.(check bool) "all certified and validated" true (Certify.all_ok certs)

(* The quicksort branch of the certifier: an ORDER BY whose key domain is
   wider than 32 bits sorts with quicksort, whose opened comparisons
   follow the data. All-equal keys (measured) against distinct keys
   (predicted) certify only modulo the quarantined quicksort events, and
   a divergence outside them is still caught. *)
let test_certify_quicksort_branch () =
  let n = 24 in
  let order_by ctx keys =
    let t =
      Orq_core.Table.create ctx "t"
        [ ("k", 40, keys); ("v", 8, Array.init n (fun i -> i)) ]
    in
    let sorted = Orq_core.Dataflow.order_by t [ ("k", Orq_core.Dataflow.Asc) ] in
    (t, sorted)
  in
  let equal_keys = Array.make n (1 lsl 35)
  and distinct_keys = Array.init n (fun i -> (1 lsl 35) + ((i * 7919) mod 1013)) in
  let measured ctx =
    let t, sorted = order_by ctx equal_keys in
    let cols = [ "k"; "v" ] in
    Orq_core.Table.valid_rows_sorted sorted cols
    = Orq_core.Table.valid_rows_sorted t cols
  in
  let predicted ctx = ignore (order_by ctx distinct_keys) in
  List.iter
    (fun kind ->
      let lbl = Ctx.kind_label kind in
      let c = Certify.certify_one ~query:"orderby-wide" ~kind ~measured ~predicted in
      let ctx = Ctx.create ~seed:5 kind in
      let _, tr, _ = Certify.record ctx (fun () -> measured ctx) in
      Alcotest.(check bool) (lbl ^ " quicksort events present") true
        (Array.exists Certify.quicksort_event tr);
      Alcotest.(check string) (lbl ^ " mode") "modulo-quicksort"
        (Certify.mode_label c.Certify.c_mode);
      Alcotest.(check bool) (lbl ^ " certified") true c.Certify.c_ok;
      Alcotest.(check bool) (lbl ^ " validated") true c.Certify.c_validated;
      (* an extra open outside the quicksort label *)
      let leaky =
        Certify.certify_one ~query:"orderby-wide-leak" ~kind ~measured
          ~predicted:(fun ctx ->
            predicted ctx;
            ignore (Mpc.open_ ctx (Mpc.share_b ctx [| 1 |])))
      in
      Alcotest.(check bool) (lbl ^ " extra open rejected") false leaky.Certify.c_ok;
      Alcotest.(check bool) (lbl ^ " rejected outside quicksort") true
        (Certify.contains ~sub:"quicksort-projected" leaky.Certify.c_detail))
    Ctx.all_kinds

let test_certify_catches_shape_leak () =
  (* sanity that the certifier can fail: two runs whose traces differ in
     payload size (as if a branch skipped work) must not certify *)
  let c =
    Certify.certify_one ~query:"seeded-leak" ~kind:Ctx.Sh_hm
      ~measured:(fun ctx ->
        let x = Mpc.share_b ctx (Array.init 8 (fun i -> i)) in
        ignore (Mpc.band ctx x x);
        true)
      ~predicted:(fun ctx ->
        let x = Mpc.share_b ctx (Array.init 9 (fun i -> i)) in
        ignore (Mpc.band ctx x x))
  in
  Alcotest.(check bool) "shape difference rejected" false c.Certify.c_ok;
  Alcotest.(check bool) "divergence localized" true
    (String.length c.Certify.c_detail > 0)

(* certdiff reads back what the certifier writes: every row's flags and
   counts survive, and a detail string with JSON escapes parses. *)
let test_report_round_trip () =
  let cert q p ok validated (r, b, m, e) detail =
    {
      Certify.c_query = q;
      c_protocol = p;
      c_mode = Certify.Exact;
      c_ok = ok;
      c_validated = validated;
      c_events = e;
      c_tally = { Comm.t_rounds = r; t_bits = b; t_messages = m };
      c_detail = detail;
    }
  in
  let certs =
    [
      cert "Q1" "SH-DM" true true (403, 83437654, 1466, 760) "";
      cert "C.Diff" "Mal-HM" false true (7, 8, 9, 10) "event 3: \"Round\"\tvs\nBarrier";
    ]
  in
  let path = Filename.temp_file "cert" ".json" in
  let text = Certify.report_json certs in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let rows = Certify.read_report path in
  Sys.remove path;
  (* the detail's tab and newline are written as escapes, so the report
     stays valid JSON, and the detail reads back unchanged *)
  Alcotest.(check bool) "no raw control byte in the detail" true
    (Certify.contains ~sub:"\\\"Round\\\"\\tvs\\nBarrier" text);
  let details =
    match Certify.parse_json text with
    | Certify.Obj top -> (
        match List.assoc "certificates" top with
        | Certify.Arr rs ->
            List.map
              (function
                | Certify.Obj r -> List.assoc "detail" r
                | _ -> Certify.Null)
              rs
        | _ -> [])
    | _ -> []
  in
  Alcotest.(check bool) "detail reads back" true
    (details
    = [ Certify.Str ""; Certify.Str "event 3: \"Round\"\tvs\nBarrier" ]);
  Alcotest.(check (list (pair string string))) "keys"
    [ ("Q1", "SH-DM"); ("C.Diff", "Mal-HM") ]
    (List.map fst rows);
  let r = List.assoc ("C.Diff", "Mal-HM") rows in
  Alcotest.(check (list int)) "counts (rounds, bits, messages, events)" [ 7; 8; 9; 10 ]
    r.Certify.r_counts;
  Alcotest.(check (pair bool bool)) "flags" (false, true)
    (r.Certify.r_certified, r.Certify.r_validated)

let test_twin_preserves_shape_only () =
  let p =
    Orq_plaintext.Ptable.create [ "a"; "b" ] [ [ 10; 20 ]; [ 30; 40 ] ]
  in
  let dom = Orq_core.Dom.v in
  let t = Certify.twin_ptable [ ("b", dom 2 5); ("a", dom 100 4195) ] p in
  Alcotest.(check (list string)) "schema kept" p.Orq_plaintext.Ptable.schema
    t.Orq_plaintext.Ptable.schema;
  Alcotest.(check int) "rows kept" 2 (Orq_plaintext.Ptable.nrows t);
  Alcotest.(check bool) "values replaced" true
    (p.Orq_plaintext.Ptable.rows <> t.Orq_plaintext.Ptable.rows);
  List.iter
    (fun row ->
      match row with
      | [ a; b ] ->
          Alcotest.(check bool) "a inside [100, 4195]" true (a >= 100 && a <= 4195);
          Alcotest.(check bool) "b inside [2, 5]" true (b >= 2 && b <= 5)
      | _ -> Alcotest.fail "arity")
    t.Orq_plaintext.Ptable.rows

let suite =
  [
    Alcotest.test_case "lint flags seeded violations" `Quick
      test_lint_flags_seeded_violations;
    Alcotest.test_case "lint passes clean code" `Quick
      test_lint_clean_code_passes;
    Alcotest.test_case "lint follows opened values into callbacks" `Quick
      test_lint_follows_callbacks;
    Alcotest.test_case "lint reports stale allowlist entries" `Quick
      test_lint_reports_stale_entries;
    Alcotest.test_case "allowlist entries are justified" `Quick
      test_lint_audited_tree_is_registered;
    Alcotest.test_case "env knobs are audited" `Quick test_env_knob_inventory;
    Alcotest.test_case "exports flags unused vals" `Quick
      test_exports_flags_unused;
    Alcotest.test_case "exports keep-list entries are justified" `Quick
      test_exports_keep_list_is_justified;
    Alcotest.test_case "recorder ring + label stack" `Quick
      test_recorder_ring_and_labels;
    Alcotest.test_case "transcript readable after stop" `Quick
      test_transcript_after_stop;
    Alcotest.test_case "transcript diff localizes" `Quick test_transcript_diff;
    Alcotest.test_case "cost model: boolean primitives" `Quick
      test_costmodel_primitives;
    Alcotest.test_case "b2a preprocessing: one daBit event" `Quick
      test_b2a_preproc_metering;
    Alcotest.test_case "cost model: arithmetic mul" `Quick
      test_costmodel_arith_mul;
    Alcotest.test_case "cost model: adders" `Quick test_costmodel_adders;
    Alcotest.test_case "cost model: fused openings" `Quick
      test_costmodel_fused_openings;
    Alcotest.test_case "cost model: digit ranking" `Quick
      test_costmodel_rank_digit;
    Alcotest.test_case "cost model: GROUP BY paths" `Quick
      test_costmodel_agg_paths;
    Alcotest.test_case "cost model: TableSort paths" `Quick
      test_costmodel_tablesort_paths;
    Alcotest.test_case "certifier: live queries" `Slow test_certify_queries;
    Alcotest.test_case "certifier: whole registry" `Slow test_certify_suite_rows;
    Alcotest.test_case "certifier: rejects shape leak" `Quick
      test_certify_catches_shape_leak;
    Alcotest.test_case "certifier: quicksort branch" `Quick
      test_certify_quicksort_branch;
    Alcotest.test_case "shape twin" `Quick test_twin_preserves_shape_only;
    Alcotest.test_case "certificate report reads back" `Quick test_report_round_trip;
  ]

let () = Alcotest.run "orq_analysis" [ ("analysis", suite) ]
