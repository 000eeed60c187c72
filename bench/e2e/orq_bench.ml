(* orq_bench — the repository benchmark (bench/e2e/README.md).

     orq_bench --workload W --seed N --seconds S --trace 0|1
         one workload; prints one JSON result as the last stdout line
     orq_bench run [--seed N] [--runs R] [--seconds S] [--workload W ...] [--out F]
         every workload untraced, R times (default 5, seeds N, N+1, ...);
         prints the end-to-end metrics, writes their medians and spreads
         to F (default .bench_out/run.json)
     orq_bench trace [--seed N] [--runs R] [--seconds S] [--workload W ...] [--out F]
         every workload traced (R default 1); prints the per-layer metrics
         and writes them with every workload's spans to F (default
         .bench_out/trace.json)
     orq_bench compare OLD.json NEW.json
         applies the bounds of BENCHMARK.json to two `run` files
     orq_bench seeds --workload W [--runs N]
         scans N catalog seeds for W's table in catalog.ml

   Each workload runs in a re-executed child process with ORQ_DOMAINS=1
   (OCaml 5 cannot fork once domains run, and a fresh process gives each
   workload its own peak RSS). Everything the benchmark writes stays under
   .bench_out/ in the working directory. *)

let out_dir = ".bench_out"
let tmp_dir = Filename.concat out_dir "tmp"

let workloads =
  [
    ("tpch-mem", Wl_tpch.run Wl_tpch.mem);
    ("tpch-spill", Wl_tpch.run Wl_tpch.spill);
    ("service-mix", Wl_service.run);
    ("cluster-2pc", Wl_cluster.run);
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("orq_bench: " ^ s); exit 2) fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

type args = {
  mutable workload : string list;  (** repeated --workload, in order *)
  mutable seed : int;
  mutable seconds : float option;
  mutable runs : int option;
  mutable trace : bool;
  mutable out : string option;
  mutable rest : string list;  (** positional arguments *)
}

let parse argv =
  let a =
    {
      workload = [];
      seed = 1;
      seconds = None;
      runs = None;
      trace = false;
      out = None;
      rest = [];
    }
  in
  let int_arg f v = match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %S" f v in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: tl -> a.workload <- a.workload @ [ v ]; go tl
    | "--seed" :: v :: tl -> a.seed <- int_arg "--seed" v; go tl
    | "--seconds" :: v :: tl -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> a.seconds <- Some s; go tl
        | _ -> die "--seconds: not a positive number: %S" v)
    | "--runs" :: v :: tl ->
        a.runs <- Some (max 1 (int_arg "--runs" v));
        go tl
    | "--trace" :: v :: tl -> (
        match v with
        | "0" -> a.trace <- false; go tl
        | "1" -> a.trace <- true; go tl
        | _ -> die "--trace takes 0 or 1, not %S" v)
    | "--out" :: v :: tl -> a.out <- Some v; go tl
    | f :: _ when String.length f > 2 && String.sub f 0 2 = "--" -> die "unknown or incomplete option %s" f
    | p :: tl -> a.rest <- a.rest @ [ p ]; go tl
  in
  go argv;
  List.iter
    (fun w -> if not (List.mem_assoc w workloads) then die "unknown workload %S" w)
    a.workload;
  a

let seconds_of (a : args) = match a.seconds with Some s -> s | None -> Spec.run_seconds ()
let trace_path w = Filename.concat out_dir ("trace-" ^ w ^ ".json")

(* ------------------------------------------------------------------ *)
(* The child: one workload                                             *)
(* ------------------------------------------------------------------ *)

let child (a : args) =
  (* own process group, so the parent can reap party processes too *)
  ignore (Unix.setsid ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Filename.set_temp_dir_name tmp_dir;
  Orq_util.Parallel.init_from_env ();
  let w = match a.workload with [ w ] -> w | _ -> die "child: one --workload" in
  let out = match a.out with Some o -> o | None -> die "child: --out" in
  (* the run's seconds include its set-ups *)
  let until = Common.now () +. seconds_of a in
  let trace_file = if a.trace then Some (trace_path w) else None in
  let r = (List.assoc w workloads) ~seed:a.seed ~until ~trace_file in
  Json.to_file out (Common.result_json ~seed:a.seed ~trace:a.trace r)

(* The running child's process group (the child calls setsid), killed
   with everything in it: on overrun, after the child ends, and when this
   process is interrupted or terminated. *)
let child_group = ref None

let kill_child_group () =
  match !child_group with
  | Some pid -> ( try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ())
  | None -> ()

(* In the parent only: the child's processes (party processes included)
   inherit handlers, and must keep the default ones. *)
let forward_signals () =
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             kill_child_group ();
             exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ]

(* Run one workload in a child process and return its result, or an error
   if it failed or overran [limit] seconds. The child's environment has
   ORQ_DOMAINS=1 and no other ORQ_ setting, so the caller's cannot change
   what is measured. *)
let run_child ~workload ~seed ~seconds ~trace ~limit =
  let out = Filename.concat out_dir (Printf.sprintf "result-%s-%d.json" workload (Unix.getpid ())) in
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    (out :: (if trace then [ trace_path workload ] else []));
  let argv =
    [ Sys.executable_name; "child"; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%.17g" seconds; "--trace"; (if trace then "1" else "0");
      "--out"; out ]
  in
  let env =
    Array.append [| "ORQ_DOMAINS=1" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.length kv >= 4 && String.sub kv 0 4 = "ORQ_"))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env Sys.executable_name (Array.of_list argv) env Unix.stdin Unix.stderr
      Unix.stderr
  in
  child_group := Some pid;
  let deadline = Common.now () +. limit in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Common.now () < deadline ->
        Unix.sleepf 0.05;
        wait ()
    | 0, _ -> None
    | _, st -> Some st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  (* kill whatever is left of the group; wait until it is empty *)
  let rec reap k =
    match Unix.kill (-pid) Sys.sigkill with
    | exception Unix.Unix_error _ -> ()
    | () ->
        (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid) with Unix.Unix_error _ -> ());
        if k > 0 then begin
          Unix.sleepf 0.05;
          reap (k - 1)
        end
  in
  reap 200;
  child_group := None;
  match status with
  | None -> Error (Printf.sprintf "%s overran %.0f s and was killed" workload limit)
  | Some (Unix.WEXITED 0) -> (
      match Json.of_file out with
      | j ->
          (try Sys.remove out with Sys_error _ -> ());
          Ok j
      | exception e -> Error (Printf.sprintf "%s: unreadable result: %s" workload (Printexc.to_string e)))
  | Some (Unix.WEXITED c) -> Error (Printf.sprintf "%s exited with code %d" workload c)
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Error (Printf.sprintf "%s killed by signal %d" workload s)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let num j k = Option.value (Option.bind (Json.member k j) Json.to_num) ~default:nan
let metrics_of j = match Json.member "metrics" j with Some (Json.Obj l) -> l | _ -> []

(* The one-line result a caller reads: correctness, counts, and the
   value and unit of each metric BENCHMARK.json lists for the run. *)
let result_line j =
  Json.Obj
    [
      ("correct", Option.value (Json.member "correct" j) ~default:(Json.Bool false));
      ("attempted", Json.Num (num j "attempted"));
      ("failed", Json.Num (num j "failed"));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, m) ->
               (k, Json.Obj [ ("value", Json.Num (num m "value")); ("unit", Option.get (Json.member "unit" m)) ]))
             (metrics_of j)) );
    ]

let unit_of m = Option.value (Option.bind (Json.member "unit" m) Json.to_str) ~default:""
let is_correct j = Json.member "correct" j = Some (Json.Bool true)

let print_metrics j =
  List.iter
    (fun (k, m) ->
      Printf.printf "   %-32s %16.6g %-6s%s%s\n" k (num m "value") (unit_of m)
        (match Json.member "spread" m with
        | Some _ -> Printf.sprintf " spread %5.1f%%" (100. *. num m "spread")
        | None -> "")
        (if List.mem k Suite.modeled then "  (modeled)"
         else if List.mem k Suite.scaled then "  (scaled)"
         else ""))
    (metrics_of j);
  flush stdout

let print_result w j =
  Printf.printf "== %s: %s, %.0f attempted, %.0f failed (fail_ratio %g)\n" w
    (if is_correct j then "correct" else "INCORRECT")
    (num j "attempted") (num j "failed") (num j "fail_ratio");
  List.iter
    (fun p -> Option.iter (Printf.printf "   problem: %s\n") (Json.to_str p))
    (Json.to_list (Option.value (Json.member "problems" j) ~default:(Json.Arr [])));
  print_metrics j

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

(* A single-workload invocation must end within 180 s. *)
let single_limit = 170.

let single (a : args) =
  let w = match a.workload with [ w ] -> w | _ -> die "give exactly one --workload" in
  match run_child ~workload:w ~seed:a.seed ~seconds:(seconds_of a) ~trace:a.trace ~limit:single_limit with
  | Error msg -> die "%s" msg
  | Ok j ->
      print_result w j;
      print_endline (Json.to_string (result_line j))

let selected (a : args) = if a.workload = [] then List.map fst workloads else a.workload

(* The result of a child that failed: one failed operation, no metrics. *)
let failed_run w msg =
  Json.Obj
    [
      ("workload", Json.Str w);
      ("correct", Json.Bool false);
      ("attempted", Json.Num 1.);
      ("failed", Json.Num 1.);
      ("problems", Json.Arr [ Json.Str msg ]);
      ("metrics", Json.Obj []);
    ]

(* One workload's runs, with seeds [seeds], folded into one record: for
   every metric BENCHMARK.json lists, its median over the runs that report
   it, the quartile spread [compare] holds against its bound, and each
   run's value (null for a failed run). *)
let aggregate ~trace ~seeds runs =
  let value k j = Option.fold ~none:nan ~some:(fun m -> num m "value") (List.assoc_opt k (metrics_of j)) in
  let total k = Json.Num (Common.sum (List.map (fun j -> num j k) runs)) in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all is_correct runs));
      ("attempted", total "attempted");
      ("failed", total "failed");
      ("seeds", Json.Arr (List.map (fun s -> Json.Num (float_of_int s)) seeds));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Spec.metric) ->
               let all = List.map (value m.Spec.name) runs in
               let vs = List.filter Float.is_finite all in
               let q1, q3 = Common.quartiles vs in
               ( m.Spec.name,
                 Json.Obj
                   [
                     ("value", Json.Num (Common.median vs));
                     ("unit", Json.Str m.Spec.unit_);
                     ("q1", Json.Num q1);
                     ("q3", Json.Num q3);
                     ("spread", Json.Num (Common.spread vs));
                     ("values", Json.Arr (List.map (fun v -> Json.Num v) all));
                   ] ))
             (Spec.reported ~trace)) );
      ("runs", Json.Arr runs);
    ]

let print_summary w ~runs agg =
  Printf.printf "== %s, median of %d runs: %s\n" w runs
    (if is_correct agg then "all correct" else "INCORRECT");
  print_metrics agg

(* Run each selected workload [runs] times (seeds seed, seed+1, ...), in
   child processes, and write the aggregated results to the --out file;
   traced runs also gather every workload's spans into it. The workloads
   take turns (round i runs each once with seed+i), so a slow spell of the
   host lands on one run of several workloads, not on all runs of one. A
   child that fails is a failed run; the others go on. *)
let run_all (a : args) ~trace =
  let seconds = seconds_of a in
  let runs = Option.value a.runs ~default:(if trace then 1 else 5) in
  let seeds = List.init runs (fun i -> a.seed + i) in
  let ws = selected a in
  let rounds =
    List.map
      (fun seed ->
        List.map
          (fun w ->
            let j =
              match run_child ~workload:w ~seed ~seconds ~trace ~limit:900. with
              | Ok j -> j
              | Error msg -> failed_run w msg
            in
            print_result w j;
            j)
          ws)
      seeds
  in
  let results =
    List.mapi
      (fun k w ->
        let agg = aggregate ~trace ~seeds (List.map (fun round -> List.nth round k) rounds) in
        print_summary w ~runs agg;
        (w, agg))
      ws
  in
  let traces =
    List.filter_map
      (fun w -> if Sys.file_exists (trace_path w) then Some (w, Json.of_file (trace_path w)) else None)
      (if trace then ws else [])
  in
  let out =
    Option.value a.out ~default:(Filename.concat out_dir (if trace then "trace.json" else "run.json"))
  in
  Json.to_file out
    (Json.Obj
       ([
          ("seed", Json.Num (float_of_int a.seed));
          ("seconds", Json.Num seconds);
          ("runs", Json.Num (float_of_int runs));
          ("workloads", Json.Obj results);
        ]
       @ if trace then [ ("traces", Json.Obj traces) ] else []));
  Printf.printf "wrote %s\n" out;
  if List.exists (fun (_, agg) -> not (is_correct agg)) results then exit 1

(* Print candidate catalog seeds for [w]'s table in catalog.ml. *)
let seeds (a : args) =
  let n = Option.value a.runs ~default:64 in
  match a.workload with
  | [ "tpch-mem" ] -> Catalog.scan ~sf:Wl_tpch.mem.Wl_tpch.sf ~n ~key:(Wl_tpch.scan_key Wl_tpch.mem)
  | [ "tpch-spill" ] ->
      Catalog.scan ~sf:Wl_tpch.spill.Wl_tpch.sf ~n ~key:(Wl_tpch.scan_key Wl_tpch.spill)
  | [ "service-mix" ] -> Catalog.scan ~sf:Wl_service.sf ~n ~key:(fun _ _ -> ("", ""))
  | [ "cluster-2pc" ] -> Catalog.scan ~sf:Wl_cluster.sf ~n ~key:(fun _ _ -> ("", ""))
  | _ -> die "give exactly one --workload"

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  mkdir_p tmp_dir;
  match argv with
  | "child" :: rest -> child (parse rest)
  | "run" :: rest ->
      forward_signals ();
      run_all (parse rest) ~trace:false
  | "trace" :: rest ->
      forward_signals ();
      run_all (parse rest) ~trace:true
  | "compare" :: rest -> (
      let a = parse rest in
      match a.rest with
      | [ old_f; new_f ] -> exit (Compare.main old_f new_f)
      | _ -> die "usage: orq_bench compare OLD.json NEW.json")
  | "seeds" :: rest -> seeds (parse rest)
  | _ ->
      forward_signals ();
      single (parse argv)
