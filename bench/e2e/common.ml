(* Shared pieces of the benchmark: clocks, order statistics, host speed,
   set-ups, metric and outcome records, host facts, and the child-result
   file format. *)

module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim
module Chunkvec = Orq_util.Chunkvec

let now = Unix.gettimeofday
let mib_of_bits b = float_of_int b /. 8. /. 1048576.
let mib_of_bytes b = float_of_int b /. 1048576.

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear interpolation between closest ranks. *)
let percentile p l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* First and third quartile as Python's statistics.quantiles(data, n=4)
   computes them (the default 'exclusive' method), so spreads printed here
   match the acceptance check applied to repeated runs. *)
let quartiles l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let at i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (at 1, at 3)

let sum l = List.fold_left ( +. ) 0. l
let mean l = sum l /. float_of_int (max 1 (List.length l))

(* Mean of the values between the 10th and the 90th percentile. *)
let trimmed_mean l =
  let a = sorted_array l in
  let cut = Array.length a / 10 in
  mean (Array.to_list (Array.sub a cut (Array.length a - (2 * cut))))

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts — by about 1.6x in spells of about 0.1 s,
   and by tens of percent over minutes — and every time the workloads
   measure follows it. So a fixed kernel of the benchmark's own is timed
   between a run's operations, outside their timed spans, and the run's
   times are reported scaled to the kernel's reference time
   [kernel_ref_s]: seconds on a host where the kernel takes 3 ms.

   The kernel is integer mixing over two static buffers: 512 KiB, which
   stays in a 2 MiB L2 cache, and 4 MiB, which is served from L3; its time
   is the geometric mean of the two parts. The engine's set-ups and queries
   slowed with that mean more closely than with either part (on a 2-vCPU
   host over 7 minutes, it removed a quarter of their spread). The kernel
   allocates nothing and calls nothing of the engine, so no engine change
   moves it, and untimed sweeps first make it find its buffers cached
   whatever the operation before it left in the caches. The buffers are
   bigarrays, outside the OCaml heap: a 4 MiB int array in the heap made
   the collector let the workloads' heaps grow tenfold. *)
let kernel_ref_s = 3e-3

type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let buffer words : buffer =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill b 0;
  b

let small = buffer 65536
let large = buffer 524288

let sweep (buf : buffer) r =
  let mask = Bigarray.Array1.dim buf - 1 in
  let x = ref (88172645463325252 + r) in
  for i = 0 to mask do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    buf.{i} <- buf.{((i * 7919) + r) land mask} + (!x land 0xffff)
  done

let kernel () =
  sweep small 0;
  sweep large 0;
  let t0 = now () in
  for r = 1 to 7 do
    sweep small r
  done;
  let t1 = now () in
  sweep large 1;
  let t2 = now () in
  sqrt ((t1 -. t0) *. (t2 -. t1))

(* The kernel times of one phase of a run (its set-ups, or its measured
   loop); session threads of one run share one. *)
type speed = { lock : Mutex.t; mutable samples : float list; mutable last : float }

let speed () = { lock = Mutex.create (); samples = []; last = neg_infinity }

(* Time the kernel, unless it ran less than a quarter second ago: a
   sample takes about 12 ms. *)
let sample sp =
  if now () -. sp.last >= 0.25 then begin
    let t = kernel () in
    Mutex.protect sp.lock (fun () ->
        sp.samples <- t :: sp.samples;
        sp.last <- now ())
  end

(* The factor that scales the phase's times to the reference speed: a
   mean, not a median, because the kernel times are as bimodal as the
   host's spells, and a time spent over many spells follows the share of
   time slowed rather than the commoner mode. *)
let kernel_s sp = trimmed_mean sp.samples
let scale sp = if sp.samples = [] then 1. else kernel_ref_s /. kernel_s sp

(* ------------------------------------------------------------------ *)
(* Metrics and outcomes                                                *)
(* ------------------------------------------------------------------ *)

(* A measured metric: its name in BENCHMARK.json, which gives its unit. *)
type metric = string * float

let metric name value : metric = (name, value)

(* Quartile spread of repeated values, as a share of their median. *)
let spread l =
  let q1, q3 = quartiles l and md = median l in
  if md = 0. || List.length l < 2 then 0. else (q3 -. q1) /. Float.abs md

(* Set up until there are at least 10 set-ups taking at least 2 s in
   total, or 5 taking 6 s (a cluster launch takes most of a second). All
   but the last set-up are torn down; it is returned with every set-up's
   time, in order. The collector and the kernel samples for [speed] run
   outside the timed spans. *)
let set_up_repeatedly ~speed ~set_up ~tear_down =
  let rec go times =
    Gc.full_major ();
    sample speed;
    let x, t = set_up () in
    let times = t :: times in
    let n = List.length times and total = sum times in
    if (n >= 10 && total >= 2.) || (n >= 5 && total >= 6.) then (x, List.rev times)
    else begin
      tear_down x;
      go times
    end
  in
  go []

(* The set-up time of a run, from its set-up [times] in order, before
   scaling: the median of the means of 10 batches of consecutive set-ups
   (fewer when there are fewer set-ups). A set-up of a few milliseconds
   falls wholly inside or outside one of the host's slow spells, so single
   set-up times are bimodal, and their median jumps between the modes from
   run to run; a batch spans several spells. *)
let setup_time times =
  let a = Array.of_list times in
  let n = Array.length a in
  let b = min n 10 in
  median
    (List.init b (fun i ->
         let lo = i * n / b and hi = (i + 1) * n / b in
         mean (Array.to_list (Array.sub a lo (hi - lo)))))

(* Operations attempted and failed. A failure is recorded with its reason
   and counted; it never aborts the run. *)
type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first, capped *)
}

let outcome () = { attempted = 0; failed = 0; problems = [] }

let problem o msg =
  if List.length o.problems < 20 then o.problems <- msg :: o.problems;
  Printf.eprintf "[orq_bench] %s\n%!" msg

(* Record one attempted operation whose checks produced [errors]. *)
let record o errors =
  o.attempted <- o.attempted + 1;
  if errors <> [] then begin
    o.failed <- o.failed + 1;
    List.iter (problem o) errors
  end

(* ------------------------------------------------------------------ *)
(* Host facts                                                          *)
(* ------------------------------------------------------------------ *)

let vmhwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      scan ()

(* Only this directory's own .git: a checkout without one says "unknown"
   rather than reporting some enclosing repository's revision. *)
let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match
      Unix.open_process_args_in "git" [| "git"; "--git-dir=.git"; "rev-parse"; "--short"; "HEAD" |]
    with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown")

let host_facts ~seed =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("domains", Json.Num (float_of_int (Orq_util.Parallel.get_num_domains ())));
      ("chunk_rows", Json.Num (float_of_int (Chunkvec.chunk_rows ())));
      ("budget_bytes", Json.Num (float_of_int (Chunkvec.budget ())));
      ("streaming", Json.Bool (Chunkvec.streaming_enabled ()));
      ("seed", Json.Num (float_of_int seed));
      ("git_rev", Json.Str (git_rev ()));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

(* ------------------------------------------------------------------ *)
(* Child result files                                                  *)
(* ------------------------------------------------------------------ *)

type result = {
  workload : string;
  outcome : outcome;
  metrics : metric list;
  facts : (string * Json.t) list;  (** workload shape: sizes, passes, ... *)
}

(* The result file of a run: the metrics BENCHMARK.json lists for it (see
   [Spec.reported]), each with its value and unit. *)
let result_json ~seed ~trace (r : result) =
  let o = r.outcome in
  let metrics =
    List.map
      (fun ((m : Spec.metric), v) ->
        (m.Spec.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.Spec.unit_) ]))
      (Spec.complete (Spec.reported ~trace) r.metrics)
  in
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("trace", Json.Bool trace);
      ("correct", Json.Bool (o.failed = 0 && o.attempted > 0));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "fail_ratio",
        Json.Num (float_of_int o.failed /. float_of_int (max 1 o.attempted)) );
      ("problems", Json.Arr (List.rev_map (fun s -> Json.Str s) o.problems));
      ("metrics", Json.Obj metrics);
      ("facts", Json.Obj r.facts);
      ("host", host_facts ~seed);
    ]
