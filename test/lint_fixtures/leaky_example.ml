(* Deliberately-leaky code: the lint self-test fixture. This file lives in
   a directory with no dune stanza — it is never compiled, only parsed by
   `orq_lint lint --expect-violations test/lint_fixtures` (wired into
   `make lint`), which must flag every construct below. If the lint ever
   stops catching one of these, the self-test fails the build. *)

(* Rule 1: an opening primitive at a site absent from the Declass
   allowlist — an unregistered declassification. *)
let leak_histogram ctx xs =
  let opened = Mpc.open_ ctx xs in
  Vec.fold_left ( + ) 0 opened

(* Rule 2: control flow whose scrutinee flows from an opened value — the
   if-condition, the for-loop bound and the while-loop condition below all
   leak data through timing/trace shape. *)
let leak_count ctx xs =
  let bits = Mpc.open_f ctx xs in
  let total = ref 0 in
  for i = 0 to Bits.length bits - 1 do
    if Bits.get bits i = 1 then incr total
  done;
  let remaining = ref (Bits.length bits) in
  while !remaining > 0 do
    decr remaining
  done;
  !total

(* Rule 3: an interactive MPC primitive inside a Parallel worker lambda —
   workers would race on the shared communication schedule. *)
let leak_parallel ctx x y =
  Parallel.run_tasks 4 (fun _ -> ignore (Mpc.mul ctx x y))

(* Rule 3 again, through a fused packed AND. *)
let leak_parallel_flags ctx xs ys =
  Parallel.run_tasks 4 (fun _ -> ignore (Mpc.band_f_many ctx xs ys))
