(** Bit-packed flag-lane micro benchmark: the packed single-bit share
    primitives ([Share.flags], 63 flags/word) [band_f]/[xor_f]/[open_f]
    against the word primitives at width 1 ([band ~width:1]/[xor]/
    [open_ ~width:1]) on the same flags at n = 2^20, under Sh-HM. Both
    sides charge identical traffic; the packed side draws its randomness
    and does its local work per word. The acceptance bar is >= 8x lower
    ns/element on the interactive AND; the run exits 1 below it.

    Writes BENCH_bitpack.json. Quick mode (ORQ_BITPACK_QUICK=1) shrinks
    the size to n = 2^17. *)

open Orq_util
open Orq_proto
open Bench_util

let quick () =
  match Sys.getenv_opt "ORQ_BITPACK_QUICK" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(* ---- micro: per-element cost of the flag primitives ---- *)

(* Best-of-3 timed blocks (same scheme as the kernels bench): ns/element. *)
let measure ~n (f : unit -> unit) : float =
  f ();
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let target = if quick () then 0.02 else 0.08 in
  let iters = max 3 (min 2000 (int_of_float (target /. max 1e-6 once))) in
  let best = ref infinity in
  for _rep = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int iters /. float_of_int n *. 1e9

type micro = {
  m_op : string;
  m_n : int;
  m_packed_ns : float;
  m_word_ns : float;
}

let micro_speedup m =
  if m.m_packed_ns > 0. then m.m_word_ns /. m.m_packed_ns else nan

let run_micro () =
  let n = if quick () then 1 lsl 17 else 1 lsl 20 in
  let kind = Ctx.Sh_hm in
  let ctx = Ctx.create ~seed:21 kind in
  let bits seed = Array.init n (fun i -> ((i * 73) lxor seed) land 1) in
  let x = Mpc.share_b ctx (bits 1) and y = Mpc.share_b ctx (bits 2) in
  let xf = Share.pack_flags x and yf = Share.pack_flags y in
  let rows =
    [
      {
        m_op = "band1";
        m_n = n;
        m_packed_ns =
          measure ~n (fun () -> ignore (Mpc.band_f ctx xf yf));
        m_word_ns =
          measure ~n (fun () -> ignore (Mpc.band ~width:1 ctx x y));
      };
      {
        m_op = "xor1";
        m_n = n;
        m_packed_ns = measure ~n (fun () -> ignore (Mpc.xor_f xf yf));
        m_word_ns = measure ~n (fun () -> ignore (Mpc.xor x y));
      };
      {
        m_op = "open1";
        m_n = n;
        m_packed_ns = measure ~n (fun () -> ignore (Mpc.open_f ctx xf));
        m_word_ns =
          measure ~n (fun () -> ignore (Mpc.open_ ~width:1 ctx x));
      };
    ]
  in
  List.iter
    (fun m ->
      row "  %-6s n=%-8d packed %8.3f ns/elt   word %8.3f ns/elt   %6.1fx"
        m.m_op m.m_n m.m_packed_ns m.m_word_ns (micro_speedup m))
    rows;
  rows

let run () =
  section
    (Printf.sprintf "bit-packed flag lanes: packed vs word primitives%s"
       (if quick () then " (quick)" else ""));
  hdr "micro (Sh-HM, interactive AND draws randomness per word):";
  let micros = run_micro () in
  let band = List.find (fun m -> m.m_op = "band1") micros in
  let band_speedup = micro_speedup band in
  (* the acceptance bar: interactive AND at least 8x cheaper per element *)
  let micro_pass = band_speedup >= 8.0 in
  hdr "\nsummary: band1 packed speedup %.1fx (gate: >= 8x %s)" band_speedup
    (if micro_pass then "PASS" else "FAIL");
  let oc = open_out "BENCH_bitpack.json" in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n  \"schema\": \"orq-bitpack-v2\",\n  \"quick\": %b,\n" (quick ());
  pf "  \"protocol\": \"%s\",\n  \"domains\": %d,\n  \"hardware_domains\": %d,\n"
    (Ctx.kind_label Ctx.Sh_hm)
    (Parallel.get_num_domains ())
    (Domain.recommended_domain_count ());
  pf "  \"flags_per_word\": %d,\n" Bits.bpw;
  pf "  \"micro\": [\n%s\n  ],\n"
    (String.concat ",\n"
       (List.map
          (fun m ->
            Printf.sprintf
              "    {\"op\":\"%s\",\"n\":%d,\"packed_ns_per_elt\":%.4f,\
               \"word_ns_per_elt\":%.4f,\"speedup\":%.2f}"
              m.m_op m.m_n m.m_packed_ns m.m_word_ns (micro_speedup m))
          micros));
  pf "  \"band1_speedup_gate_8x\": %b\n}\n" micro_pass;
  close_out oc;
  hdr "wrote BENCH_bitpack.json";
  if not micro_pass then exit 1
