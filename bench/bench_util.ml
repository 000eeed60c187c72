(** Shared benchmarking utilities: wall-clock + metered-communication
    measurement of a protocol run, and the analytic LAN/WAN/geo end-to-end
    estimates that reintroduce wire time into the lockstep simulation (see
    DESIGN.md, "Netsim cost model"). *)

open Orq_proto
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim

type measurement = {
  wall_s : float;  (** measured local compute time of the simulation *)
  online : Comm.tally;
  preproc : Comm.tally;
  parties : int;
  peak_chunk_bytes : int;
      (** high-water mark of resident share-chunk bytes during the run
          (0 unless out-of-core streaming is on) *)
  spills : int;  (** chunk spills to disk during the run *)
}

(** Run [f] under [ctx], measuring wall time and online/preprocessing
    traffic. *)
let measure (ctx : Ctx.t) (f : unit -> 'a) : 'a * measurement =
  let b_on = Comm.snapshot ctx.Ctx.comm in
  let b_pre = Comm.snapshot ctx.Ctx.preproc in
  Orq_util.Chunkvec.reset_peak ();
  let m0 = (Orq_util.Chunkvec.stats ()).Orq_util.Chunkvec.st_spills in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  ( x,
    {
      wall_s;
      online = Comm.since ctx.Ctx.comm b_on;
      preproc = Comm.since ctx.Ctx.preproc b_pre;
      parties = ctx.Ctx.parties;
      peak_chunk_bytes = Orq_util.Chunkvec.peak_live_bytes ();
      spills = (Orq_util.Chunkvec.stats ()).Orq_util.Chunkvec.st_spills - m0;
    } )

(** Estimated end-to-end time in a network profile: measured compute plus
    modeled online network time (rounds x RTT + bits / bandwidth). *)
let estimate (p : Netsim.profile) (m : measurement) : float =
  Netsim.estimate p ~compute_s:m.wall_s m.online

let mib (tl : Comm.tally) = float_of_int tl.Comm.t_bits /. 8. /. 1024. /. 1024.

let kb_per_row_per_party (m : measurement) ~rows =
  float_of_int m.online.Comm.t_bits
  /. 8. /. 1024.
  /. float_of_int (max 1 rows)
  /. float_of_int m.parties

(* -------- formatting -------- *)

let hdr fmt = Printf.printf (fmt ^^ "\n%!")
let row fmt = Printf.printf (fmt ^^ "\n%!")

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let pretty_time s =
  if s < 1e-3 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.1fms" (s *. 1e3)
  else if s < 120. then Printf.sprintf "%.2fs" s
  else Printf.sprintf "%.1fmin" (s /. 60.)

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let maximum l = List.fold_left max neg_infinity l
