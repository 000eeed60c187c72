(* Tests for the foundation layers: ring helpers, the seeded PRG, vector
   operations, domain-based parallelism, communication tallies, and the
   network cost model. *)

open Orq_util
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim

let vec = Alcotest.(array int)

(* ---------------- Ring ---------------- *)

let test_ring () =
  Alcotest.(check int) "mask 8" 255 (Ring.mask 8);
  Alcotest.(check int) "mask full" (-1) (Ring.mask Ring.word_bits);
  Alcotest.(check int) "truncate" 0x34 (Ring.truncate 8 0x1234);
  Alcotest.(check int) "bit" 1 (Ring.bit 0b100 2);
  Alcotest.(check int) "popcount" 3 (Ring.popcount 0b10101);
  Alcotest.(check int) "log2_ceil 1" 0 (Ring.log2_ceil 1);
  Alcotest.(check int) "log2_ceil 5" 3 (Ring.log2_ceil 5);
  Alcotest.(check int) "log2_ceil 8" 3 (Ring.log2_ceil 8);
  Alcotest.(check int) "next_pow2" 8 (Ring.next_pow2 5);
  Alcotest.(check bool) "is_pow2" true (Ring.is_pow2 64);
  Alcotest.(check bool) "is_pow2 no" false (Ring.is_pow2 63)

let test_ring_wraparound () =
  (* native int addition wraps mod 2^63: the ring property shares rely on *)
  let x = max_int in
  Alcotest.(check int) "wrap" min_int (x + 1);
  Alcotest.(check int) "additive inverse" 0 (x + 1 + -(x + 1))

(* ---------------- Prg ---------------- *)

let test_prg_deterministic () =
  let a = Prg.create 42 and b = Prg.create 42 in
  Alcotest.(check vec) "same seed, same stream" (Prg.words a 16) (Prg.words b 16);
  let c = Prg.create 43 in
  Alcotest.(check bool) "different seed differs" false
    (Prg.words (Prg.create 42) 16 = Prg.words c 16)

let test_prg_split_copy () =
  let p = Prg.create 7 in
  let c = Prg.copy p in
  Alcotest.(check int) "copy continues identically" (Prg.word p) (Prg.word c);
  let s1 = Prg.split p 1 and s2 = Prg.split p 2 in
  Alcotest.(check bool) "split streams independent" false
    (Prg.word s1 = Prg.word s2)

let test_prg_int_below () =
  let p = Prg.create 11 in
  for _ = 1 to 500 do
    let x = Prg.int_below p 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done;
  (* rough uniformity: each residue appears *)
  let counts = Array.make 5 0 in
  for _ = 1 to 500 do
    counts.(Prg.int_below p 5) <- counts.(Prg.int_below p 5) + 1
  done;
  Array.iter (fun c -> Alcotest.(check bool) "all residues hit" true (c > 0)) counts

let test_prg_golden () =
  (* pins the splitmix64 stream: shares, dealer correlations and the
     certified transcripts all derive from it, so any drift must show *)
  let words = [|
    2264624435582397653; 1793612131670815442; -3715614006285982337;
    2143266886397966425; -3125285500173794438; 967002254848908011;
  |] in
  let p = Prg.create 2024 in
  Alcotest.(check vec) "word stream" words (Array.init 6 (fun _ -> Prg.word p));
  Alcotest.(check vec) "fill_words stream" words (Prg.words (Prg.create 2024) 6);
  let q = Prg.create 2024 in
  ignore (Prg.words q 3);
  Alcotest.(check int) "fill_words advances the state" words.(3) (Prg.word q);
  Alcotest.(check int64) "next64" 7191089600892374487L
    (Prg.next64 (Prg.create 7));
  Alcotest.(check int) "split" words.(4) (Prg.word (Prg.split (Prg.create 2024) 3));
  let r = Prg.create 9 in
  Alcotest.(check bool) "bool" false (Prg.bool r);
  Alcotest.(check int) "int_below" 394 (Prg.int_below r 1000)

(* ---------------- Vec ---------------- *)

let test_vec_ops () =
  let a = [| 1; 2; 3 |] and b = [| 10; 20; 30 |] in
  Alcotest.(check vec) "add" [| 11; 22; 33 |] (Vec.add a b);
  Alcotest.(check vec) "sub" [| 9; 18; 27 |] (Vec.sub b a);
  Alcotest.(check vec) "mul" [| 10; 40; 90 |] (Vec.mul a b);
  Alcotest.(check vec) "xor" [| 11; 22; 29 |] (Vec.xor a b);
  Alcotest.(check vec) "prefix_sum" [| 1; 3; 6 |] (Vec.prefix_sum a);
  Alcotest.(check int) "sum" 6 (Vec.sum a);
  Alcotest.(check vec) "rev" [| 3; 2; 1 |] (Vec.rev a)

let test_vec_gather_scatter () =
  let x = [| 10; 20; 30; 40 |] in
  let p = [| 2; 0; 3; 1 |] in
  let y = Vec.scatter x p in
  Alcotest.(check vec) "scatter" [| 20; 40; 10; 30 |] y;
  Alcotest.(check vec) "gather inverts scatter" x (Vec.gather y p)

let test_vec_concat_split () =
  let a = [| 1; 2 |] and b = [| 3; 4; 5 |] in
  let c = Vec.concat2 a b in
  let a', b' = Vec.split2 c 2 in
  Alcotest.(check vec) "split left" a a';
  Alcotest.(check vec) "split right" b b'

let qcheck_shift_roundtrip =
  QCheck.Test.make ~name:"shift left then right" ~count:50
    QCheck.(pair (array_of_size (Gen.return 8) (int_bound 0xFFFF)) (int_bound 10))
    (fun (a, k) ->
      Vec.shift_right (Vec.shift_left a k) k = a)

(* ---------------- Parallel ---------------- *)

let test_parallel_matches_sequential () =
  let n = 20000 in
  let a = Array.init n (fun i -> i * 3) in
  let b = Array.init n (fun i -> i + 7) in
  let seq = Vec.add a b in
  Parallel.set_num_domains 3;
  Fun.protect
    ~finally:(fun () -> Parallel.set_num_domains 1)
    (fun () ->
      Alcotest.(check vec) "parallel map2" seq (Parallel.map2 ( + ) a b);
      Alcotest.(check vec) "parallel map"
        (Array.map (fun x -> x * 2) a)
        (Parallel.map (fun x -> x * 2) a);
      let prg = Prg.create 5 in
      let p = Orq_shuffle.Localperm.random prg n in
      Alcotest.(check vec) "parallel apply_perm" (Vec.scatter a p)
        (Parallel.apply_perm a p))

let test_chunks () =
  let spans = Parallel.chunks 10 3 in
  Alcotest.(check int) "3 spans" 3 (List.length spans);
  let total = List.fold_left (fun acc (_, len) -> acc + len) 0 spans in
  Alcotest.(check int) "cover all" 10 total

(* ---------------- Comm / Netsim ---------------- *)

let test_comm_tallies () =
  let c = Comm.create ~parties:3 in
  Comm.round c ~bits:100 ~messages:3;
  Comm.traffic c ~bits:50 ~messages:1;
  Comm.rounds_only c 2;
  let t = Comm.snapshot c in
  Alcotest.(check int) "rounds" 3 t.Comm.t_rounds;
  Alcotest.(check int) "bits" 150 t.Comm.t_bits;
  Alcotest.(check int) "messages" 4 t.Comm.t_messages;
  let before = t in
  Comm.round c ~bits:10 ~messages:1;
  let d = Comm.since c before in
  Alcotest.(check int) "since rounds" 1 d.Comm.t_rounds;
  Alcotest.(check int) "since bits" 10 d.Comm.t_bits;
  Alcotest.(check (float 0.001)) "bytes/party" (160. /. 8. /. 3.)
    (Comm.bytes_per_party c (Comm.snapshot c))

let test_netsim () =
  let tl = { Comm.t_rounds = 100; t_bits = 6_000_000_000; t_messages = 1 } in
  (* WAN: 100 rounds x 20ms = 2s; 6Gbit over 6Gbps = 1s *)
  Alcotest.(check (float 0.01)) "wan model" 3.0
    (Netsim.network_time Netsim.wan tl);
  Alcotest.(check bool) "lan cheaper than wan" true
    (Netsim.network_time Netsim.lan tl < Netsim.network_time Netsim.wan tl);
  Alcotest.(check bool) "geo most expensive" true
    (Netsim.network_time Netsim.geo tl > Netsim.network_time Netsim.wan tl);
  Alcotest.(check (float 0.0001)) "local free" 0.
    (Netsim.network_time Netsim.local tl)

let test_netsim_links () =
  (* a synchronous round completes when the slowest link does *)
  let p =
    Netsim.of_links "X"
      [
        { Netsim.l_rtt_s = 0.01; l_bandwidth_bps = 10e9 };
        { Netsim.l_rtt_s = 0.05; l_bandwidth_bps = 2e9 };
      ]
  in
  Alcotest.(check (float 1e-9)) "max rtt" 0.05 p.Netsim.rtt_s;
  Alcotest.(check (float 1e-3)) "min bandwidth" 2e9 p.Netsim.bandwidth_bps;
  Alcotest.(check bool) "four-region profile matches geo" true
    (abs_float (Netsim.geo_four_regions.Netsim.rtt_s -. Netsim.geo.Netsim.rtt_s) < 1e-9)

let test_comm_invariants () =
  (* metering invariants guard the leakage certificate's bookkeeping: under
     ORQ_DEBUG_CHECKS a tally can never go negative and a fusion refund can
     never exceed what was actually recorded *)
  let was = Orq_util.Debug.enabled () in
  Fun.protect
    ~finally:(fun () -> Orq_util.Debug.set_checks was)
    (fun () ->
      Orq_util.Debug.set_checks true;
      let c = Comm.create ~parties:3 in
      Comm.round c ~bits:100 ~messages:2;
      Comm.round c ~bits:50 ~messages:2;
      Alcotest.check_raises "refund beyond recorded rounds"
        (Invalid_argument
           "Comm.refund_rounds: refund of 3 exceeds the 2 recorded rounds")
        (fun () -> Comm.refund_rounds c 3);
      Alcotest.check_raises "negative refund"
        (Invalid_argument
           "Comm.refund_rounds: refund of -1 exceeds the 2 recorded rounds")
        (fun () -> Comm.refund_rounds c (-1));
      Alcotest.check_raises "negative barrier count"
        (Invalid_argument "Comm.rounds_only: negative count -2") (fun () ->
          Comm.rounds_only c (-2));
      Alcotest.check_raises "negative traffic bits"
        (Invalid_argument "Comm.traffic: negative traffic (bits=-5 messages=1)")
        (fun () -> Comm.traffic c ~bits:(-5) ~messages:1);
      Alcotest.check_raises "negative round messages"
        (Invalid_argument "Comm.round: negative traffic (bits=8 messages=-1)")
        (fun () -> Comm.round c ~bits:8 ~messages:(-1));
      (* legal refund still works with checks on *)
      Comm.refund_rounds c 1;
      Alcotest.(check int) "rounds after legal refund" 1 c.Comm.rounds;
      (* with checks off the guards are skipped (hot-path default) *)
      Orq_util.Debug.set_checks false;
      Comm.rounds_only c 5;
      Alcotest.(check int) "barrier adds rounds" 6 c.Comm.rounds)

let suite =
  [
    Alcotest.test_case "ring helpers" `Quick test_ring;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "prg determinism" `Quick test_prg_deterministic;
    Alcotest.test_case "prg split/copy" `Quick test_prg_split_copy;
    Alcotest.test_case "prg int_below" `Quick test_prg_int_below;
    Alcotest.test_case "prg golden stream" `Quick test_prg_golden;
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "vec gather/scatter" `Quick test_vec_gather_scatter;
    Alcotest.test_case "vec concat/split" `Quick test_vec_concat_split;
    QCheck_alcotest.to_alcotest qcheck_shift_roundtrip;
    Alcotest.test_case "parallel matches sequential" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "parallel chunks" `Quick test_chunks;
    Alcotest.test_case "comm tallies" `Quick test_comm_tallies;
    Alcotest.test_case "comm metering invariants" `Quick test_comm_invariants;
    Alcotest.test_case "netsim model" `Quick test_netsim;
    Alcotest.test_case "netsim multi-link profiles" `Quick test_netsim_links;
  ]

let () = Alcotest.run "orq_util" [ ("util", suite) ]
