(* Tests for the fused/in-place kernel layer and the persistent domain
   pool: every fused kernel matches its naive composition, pool execution
   on 1/2/4 domains is bit-identical to sequential, index debug checks
   fire, and Comm tallies per protocol are invariant under the domain
   count (metering stays single-threaded). *)

open Orq_util
open Orq_proto
module Comm = Orq_net.Comm

let vec = Alcotest.(array int)

let with_domains d mc f =
  Parallel.set_num_domains d;
  Parallel.set_min_chunk mc;
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_num_domains 1;
      Parallel.set_min_chunk 1024)
    f

(* ---------------- fused kernels ≡ naive compositions ---------------- *)

let arr3 = QCheck.(triple (array_of_size (Gen.return 24) int) (array_of_size (Gen.return 24) int) (array_of_size (Gen.return 24) int))
let naive_map2 f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let qcheck_mul_add_into =
  QCheck.Test.make ~name:"mul_add_into = add dst (mul a b)" ~count:50 arr3
    (fun (dst, a, b) ->
      let expect = Vec.add dst (Vec.mul a b) in
      let got = Vec.copy dst in
      Vec.mul_add_into got a b;
      got = expect)

let qcheck_xor_band_into =
  QCheck.Test.make ~name:"xor_band_into = xor dst (band a b)" ~count:50 arr3
    (fun (dst, a, b) ->
      let expect = Vec.xor dst (Vec.band a b) in
      let got = Vec.copy dst in
      Vec.xor_band_into got a b;
      got = expect)

let qcheck_sub_acc_into =
  QCheck.Test.make ~name:"sub_acc_into = add dst (sub a b)" ~count:50 arr3
    (fun (dst, a, b) ->
      let expect = Vec.add dst (Vec.sub a b) in
      let got = Vec.copy dst in
      Vec.sub_acc_into got a b;
      got = expect)

let qcheck_xor_acc_into =
  QCheck.Test.make ~name:"xor_acc_into = xor dst (xor a b)" ~count:50 arr3
    (fun (dst, a, b) ->
      let expect = Vec.xor dst (Vec.xor a b) in
      let got = Vec.copy dst in
      Vec.xor_acc_into got a b;
      got = expect)

let qcheck_xor3 =
  QCheck.Test.make ~name:"xor3 = xor (xor a b) c" ~count:50 arr3
    (fun (a, b, c) -> Vec.xor3 a b c = Vec.xor (Vec.xor a b) c)

let qcheck_add_sub =
  QCheck.Test.make ~name:"add_sub = add a (sub b c)" ~count:50 arr3
    (fun (a, b, c) -> Vec.add_sub a b c = Vec.add a (Vec.sub b c))

let qcheck_sub_into =
  QCheck.Test.make ~name:"sub_into = sub dst a" ~count:50
    QCheck.(pair (array_of_size (Gen.return 24) int) (array_of_size (Gen.return 24) int))
    (fun (dst, a) ->
      let expect = Vec.sub dst a in
      let got = Vec.copy dst in
      Vec.sub_into got a;
      got = expect)

(* Bit-loop reference of the block-top broadcast: bit q of the result is
   bit p of a for the source p with p < q <= p + span. *)
let naive_spread a ~src ~span =
  Array.map
    (fun v ->
      let r = ref 0 in
      for p = 0 to Ring.word_bits - 1 do
        if (src lsr p) land 1 = 1 && (v lsr p) land 1 = 1 then
          for q = p + 1 to min (Ring.word_bits - 1) (p + span) do
            r := !r lor (1 lsl q)
          done
      done;
      !r)
    a

(* Sources at every block top 2^j - 1 mod 2^(j+1), thinned by a random
   mask so sparse and full source sets (and the word top) both occur. *)
let qcheck_spread =
  QCheck.Test.make ~name:"spread = bit-loop broadcast" ~count:200
    QCheck.(triple (array_of_size (Gen.return 24) int) (int_bound 5) int)
    (fun (a, j, thin) ->
      let span = 1 lsl j in
      let src = ref 0 in
      for p = 0 to Ring.word_bits - 1 do
        if p land ((2 * span) - 1) = span - 1 then src := !src lor (1 lsl p)
      done;
      List.for_all
        (fun src -> Vec.spread a ~src ~span = naive_spread a ~src ~span)
        [ !src; !src land thin ])

let arr5 =
  QCheck.(
    pair arr3
      (pair (array_of_size (Gen.return 24) int) (array_of_size (Gen.return 24) int)))

let naive_beaver_arith tc d tb e ta with_de =
  let open_terms = Vec.add (naive_map2 ( * ) d tb) (naive_map2 ( * ) e ta) in
  let base = Vec.add tc open_terms in
  if with_de then Vec.add base (naive_map2 ( * ) d e) else base

let naive_beaver_bool tc d tb e ta with_de =
  let open_terms =
    Vec.xor (naive_map2 ( land ) d tb) (naive_map2 ( land ) e ta)
  in
  let base = Vec.xor tc open_terms in
  if with_de then Vec.xor base (naive_map2 ( land ) d e) else base

let qcheck_beaver_arith =
  QCheck.Test.make ~name:"beaver_arith fused = unfused" ~count:50 arr5
    (fun ((tc, d, tb), (e, ta)) ->
      Vec.beaver_arith ~tc ~d ~tb ~e ~ta ~with_de:true
      = naive_beaver_arith tc d tb e ta true
      && Vec.beaver_arith ~tc ~d ~tb ~e ~ta ~with_de:false
         = naive_beaver_arith tc d tb e ta false)

let qcheck_beaver_bool =
  QCheck.Test.make ~name:"beaver_bool fused = unfused" ~count:50 arr5
    (fun ((tc, d, tb), (e, ta)) ->
      Vec.beaver_bool ~tc ~d ~tb ~e ~ta ~with_de:true
      = naive_beaver_bool tc d tb e ta true
      && Vec.beaver_bool ~tc ~d ~tb ~e ~ta ~with_de:false
         = naive_beaver_bool tc d tb e ta false)

let qcheck_rep3_arith =
  QCheck.Test.make ~name:"rep3_arith_into fused = unfused" ~count:50 arr5
    (fun ((dst, xi, yi), (xj, yj)) ->
      let expect =
        Vec.add dst
          (Vec.add
             (Vec.add (naive_map2 ( * ) xi yi) (naive_map2 ( * ) xi yj))
             (naive_map2 ( * ) xj yi))
      in
      let got = Vec.copy dst in
      Vec.rep3_arith_into got ~xi ~yi ~xj ~yj;
      got = expect)

let qcheck_rep3_bool =
  QCheck.Test.make ~name:"rep3_bool_into fused = unfused" ~count:50 arr5
    (fun ((dst, xi, yi), (xj, yj)) ->
      let expect =
        Vec.xor dst
          (Vec.xor
             (Vec.xor (naive_map2 ( land ) xi yi) (naive_map2 ( land ) xi yj))
             (naive_map2 ( land ) xj yi))
      in
      let got = Vec.copy dst in
      Vec.rep3_bool_into got ~xi ~yi ~xj ~yj;
      got = expect)

(* bor at the protocol level still equals x ⊕ y ⊕ (x ∧ y) built from the
   unfused primitives, for every protocol *)
let test_bor_matches_unfused () =
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:77 kind in
      let n = 64 in
      let xs = Prg.words (Prg.create 1) n and ys = Prg.words (Prg.create 2) n in
      let x = Mpc.share_b ctx xs and y = Mpc.share_b ctx ys in
      let got = Share.reconstruct (Mpc.bor_many ctx [| x |] [| y |]).(0) in
      let expect = Array.map2 ( lor ) xs ys in
      Alcotest.(check vec)
        ("bor " ^ Ctx.kind_label kind)
        expect got)
    Ctx.all_kinds

(* mul/band against plaintext for every protocol (exercises the fused
   Beaver, rep3 and rep4 paths end to end) *)
let test_secure_mul_band () =
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:31 kind in
      let n = 200 in
      let xs = Prg.words (Prg.create 3) n and ys = Prg.words (Prg.create 4) n in
      let xa = Mpc.share_a ctx xs and ya = Mpc.share_a ctx ys in
      Alcotest.(check vec)
        ("mul " ^ Ctx.kind_label kind)
        (Vec.mul xs ys)
        (Share.reconstruct (Mpc.mul ctx xa ya));
      let xb = Mpc.share_b ctx xs and yb = Mpc.share_b ctx ys in
      Alcotest.(check vec)
        ("band " ^ Ctx.kind_label kind)
        (Vec.band xs ys)
        (Share.reconstruct (Mpc.band ctx xb yb)))
    Ctx.all_kinds

(* ---------------- pool ≡ sequential ---------------- *)

let test_pool_matches_sequential () =
  let n = 10_000 in
  let prg = Prg.create 5 in
  let a = Prg.words prg n and b = Prg.words prg n in
  let perm = Orq_shuffle.Localperm.random prg n in
  let seq_add = Vec.add a b
  and seq_mul = Vec.mul a b
  and seq_band = Vec.band a b
  and seq_gather = Vec.gather a perm
  and seq_scatter = Vec.scatter a perm
  and seq_prefix = Vec.prefix_sum a
  and seq_sum = Vec.sum a in
  List.iter
    (fun d ->
      with_domains d 64 (fun () ->
          let lbl op = Printf.sprintf "%s @%dd" op d in
          Alcotest.(check vec) (lbl "add") seq_add (Vec.add a b);
          Alcotest.(check vec) (lbl "mul") seq_mul (Vec.mul a b);
          Alcotest.(check vec) (lbl "band") seq_band (Vec.band a b);
          Alcotest.(check vec) (lbl "gather") seq_gather (Vec.gather a perm);
          Alcotest.(check vec) (lbl "scatter") seq_scatter (Vec.scatter a perm);
          Alcotest.(check vec) (lbl "prefix") seq_prefix (Vec.prefix_sum a);
          Alcotest.(check int) (lbl "sum") seq_sum (Vec.sum a);
          Alcotest.(check vec) (lbl "apply_perm") seq_scatter
            (Parallel.apply_perm a perm)))
    [ 1; 2; 4 ]

let test_pool_reuse_and_exceptions () =
  with_domains 3 16 (fun () ->
      (* repeated dispatches reuse the same parked workers *)
      let a = Array.init 4096 (fun i -> i) in
      for _ = 1 to 20 do
        Alcotest.(check int) "sum stable" (4096 * 4095 / 2) (Vec.sum a)
      done;
      (* an exception raised inside a span propagates to the caller and
         leaves the pool usable *)
      (try
         Parallel.run_spans 4096 (fun pos _ ->
             if pos >= 0 then failwith "span boom");
         Alcotest.fail "expected exception"
       with Failure m -> Alcotest.(check string) "propagated" "span boom" m);
      Alcotest.(check int) "pool alive after exception" (4096 * 4095 / 2)
        (Vec.sum a))

(* ---------------- debug index checks ---------------- *)

let check_invalid name f =
  match f () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (name ^ " names the op")
        true
        (String.length msg > 0 && String.contains msg ':')
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let test_debug_checks () =
  Debug.set_checks true;
  Fun.protect
    ~finally:(fun () -> Debug.set_checks false)
    (fun () ->
      check_invalid "scatter out of range" (fun () ->
          Vec.scatter [| 1; 2 |] [| 0; 5 |]);
      check_invalid "scatter duplicate" (fun () ->
          Vec.scatter [| 1; 2; 3 |] [| 0; 0; 2 |]);
      check_invalid "scatter wrong length" (fun () ->
          Vec.scatter [| 1; 2; 3 |] [| 0; 1 |]);
      check_invalid "gather out of range" (fun () ->
          Vec.gather [| 1; 2 |] [| 1; 2 |]);
      check_invalid "apply_perm duplicate" (fun () ->
          Parallel.apply_perm [| 1; 2 |] [| 1; 1 |]);
      (* valid inputs still pass with checks on *)
      Alcotest.(check vec) "valid scatter ok" [| 2; 1 |]
        (Vec.scatter [| 1; 2 |] [| 1; 0 |]);
      Alcotest.(check vec) "gather dup ok" [| 2; 2 |]
        (Vec.gather [| 1; 2 |] [| 1; 1 |]))

(* ---------------- metering invariance ---------------- *)

(* Drive every interactive primitive family (mul, band, bor, open,
   shuffle, radixsort) and return the full tallies plus opened results. *)
let protocol_trace kind =
  let ctx = Ctx.create ~seed:99 kind in
  let n = 300 in
  let xs = Prg.words (Prg.create 11) n and ys = Prg.words (Prg.create 12) n in
  let xa = Mpc.share_a ctx xs and ya = Mpc.share_a ctx ys in
  let xb = Mpc.share_b ctx xs and yb = Mpc.share_b ctx ys in
  let za = Mpc.mul ctx xa ya in
  let zb = Mpc.band ctx xb yb in
  let zo = (Mpc.bor_many ctx [| xb |] [| yb |]).(0) in
  let opened_mul = Mpc.open_ ctx za in
  let shuffled = Orq_shuffle.Permops.shuffle ctx xb in
  let keys = Array.init n (fun i -> (xs.(i) land 0xF) lxor (i land 3)) in
  let kb = Mpc.share_b ctx keys in
  let sorted, _ = Orq_sort.Radixsort.sort ctx ~bits:4 kb [] in
  ( Comm.snapshot ctx.Ctx.comm,
    Comm.snapshot ctx.Ctx.preproc,
    [
      opened_mul;
      Share.reconstruct zb;
      Share.reconstruct zo;
      Share.reconstruct shuffled;
      Share.reconstruct sorted;
    ] )

let check_tally label (a : Comm.tally) (b : Comm.tally) =
  Alcotest.(check int) (label ^ " rounds") a.Comm.t_rounds b.Comm.t_rounds;
  Alcotest.(check int) (label ^ " bits") a.Comm.t_bits b.Comm.t_bits;
  Alcotest.(check int) (label ^ " messages") a.Comm.t_messages b.Comm.t_messages

let test_metering_invariance () =
  List.iter
    (fun kind ->
      let on1, pre1, out1 = protocol_trace kind in
      let on4, pre4, out4 =
        with_domains 4 8 (fun () -> protocol_trace kind)
      in
      let lbl = Ctx.kind_label kind in
      check_tally (lbl ^ " online") on1 on4;
      check_tally (lbl ^ " preproc") pre1 pre4;
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check vec) (Printf.sprintf "%s result %d" lbl i) a b)
        (List.combine out1 out4))
    Ctx.all_kinds

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_mul_add_into;
    QCheck_alcotest.to_alcotest qcheck_xor_band_into;
    QCheck_alcotest.to_alcotest qcheck_sub_acc_into;
    QCheck_alcotest.to_alcotest qcheck_xor_acc_into;
    QCheck_alcotest.to_alcotest qcheck_xor3;
    QCheck_alcotest.to_alcotest qcheck_add_sub;
    QCheck_alcotest.to_alcotest qcheck_sub_into;
    QCheck_alcotest.to_alcotest qcheck_spread;
    QCheck_alcotest.to_alcotest qcheck_beaver_arith;
    QCheck_alcotest.to_alcotest qcheck_beaver_bool;
    QCheck_alcotest.to_alcotest qcheck_rep3_arith;
    QCheck_alcotest.to_alcotest qcheck_rep3_bool;
    Alcotest.test_case "bor matches unfused composition" `Quick
      test_bor_matches_unfused;
    Alcotest.test_case "secure mul/band vs plaintext (all kinds)" `Quick
      test_secure_mul_band;
    Alcotest.test_case "pool 1/2/4 domains = sequential" `Quick
      test_pool_matches_sequential;
    Alcotest.test_case "pool reuse + exception propagation" `Quick
      test_pool_reuse_and_exceptions;
    Alcotest.test_case "debug index/permutation checks" `Quick
      test_debug_checks;
    Alcotest.test_case "metering invariant under domain count" `Quick
      test_metering_invariance;
  ]

let () = Alcotest.run "orq_kernels" [ ("kernels", suite) ]
