(* Unit and property tests for the MPC protocol layer: secret sharing,
   linear operations, Beaver/replicated multiplication, opening, metering,
   and malicious-abort behaviour. *)

open Orq_util
open Orq_proto

let kinds = Ctx.all_kinds

let vec_testable = Alcotest.(array int)

let words_gen n =
  QCheck.Gen.(array_size (return n) (map (fun x -> x land Ring.ones) int))

let arb_words n = QCheck.make (words_gen n)

let for_all_kinds f = List.iter (fun k -> f (Ctx.create ~seed:42 k)) kinds

(* ---------------- sharing ---------------- *)

let test_share_roundtrip () =
  for_all_kinds (fun ctx ->
      let x = Prg.words ctx.Ctx.prg 100 in
      let sa = Mpc.share_a ctx x in
      let sb = Mpc.share_b ctx x in
      Alcotest.(check vec_testable) "arith roundtrip" x (Share.reconstruct sa);
      Alcotest.(check vec_testable) "bool roundtrip" x (Share.reconstruct sb))

let test_share_hides () =
  (* the first share vector alone must not equal the plaintext (masked) *)
  for_all_kinds (fun ctx ->
      let x = Array.make 64 12345 in
      let s = Mpc.share_a ctx x in
      Alcotest.(check bool) "share-0 masked" false (( = ) s.Share.v.(0) x);
      let distinct = ref 0 in
      Array.iter (fun v -> if v <> s.Share.v.(1).(0) then incr distinct) s.Share.v.(1);
      Alcotest.(check bool) "share-1 non-constant" true (!distinct > 0))

let test_public () =
  for_all_kinds (fun ctx ->
      let s = Share.public ctx Share.Arith 5 7 in
      Alcotest.(check vec_testable) "public const" (Array.make 5 7)
        (Share.reconstruct s))

(* ---------------- linear ops ---------------- *)

let test_linear () =
  for_all_kinds (fun ctx ->
      let x = Prg.words ctx.Ctx.prg 50 and y = Prg.words ctx.Ctx.prg 50 in
      let sx = Mpc.share_a ctx x and sy = Mpc.share_a ctx y in
      Alcotest.(check vec_testable) "add" (Vec.add x y)
        (Share.reconstruct (Mpc.add sx sy));
      Alcotest.(check vec_testable) "sub" (Vec.sub x y)
        (Share.reconstruct (Mpc.sub sx sy));
      Alcotest.(check vec_testable) "neg" (Vec.neg x)
        (Share.reconstruct (Mpc.neg sx));
      Alcotest.(check vec_testable) "add_pub" (Vec.add_scalar x 9)
        (Share.reconstruct (Mpc.add_pub sx 9));
      Alcotest.(check vec_testable) "mul_pub" (Vec.mul_scalar x 3)
        (Share.reconstruct (Mpc.mul_pub sx 3));
      Alcotest.(check vec_testable) "mul_pub_vec" (Vec.mul x y)
        (Share.reconstruct (Mpc.mul_pub_vec sx y)))

let test_bool_linear () =
  for_all_kinds (fun ctx ->
      let x = Prg.words ctx.Ctx.prg 50 and y = Prg.words ctx.Ctx.prg 50 in
      let sx = Mpc.share_b ctx x in
      Alcotest.(check vec_testable) "xor" (Vec.xor x y)
        (Share.reconstruct (Mpc.xor sx (Mpc.share_b ctx y)));
      Alcotest.(check vec_testable) "xor_pub" (Vec.xor_scalar x 0xFF)
        (Share.reconstruct (Mpc.xor_pub sx 0xFF));
      Alcotest.(check vec_testable) "and_mask" (Vec.and_scalar x 0xF0F0)
        (Share.reconstruct (Mpc.and_mask sx 0xF0F0));
      Alcotest.(check vec_testable) "lshift" (Vec.shift_left x 3)
        (Share.reconstruct (Mpc.lshift sx 3));
      Alcotest.(check vec_testable) "rshift" (Vec.shift_right x 3)
        (Share.reconstruct (Mpc.rshift sx 3)))

let test_extend_bit () =
  for_all_kinds (fun ctx ->
      let bits = [| 0; 1; 1; 0; 1 |] in
      let s = Mpc.share_b ctx bits in
      let ext = Share.reconstruct (Share.extend_flags (Share.pack_flags s)) in
      Alcotest.(check vec_testable) "extend"
        (Array.map (fun b -> -b) bits)
        ext)

(* ---------------- interactive ops ---------------- *)

let test_mul_correct =
  QCheck.Test.make ~name:"mul correct (all protocols)" ~count:30
    (QCheck.pair (arb_words 17) (arb_words 17))
    (fun (x, y) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:7 k in
          let z =
            Mpc.mul ctx (Mpc.share_a ctx x) (Mpc.share_a ctx y)
            |> Share.reconstruct
          in
          ( = ) z (Vec.mul x y))
        kinds)

let test_and_correct =
  QCheck.Test.make ~name:"band correct (all protocols)" ~count:30
    (QCheck.pair (arb_words 17) (arb_words 17))
    (fun (x, y) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:9 k in
          let z =
            Mpc.band ctx (Mpc.share_b ctx x) (Mpc.share_b ctx y)
            |> Share.reconstruct
          in
          ( = ) z (Vec.band x y))
        kinds)

let test_bor () =
  for_all_kinds (fun ctx ->
      let x = Prg.words ctx.Ctx.prg 20 and y = Prg.words ctx.Ctx.prg 20 in
      let z =
        (Mpc.bor_many ctx [| Mpc.share_b ctx x |] [| Mpc.share_b ctx y |]).(0)
        |> Share.reconstruct
      in
      Alcotest.(check vec_testable) "bor" (Array.map2 ( lor ) x y) z)

let test_open () =
  for_all_kinds (fun ctx ->
      let x = Prg.words ctx.Ctx.prg 33 in
      let s = Mpc.share_a ctx x in
      let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
      let opened = Mpc.open_ ctx s in
      let tl = Orq_net.Comm.since ctx.Ctx.comm before in
      Alcotest.(check vec_testable) "open value" x opened;
      Alcotest.(check int) "open is 1 round" 1 tl.Orq_net.Comm.t_rounds;
      Alcotest.(check bool) "open moved bits" true (tl.Orq_net.Comm.t_bits > 0))

let test_mul_metering () =
  (* one multiplication of n elements: 1 online round; bits per the
     per-protocol constants (2PC: 4wn, 3PC: 3wn, 4PC: 12wn) *)
  let expect = [ (Ctx.Sh_dm, 4); (Ctx.Sh_hm, 3); (Ctx.Mal_hm, 12) ] in
  List.iter
    (fun (k, factor) ->
      let ctx = Ctx.create k in
      let n = 10 in
      let x = Mpc.share_a ctx (Array.make n 3) in
      let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
      ignore (Mpc.mul ctx x x);
      let tl = Orq_net.Comm.since ctx.Ctx.comm before in
      Alcotest.(check int)
        (Ctx.kind_label k ^ " rounds")
        1 tl.Orq_net.Comm.t_rounds;
      Alcotest.(check int)
        (Ctx.kind_label k ^ " bits")
        (factor * ctx.Ctx.ell * n)
        tl.Orq_net.Comm.t_bits)
    expect

let test_width_metering () =
  (* single-bit AND should be charged 1 bit per element, not a word *)
  let ctx = Ctx.create Ctx.Sh_hm in
  let n = 8 in
  let b = Mpc.share_b ctx (Array.make n 1) in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  ignore (Mpc.band ~width:1 ctx b b);
  let tl = Orq_net.Comm.since ctx.Ctx.comm before in
  Alcotest.(check int) "1-bit AND bits" (3 * 1 * n) tl.Orq_net.Comm.t_bits

let test_reshare () =
  for_all_kinds (fun ctx ->
      let x = Prg.words ctx.Ctx.prg 40 in
      let s = Mpc.share_a ctx x in
      let s' = Mpc.reshare_unmetered ctx ~mask:Ring.ones s in
      Alcotest.(check vec_testable) "reshare preserves secret" x
        (Share.reconstruct s');
      Alcotest.(check bool) "reshare rerandomizes" false
        (( = ) s.Share.v.(0) s'.Share.v.(0)))

let test_sum_prefix () =
  for_all_kinds (fun ctx ->
      let x = [| 1; 2; 3; 4; 5 |] in
      let s = Mpc.share_a ctx x in
      Alcotest.(check vec_testable) "sum_all" [| 15 |]
        (Share.reconstruct (Mpc.sum_all s));
      Alcotest.(check vec_testable) "prefix_sum" [| 1; 3; 6; 10; 15 |]
        (Share.reconstruct (Mpc.prefix_sum s)))

(* ---------------- dealer ---------------- *)

let test_beaver_triple () =
  for_all_kinds (fun ctx ->
      let { Dealer.ta; tb; tc } = Dealer.beaver ctx Share.Arith ~elems:25 25 in
      Alcotest.(check vec_testable) "c = a*b"
        (Vec.mul (Share.reconstruct ta) (Share.reconstruct tb))
        (Share.reconstruct tc);
      let { Dealer.ta; tb; tc } = Dealer.beaver ctx Share.Bool ~elems:25 25 in
      Alcotest.(check vec_testable) "c = a&b"
        (Vec.band (Share.reconstruct ta) (Share.reconstruct tb))
        (Share.reconstruct tc))

let test_dabits () =
  for_all_kinds (fun ctx ->
      let { Dealer.da_bool; da_arith } = Dealer.dabits ctx 64 in
      let b = Bits.unpack (Share.reconstruct_flags da_bool)
      and a = Share.reconstruct da_arith in
      Alcotest.(check vec_testable) "dabit consistency" b a;
      Array.iter (fun x -> Alcotest.(check bool) "bit" true (x = 0 || x = 1)) b)

let test_edabits () =
  for_all_kinds (fun ctx ->
      let { Dealer.ed_arith; ed_bool } = Dealer.edabits ctx 32 in
      Alcotest.(check vec_testable) "edabit consistency"
        (Share.reconstruct ed_arith)
        (Share.reconstruct ed_bool))

let test_preproc_metered_separately () =
  let ctx = Ctx.create Ctx.Sh_dm in
  let before_on = Orq_net.Comm.snapshot ctx.Ctx.comm in
  ignore (Dealer.beaver ctx Share.Arith ~elems:10 10);
  let on = Orq_net.Comm.since ctx.Ctx.comm before_on in
  Alcotest.(check int) "dealer does not touch online counter" 0
    on.Orq_net.Comm.t_bits;
  Alcotest.(check bool) "dealer metered on preproc" true
    (ctx.Ctx.preproc.Orq_net.Comm.bits > 0)

(* ---------------- malicious abort ---------------- *)

(* Packed flag lanes of 1, 63 and 130 flags: a partial word, an exact
   word and a multi-word lane. *)
let flag_lanes ctx =
  Array.map
    (fun n -> Share.pack_flags (Mpc.share_b ctx (Array.init n (fun i -> i land 1))))
    [| 1; 63; 130 |]

(* Every multiplication form the tamper tests drive: a word mul, a packed
   AND and a 3-lane fused packed AND. *)
let tamper_calls ctx =
  let x = Mpc.share_a ctx [| 1; 2; 3 |] in
  let fs = flag_lanes ctx in
  [
    ("mul", fun () -> ignore (Mpc.mul ctx x x));
    ("band_f", fun () -> ignore (Mpc.band_f ctx fs.(2) fs.(2)));
    ("band_f_many 3 lanes", fun () -> ignore (Mpc.band_f_many ctx fs fs));
  ]

let test_malicious_abort_mul () =
  let ctx = Ctx.create Ctx.Mal_hm in
  let tampered ~party ~op =
    if party = 2 && op = "mul" then Some 99 else None
  in
  List.iter
    (fun (name, call) ->
      Alcotest.check_raises ("tampered " ^ name ^ " aborts")
        (Ctx.Abort "mul: cross-term verification failed") (fun () ->
          Ctx.with_tamper ctx tampered call))
    (tamper_calls ctx)

let test_malicious_abort_open () =
  let ctx = Ctx.create Ctx.Mal_hm in
  let x = Mpc.share_a ctx [| 5 |] in
  let tampered ~party ~op = if party = 0 && op = "open" then Some 1 else None in
  Alcotest.check_raises "tampered open aborts"
    (Ctx.Abort "open: share/hash mismatch detected") (fun () ->
      Ctx.with_tamper ctx tampered (fun () -> ignore (Mpc.open_ ctx x)))

let test_semi_honest_no_detection () =
  (* semi-honest protocols do not verify: the tamper hook is ignored *)
  List.iter
    (fun k ->
      let ctx = Ctx.create k in
      let tampered ~party:_ ~op:_ = Some 1 in
      List.iter
        (fun (_, call) -> Ctx.with_tamper ctx tampered call)
        (tamper_calls ctx))
    [ Ctx.Sh_dm; Ctx.Sh_hm ]


(* ---------------- golden share digests ---------------- *)

(* Digests of the output *share vectors* (not only the reconstructed
   values) of the one-lane interactive primitives, together with the
   online/preproc tallies, the order of tamper-hook queries and the next
   PRG words. They pin the exact dealer/zero-sharing draw order of every
   protocol's multiplication and opening, so a refactor of the protocol
   cores that moves a PRG stream, a charge or a verification check fails
   here even when every reconstructed value is still right. *)

let digest_of (parts : int array list) (queries : string list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun a ->
      Array.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) a;
      Buffer.add_char b ';')
    parts;
  List.iter (fun q -> Buffer.add_string b (q ^ ";")) queries;
  Digest.to_hex (Digest.string (Buffer.contents b))

let shares_of (s : Share.shared) = Array.to_list s.Share.v

let flag_shares_of (f : Share.flags) =
  Array.to_list (Array.map Bits.words f.Share.fv)

let tally_of (t : Orq_net.Comm.tally) =
  Orq_net.Comm.[| t.t_rounds; t.t_bits; t.t_messages |]

(* Run [f] on a fresh context: digest its outputs, the tallies it charged,
   every tamper-hook query (party, op) it made and the next PRG words. *)
let golden_run kind (f : Ctx.t -> int array list) =
  let ctx = Ctx.create ~seed:0x601D kind in
  let x = Array.init 37 (fun i -> (i * 2654435761) land Ring.ones) in
  ignore (Mpc.share_a ctx x);
  let c0 = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let p0 = Orq_net.Comm.snapshot ctx.Ctx.preproc in
  let queries = ref [] in
  let hook ~party ~op =
    queries := Printf.sprintf "%d:%s" party op :: !queries;
    None
  in
  let out = Ctx.with_tamper ctx hook (fun () -> f ctx) in
  digest_of
    (out
    @ [
        tally_of (Orq_net.Comm.since ctx.Ctx.comm c0);
        tally_of (Orq_net.Comm.since ctx.Ctx.preproc p0);
        Prg.words ctx.Ctx.prg 4;
      ])
    (List.rev !queries)

let golden_ops : (string * (Ctx.t -> int array list)) list =
  let words ctx n = Array.map (fun v -> v land Ring.ones) (Prg.words ctx.Ctx.prg n) in
  let bits ctx n = Array.map (fun v -> v land 1) (Prg.words ctx.Ctx.prg n) in
  [
    ( "mul",
      fun ctx ->
        let x = Mpc.share_a ctx (words ctx 41) and y = Mpc.share_a ctx (words ctx 41) in
        shares_of (Mpc.mul ctx x y) );
    ( "band ~width:8",
      fun ctx ->
        let x = Mpc.share_b ctx (words ctx 41) and y = Mpc.share_b ctx (words ctx 41) in
        shares_of (Mpc.band ~width:8 ctx x y) );
    ( "band_f n=130",
      fun ctx ->
        let x = Share.pack_flags (Mpc.share_b ctx (bits ctx 130)) in
        let y = Share.pack_flags (Mpc.share_b ctx (bits ctx 130)) in
        flag_shares_of (Mpc.band_f ctx x y) );
    ( "open_",
      fun ctx ->
        let x = Mpc.share_a ctx (words ctx 41) in
        [ Mpc.open_ ctx x; Mpc.open_ ~width:5 ctx x ] );
    ( "open_f",
      fun ctx ->
        let x = Share.pack_flags (Mpc.share_b ctx (bits ctx 130)) in
        [ Bits.words (Mpc.open_f ctx x) ] );
    ( "mul_many 3 lanes",
      fun ctx ->
        let lane n = (Mpc.share_a ctx (words ctx n), Mpc.share_a ctx (words ctx n)) in
        let l = [| lane 9; lane 1; lane 30 |] in
        Mpc.mul_many ~widths:[| 64; 7; 33 |] ctx (Array.map fst l) (Array.map snd l)
        |> Array.to_list |> List.concat_map shares_of );
    ( "band_f_many + open_f_many lanes 1/63/130",
      fun ctx ->
        let lane n =
          ( Share.pack_flags (Mpc.share_b ctx (bits ctx n)),
            Share.pack_flags (Mpc.share_b ctx (bits ctx n)) )
        in
        let l = [| lane 1; lane 63; lane 130 |] in
        let zs = Mpc.band_f_many ctx (Array.map fst l) (Array.map snd l) in
        List.concat_map flag_shares_of (Array.to_list zs)
        @ Array.to_list (Array.map Bits.words (Mpc.open_f_many ctx zs)) );
    ( "b2a ~w:40 ~signed:true",
      fun ctx ->
        let x = Mpc.share_b ctx (Array.map (fun v -> v land Ring.mask 40) (words ctx 41)) in
        shares_of (Orq_circuits.Convert.b2a ~w:40 ~signed:true ctx x) );
    ( "bit_b2a n=130",
      fun ctx ->
        shares_of
          (Orq_circuits.Convert.bit_b2a ctx
             (Share.pack_flags (Mpc.share_b ctx (bits ctx 130)))) );
    ( "bit_b2a (lt ~w:20)",
      fun ctx ->
        let at w n = Mpc.share_b ctx (Array.map (fun v -> v land Ring.mask w) (words ctx n)) in
        let x = at 20 41 in
        let y = at 20 41 in
        shares_of
          (Orq_circuits.Convert.bit_b2a ctx (Orq_circuits.Compare.lt ctx ~w:20 x y)) );
    ( "select_many under eq",
      fun ctx ->
        let at w n = Mpc.share_b ctx (Array.map (fun v -> v land Ring.mask w) (words ctx n)) in
        let lane n =
          let k1 = at 3 n in
          let k2 = at 3 n in
          let b = Orq_circuits.Compare.eq ctx ~w:3 k1 k2 in
          let x = at 12 n in
          let y = at 12 n in
          (b, x, y)
        in
        let l1 = lane 41 in
        let l2 = lane 70 in
        Orq_circuits.Mux.select_many ~widths:[| 12; 12 |] ctx [| l1; l2 |]
        |> Array.to_list |> List.concat_map shares_of );
    ( "filter + If map",
      fun ctx ->
        let module T = Orq_core.Table in
        let module E = Orq_core.Expr in
        let vals () = Array.map (fun v -> v land 255) (words ctx 45) in
        let a = vals () in
        let b = vals () in
        let c = vals () in
        let t = T.create ctx "g" [ ("a", 8, a); ("b", 8, b); ("c", 8, c) ] in
        let p =
          E.(
            (col "a" <. col "b" ||. Not (col "c" ==. const 7))
            &&. (col "a" >=. const 20))
        in
        let t = Orq_core.Dataflow.filter t p in
        let cond = E.(Not (col "b" <=. col "c") &&. (col "c" <>. const 3)) in
        let t =
          Orq_core.Dataflow.map t ~dst:"z" E.(If (cond, col "a", col "b" -! col "c"))
        in
        shares_of t.T.valid @ shares_of (T.column t "z") );
    ( "add ~w:33 + a2b ~w:17",
      fun ctx ->
        let at w n = Mpc.share_b ctx (Array.map (fun v -> v land Ring.mask w) (words ctx n)) in
        let x = at 33 41 in
        let y = at 33 41 in
        let a = Mpc.share_a ctx (words ctx 41) in
        shares_of (Orq_circuits.Adder.add ~cin:true ctx ~w:33 x y)
        @ shares_of (Orq_circuits.Convert.a2b ~w:17 ctx a) );
  ]

(* Recorded from the dedicated single-lane protocol cores these one-lane
   calls replaced; they must never move. The multi-lane packed op's SH-DM
   and SH-HM digests were recorded from the separate packed-flag AND core
   and did not move when packed ANDs joined the word cores; its Mal-HM
   digest is the fused core's, which verifies each cross term once per
   round (28 tamper-hook queries, not one set of 16 per lane). The b2a and
   bit_b2a digests pin the packed daBit stream (bits and their boolean
   sharing drawn per word) that both conversions share. The last three
   pin whole single-bit chains — a comparison into a conversion, muxes
   under equality bits, and a filter plus a CASE WHEN map — and were
   recorded when those bits still travelled as 0/1 words, so carrying
   them as packed flags moved no share. The comparison chains
   ("bit_b2a (lt ~w:20)", "filter + If map") were re-recorded when the
   less-than ladder's last level stopped forming the unused eq product,
   and again when its lower levels stopped forming the lowest block's eq
   product and expression widths came from their domains; "add ~w:33 +
   a2b ~w:17" pins the Sklansky adder's AND stream. *)
let golden =
  [
    ("SH-DM", "mul", "0c9e26f95794c5809d3b9b3e5bcc6593");
    ("SH-DM", "band ~width:8", "9a358e693af6a2e65509071f6c9fe593");
    ("SH-DM", "band_f n=130", "5f666cad0022d3e53fea574fb463934d");
    ("SH-DM", "open_", "7bb6e3dff6f0f90b9a7d7f563c7f8849");
    ("SH-DM", "open_f", "50217734fc393ae729169dc12383b4e0");
    ("SH-DM", "mul_many 3 lanes", "e24eba1aa0c8169d347900665a12757d");
    ("SH-DM", "band_f_many + open_f_many lanes 1/63/130", "41cd376a1839f2db778c57c4a513c520");
    ("SH-DM", "b2a ~w:40 ~signed:true", "618d6c020de431e93e4c9aea04a301b9");
    ("SH-DM", "bit_b2a n=130", "8b0ee61c089b19fe2dbcc61a186f022f");
    ("SH-DM", "bit_b2a (lt ~w:20)", "da219a24e7e08dab49a7ce221c5a3594");
    ("SH-DM", "select_many under eq", "66eab250899d42e522a5d3fa4b783e8c");
    ("SH-DM", "filter + If map", "1aac415b99f8de9911c662dd4ae12486");
    ("SH-DM", "add ~w:33 + a2b ~w:17", "ab15e58a6f262de9f33ff69ed73fe5a4");
    ("SH-HM", "mul", "b0b1027b4676867722ea99266aa530de");
    ("SH-HM", "band ~width:8", "564bbfd51fabc5bf5ef5cb60afbbcbe7");
    ("SH-HM", "band_f n=130", "5f2ff2b1180d1dfdc75612a813d3905b");
    ("SH-HM", "open_", "e2264d3a9bfe0c43326fb21c65d4fa84");
    ("SH-HM", "open_f", "86390b2b8cfa5c9cb249b84e75040501");
    ("SH-HM", "mul_many 3 lanes", "8faf911a1b2aaa8e705d321822d1b607");
    ("SH-HM", "band_f_many + open_f_many lanes 1/63/130", "d3a36a356f81560d221e6d27709a566c");
    ("SH-HM", "b2a ~w:40 ~signed:true", "aae6d9ae9631c57122b25be1f13ffb29");
    ("SH-HM", "bit_b2a n=130", "1b5b66356195995190d1510d5ca9da96");
    ("SH-HM", "bit_b2a (lt ~w:20)", "8ec3b4bb73d4998707707f9aff61946d");
    ("SH-HM", "select_many under eq", "3b6ae75caf111c5f26b365f986b8e757");
    ("SH-HM", "filter + If map", "8321c1c987c3e2abd3d05e4339cd2cab");
    ("SH-HM", "add ~w:33 + a2b ~w:17", "32df38f7077465720d0f3a7b1eb284ae");
    ("Mal-HM", "mul", "1c886b6a8fcbb130ea9bc5dac07e2910");
    ("Mal-HM", "band ~width:8", "a3166fe33d9a13e302d27dc23b803d2e");
    ("Mal-HM", "band_f n=130", "51cf3514c6335cc778297f96bd11b187");
    ("Mal-HM", "open_", "292379db8a51b39acab47aaa28864904");
    ("Mal-HM", "open_f", "0b2569748266d303cb3234e64dcdd9ff");
    ("Mal-HM", "mul_many 3 lanes", "0e776a36508a88dc2c834fcd886c85dc");
    ("Mal-HM", "band_f_many + open_f_many lanes 1/63/130", "4c30ca198520bd78beefc4e3cc34c295");
    ("Mal-HM", "b2a ~w:40 ~signed:true", "843f3f99fa3839d4328c7514a931413d");
    ("Mal-HM", "bit_b2a n=130", "108a917dbec02d8d1572a740e4e892af");
    ("Mal-HM", "bit_b2a (lt ~w:20)", "1bc707a5d372ad52c698fb9ef83c68fb");
    ("Mal-HM", "select_many under eq", "0416ed537d54d62cf90f07e8b26e75f0");
    ("Mal-HM", "filter + If map", "798f91583ace026dc68921738a563d7d");
    ("Mal-HM", "add ~w:33 + a2b ~w:17", "92d2ab3f696dba5191416c04068c2fbf");
  ]

let test_golden_digests () =
  List.iter
    (fun k ->
      List.iter
        (fun (op, f) ->
          let want = List.assoc op (List.filter_map
            (fun (kl, o, d) -> if kl = Ctx.kind_label k then Some (o, d) else None)
            golden) in
          Alcotest.(check string)
            (Printf.sprintf "%s %s" (Ctx.kind_label k) op)
            want (golden_run k f))
        golden_ops)
    kinds

let suite =
  [
    Alcotest.test_case "share roundtrip" `Quick test_share_roundtrip;
    Alcotest.test_case "shares hide plaintext" `Quick test_share_hides;
    Alcotest.test_case "public constants" `Quick test_public;
    Alcotest.test_case "arith linear ops" `Quick test_linear;
    Alcotest.test_case "bool linear ops" `Quick test_bool_linear;
    Alcotest.test_case "extend_bit" `Quick test_extend_bit;
    QCheck_alcotest.to_alcotest test_mul_correct;
    QCheck_alcotest.to_alcotest test_and_correct;
    Alcotest.test_case "bor" `Quick test_bor;
    Alcotest.test_case "open value + metering" `Quick test_open;
    Alcotest.test_case "mul metering constants" `Quick test_mul_metering;
    Alcotest.test_case "width-aware metering" `Quick test_width_metering;
    Alcotest.test_case "reshare" `Quick test_reshare;
    Alcotest.test_case "sum/prefix-sum" `Quick test_sum_prefix;
    Alcotest.test_case "beaver triples" `Quick test_beaver_triple;
    Alcotest.test_case "daBits" `Quick test_dabits;
    Alcotest.test_case "edaBits" `Quick test_edabits;
    Alcotest.test_case "preproc metered separately" `Quick
      test_preproc_metered_separately;
    Alcotest.test_case "Mal-HM abort on tampered mul" `Quick
      test_malicious_abort_mul;
    Alcotest.test_case "Mal-HM abort on tampered open" `Quick
      test_malicious_abort_open;
    Alcotest.test_case "semi-honest ignores tamper hook" `Quick
      test_semi_honest_no_detection;
    Alcotest.test_case "golden share digests" `Quick test_golden_digests;
  ]

let () = Alcotest.run "orq_proto" [ ("proto", suite) ]
