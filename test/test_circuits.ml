(* Tests for the oblivious circuit layer: comparisons, adders, mux,
   conversions and the non-restoring division circuit — each checked against
   plaintext semantics under all three protocols. *)

open Orq_util
open Orq_proto
open Orq_circuits

let kinds = Ctx.all_kinds
let vec = Alcotest.(array int)

let for_all_kinds f = List.iter (fun k -> f (Ctx.create ~seed:11 k)) kinds

let small_gen ~w n =
  QCheck.Gen.(array_size (return n) (map (fun x -> x land Ring.mask w) int))

let arb_small ~w n = QCheck.make (small_gen ~w n)

(* Single-bit results are packed flags: reconstruct them as 0/1 words;
   share 0/1 words as a packed flag condition. *)
let bits f = Bits.unpack (Share.reconstruct_flags f)
let share_flags ctx b = Share.pack_flags (Mpc.share_b ctx b)

(* ------------- comparisons ------------- *)

let test_eq_qcheck =
  QCheck.Test.make ~name:"eq circuit" ~count:25
    (QCheck.pair (arb_small ~w:16 13) (arb_small ~w:16 13))
    (fun (x, y) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:3 k in
          (* force some equal pairs *)
          let y = Array.mapi (fun i v -> if i mod 3 = 0 then x.(i) else v) y in
          let r =
            Compare.eq ctx ~w:16 (Mpc.share_b ctx x) (Mpc.share_b ctx y)
            |> bits
          in
          Array.for_all2 (fun got (a, b) -> got = if a = b then 1 else 0)
            r
            (Array.map2 (fun a b -> (a, b)) x y))
        kinds)

let test_lt_qcheck =
  QCheck.Test.make ~name:"lt circuit (unsigned)" ~count:25
    (QCheck.pair (arb_small ~w:20 13) (arb_small ~w:20 13))
    (fun (x, y) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:5 k in
          let r =
            Compare.lt ctx ~w:20 (Mpc.share_b ctx x) (Mpc.share_b ctx y)
            |> bits
          in
          Array.for_all2 (fun got (a, b) -> got = if a < b then 1 else 0)
            r
            (Array.map2 (fun a b -> (a, b)) x y))
        kinds)

let test_lt_odd_width () =
  (* non-power-of-two width exercises the padding blocks *)
  for_all_kinds (fun ctx ->
      let x = [| 0; 1; 17; 16; 30; 31; 5 |] in
      let y = [| 0; 2; 17; 17; 29; 0; 31 |] in
      let r =
        Compare.lt ctx ~w:5 (Mpc.share_b ctx x) (Mpc.share_b ctx y)
        |> bits
      in
      Alcotest.(check vec) "lt w=5" [| 0; 1; 0; 1; 0; 0; 1 |] r)

let test_le_ge_gt () =
  for_all_kinds (fun ctx ->
      let x = [| 1; 5; 9 |] and y = [| 5; 5; 5 |] in
      let sx = Mpc.share_b ctx x and sy = Mpc.share_b ctx y in
      Alcotest.(check vec) "le" [| 1; 1; 0 |]
        (bits (Compare.le ctx ~w:8 sx sy));
      Alcotest.(check vec) "ge" [| 0; 1; 1 |]
        (bits (Compare.ge ctx ~w:8 sx sy));
      Alcotest.(check vec) "gt as swapped lt" [| 0; 0; 1 |]
        (bits (Compare.lt ctx ~w:8 sy sx)))

let test_lt_lex () =
  for_all_kinds (fun ctx ->
      let k1 = [| 1; 1; 2; 2 |] and k2 = [| 7; 9; 3; 3 |] in
      let l1 = [| 1; 1; 2; 2 |] and l2 = [| 9; 7; 3; 4 |] in
      let r =
        Compare.lt_lex ctx
          [
            (Mpc.share_b ctx k1, Mpc.share_b ctx l1, 8);
            (Mpc.share_b ctx k2, Mpc.share_b ctx l2, 8);
          ]
        |> bits
      in
      Alcotest.(check vec) "lex" [| 1; 0; 0; 1 |] r)

let test_eq_composite () =
  for_all_kinds (fun ctx ->
      let a1 = [| 1; 1; 2 |] and a2 = [| 5; 5; 5 |] in
      let b1 = [| 1; 2; 2 |] and b2 = [| 5; 5; 6 |] in
      let r =
        Compare.eq_composite ctx
          [
            (Mpc.share_b ctx a1, Mpc.share_b ctx b1, 8);
            (Mpc.share_b ctx a2, Mpc.share_b ctx b2, 8);
          ]
        |> bits
      in
      Alcotest.(check vec) "composite eq" [| 1; 0; 0 |] r)

(* ------------- mux ------------- *)

let test_mux_b () =
  for_all_kinds (fun ctx ->
      let b = [| 0; 1; 0; 1 |] in
      let x = [| 10; 20; 30; 40 |] and y = [| 1; 2; 3; 4 |] in
      let r =
        Mux.mux_b ctx (share_flags ctx b) (Mpc.share_b ctx x)
          (Mpc.share_b ctx y)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "mux_b" [| 10; 2; 30; 4 |] r)

let test_mux_b_many () =
  for_all_kinds (fun ctx ->
      let b = share_flags ctx [| 1; 0 |] in
      let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
      let out =
        Mux.mux_b_many ctx b
          [
            (Mpc.share_b ctx [| 1; 2 |], Mpc.share_b ctx [| 8; 9 |]);
            (Mpc.share_b ctx [| 3; 4 |], Mpc.share_b ctx [| 6; 7 |]);
          ]
      in
      let tl = Orq_net.Comm.since ctx.Ctx.comm before in
      Alcotest.(check int) "one round for many columns" 1
        tl.Orq_net.Comm.t_rounds;
      match out with
      | [ c1; c2 ] ->
          Alcotest.(check vec) "col1" [| 8; 2 |] (Share.reconstruct c1);
          Alcotest.(check vec) "col2" [| 6; 4 |] (Share.reconstruct c2)
      | _ -> Alcotest.fail "arity")

(* ------------- adder ------------- *)

(* Every adder entry point against plaintext arithmetic mod 2^w, for w in
   [1, 63] with the 2^k and 2^k + 1 widths (where the prefix depth steps)
   forced in, lane lengths around the 63-flag word seams, the extreme
   operands (0, 1, 2^(w-1), 2^w - 1) forced in, with and without a
   carry-in, under all three protocols. *)
let test_adders_qcheck =
  let gen =
    QCheck.Gen.(
      oneof
        [
          int_range 1 63;
          map (fun k -> 1 lsl k) (int_range 0 5);
          map (fun k -> (1 lsl k) + 1) (int_range 0 5);
        ]
      >>= fun w ->
      oneofl [ 1; 5; 62; 63; 64; 65; 127 ] >>= fun n ->
      let m = Ring.mask w in
      let top = 1 lsl (w - 1) in
      (* the leading elements pair up the extremes: x + y = 2^w and
         c - y = -1 run a carry through every bit *)
      let vals extremes =
        map
          (fun r ->
            Array.init n (fun i -> (if i < 5 then extremes.(i) else r.(i)) land m))
          (array_size (return n) int)
      in
      triple (vals [| 0; 1; top; m; m - 1 |]) (vals [| m; m; 1; 1; top |])
        (vals [| 1; m; top; 0; m |])
      >>= fun (x, y, c) ->
      bool >>= fun cin -> return (w, cin, x, y, c))
  in
  QCheck.Test.make ~name:"adders = plaintext mod 2^w" ~count:40
    (QCheck.make
       ~print:(fun (w, cin, x, _, _) ->
         Printf.sprintf "w=%d cin=%b n=%d" w cin (Array.length x))
       gen)
    (fun (w, cin, x, y, c) ->
      let m = Ring.mask w in
      let plain f = Array.init (Array.length x) f in
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:6 k in
          let sx = Mpc.share_b ctx x and sy = Mpc.share_b ctx y in
          let got = Share.reconstruct in
          let ci = if cin then 1 else 0 in
          List.for_all
            (fun (name, r, expect) ->
              ( = ) r expect
              || QCheck.Test.fail_reportf "%s w=%d [%s]" name w
                   (Ctx.kind_label k))
            [
              ( "add",
                got (Adder.add ~cin ctx ~w sx sy),
                plain (fun i -> (x.(i) + y.(i) + ci) land m) );
              ( "add_many",
                got (Adder.add_many ~cin ctx [| (sx, sy, w); (sy, sx, w) |]).(1),
                plain (fun i -> (x.(i) + y.(i) + ci) land m) );
              ( "sub",
                got (Adder.sub ctx ~w sx sy),
                plain (fun i -> (x.(i) - y.(i)) land m) );
              ( "sub_pub_minuend_many",
                got (Adder.sub_pub_minuend_many ctx [| (x, sy, w); (c, sy, w) |]).(1),
                plain (fun i -> (c.(i) - y.(i)) land m) );
              ( "a2b",
                got (Convert.a2b ~w ctx (Mpc.share_a ctx y)),
                plain (fun i -> y.(i) land m) );
            ])
        kinds)

let test_sub () =
  for_all_kinds (fun ctx ->
      let x = [| 10; 0; 100; 7 |] and y = [| 3; 1; 100; 9 |] in
      let r =
        Adder.sub ctx ~w:16 (Mpc.share_b ctx x) (Mpc.share_b ctx y)
        |> Share.reconstruct
      in
      let expect = Array.map2 (fun a b -> (a - b) land Ring.mask 16) x y in
      Alcotest.(check vec) "sub" expect r)

let test_add_pub () =
  for_all_kinds (fun ctx ->
      let c = [| 1; 2; 3 |] in
      let r =
        (Adder.sub_pub_minuend_many ctx
           [| ([| 10; 10; 10 |], Mpc.share_b ctx c, 16) |]).(0)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "sub_pub_minuend_many" [| 9; 8; 7 |] r)

let test_neg () =
  for_all_kinds (fun ctx ->
      let x = [| 1; 0; 255 |] in
      let r =
        (Adder.sub_pub_minuend_many ctx [| (Vec.zeros 3, Mpc.share_b ctx x, 8) |]).(0)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "neg" [| 255; 0; 1 |] r)

(* A shared carry-in bit: (x + y + c) mod 2^w at every width, the leading
   elements running a carry through every bit (x + y = 2^w - 1, c = 1),
   in exactly the rounds of a carry-free adder. *)
let test_add_carry_qcheck =
  let gen =
    QCheck.Gen.(
      int_range 1 61 >>= fun w ->
      let m = Ring.mask w in
      let n = 9 in
      array_size (return n) int >>= fun x ->
      array_size (return n) int >>= fun y ->
      array_size (return n) bool >>= fun c ->
      let x = Array.mapi (fun i v -> if i < 2 then [| m; 0 |].(i) else v land m) x in
      let y = Array.mapi (fun i v -> if i < 2 then [| 0; m |].(i) else v land m) y in
      let c = Array.mapi (fun i b -> if i < 2 then 1 else Bool.to_int b) c in
      return (w, x, y, c))
  in
  QCheck.Test.make ~name:"shared carry-in adder = (x + y + c) mod 2^w"
    ~count:40
    (QCheck.make ~print:(fun (w, _, _, _) -> Printf.sprintf "w=%d" w) gen)
    (fun (w, x, y, c) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:7 k in
          let sx = Mpc.share_b ctx x and sy = Mpc.share_b ctx y in
          let sc = share_flags ctx c in
          let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
          let got = Share.reconstruct (Adder.add_carry ctx ~w sx sy sc) in
          let tl = Orq_net.Comm.since ctx.Ctx.comm before in
          let expect =
            Array.init (Array.length x) (fun i ->
                (x.(i) + y.(i) + c.(i)) land Ring.mask w)
          in
          (( = ) got expect
          || QCheck.Test.fail_reportf "w=%d [%s] values" w (Ctx.kind_label k))
          && (tl.Orq_net.Comm.t_rounds
              = Array.length (Primcost.add k ~w ~n:(Array.length x))
             || QCheck.Test.fail_reportf "w=%d [%s] rounds" w (Ctx.kind_label k)))
        kinds)

(* ------------- conversions ------------- *)

let test_bit_b2a () =
  for_all_kinds (fun ctx ->
      let b = [| 0; 1; 1; 0; 1 |] in
      let r = Convert.bit_b2a ctx (share_flags ctx b) |> Share.reconstruct in
      Alcotest.(check vec) "bit b2a" b r)

let test_b2a_qcheck =
  QCheck.Test.make ~name:"b2a full width" ~count:20 (arb_small ~w:39 9)
    (fun x ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:8 k in
          let r =
            Convert.b2a ~w:40 ctx (Mpc.share_b ctx x) |> Share.reconstruct
          in
          ( = ) r x)
        kinds)

let test_b2a_signed () =
  (* two's-complement interpretation: the top bit weighs negatively *)
  for_all_kinds (fun ctx ->
      let m = Ring.mask 8 in
      let x = [| -3 land m; 127; 128; 255 |] in
      let r =
        Convert.b2a ~w:8 ~signed:true ctx (Mpc.share_b ctx x)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "signed b2a" [| -3; 127; -128; -1 |]
        (Array.map Ring.to_signed r);
      let u = Convert.b2a ~w:8 ctx (Mpc.share_b ctx x) |> Share.reconstruct in
      Alcotest.(check vec) "unsigned b2a (default)" [| 253; 127; 128; 255 |] u)

(* The w bit planes of n elements form one flag lane of w·n, so at these
   n the planes meet mid-word (n mod 63 <> 0), on a word seam (n = 63,
   126) and not at all (n = 0). *)
let test_b2a_plane_seams () =
  List.iter
    (fun k ->
      let ctx = Ctx.create ~seed:13 k in
      List.iter
        (fun (n, w, signed) ->
          let x =
            Array.init n (fun i -> ((i + 1) * 0x9E3779B97F4A7C1) land Ring.mask w)
          in
          let want =
            Array.map
              (fun v ->
                if signed && w < Ring.word_bits && (v lsr (w - 1)) land 1 = 1
                then v - (1 lsl w)
                else v)
              x
          in
          Alcotest.(check vec)
            (Printf.sprintf "%s n=%d w=%d signed=%b" (Ctx.kind_label k) n w
               signed)
            want
            (Convert.b2a ~w ~signed ctx (Mpc.share_b ctx x) |> Share.reconstruct))
        (List.concat_map
           (fun n ->
             List.concat_map
               (fun w -> [ (n, w, false); (n, w, true) ])
               [ 1; 62; 63 ])
           [ 0; 1; 62; 63; 64; 126; 127 ]))
    kinds

let test_a2b_qcheck =
  QCheck.Test.make ~name:"a2b full word" ~count:20 (arb_small ~w:62 9)
    (fun x ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:10 k in
          let r =
            Convert.a2b ~w:Ring.word_bits ctx (Mpc.share_a ctx x)
            |> Share.reconstruct
          in
          ( = ) r x)
        kinds)

let test_a2b_narrow () =
  for_all_kinds (fun ctx ->
      let x = [| 3; 250; 17 |] in
      let r =
        Convert.a2b ~w:8 ctx (Mpc.share_a ctx x) |> Share.reconstruct
      in
      Alcotest.(check vec) "a2b w=8" x r)

let test_b2a_rounds () =
  (* the batched conversion must stay a single online round *)
  let ctx = Ctx.create Ctx.Sh_hm in
  let x = Mpc.share_b ctx [| 1; 2; 3; 4 |] in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  ignore (Convert.b2a ~w:16 ctx x);
  let tl = Orq_net.Comm.since ctx.Ctx.comm before in
  Alcotest.(check int) "b2a single round" 1 tl.Orq_net.Comm.t_rounds

(* ------------- division ------------- *)

let test_div_known () =
  for_all_kinds (fun ctx ->
      let x = [| 7; 7; 5; 4; 2; 0; 100; 99 |] in
      let d = [| 3; 2; 3; 3; 3; 5; 10; 10 |] in
      let q =
        Divide.udiv ctx ~w:8 ~wd:4 (Mpc.share_b ctx x) (Mpc.share_b ctx d)
      in
      Alcotest.(check vec) "quotients" [| 2; 3; 1; 1; 0; 0; 10; 9 |]
        (Share.reconstruct q))

let test_div_qcheck =
  QCheck.Test.make ~name:"non-restoring division" ~count:20
    (QCheck.pair (arb_small ~w:16 7)
       (QCheck.make
          QCheck.Gen.(
            array_size (return 7) (map (fun x -> 1 + (x land 0xFFF)) int))))
    (fun (x, d) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:12 k in
          let q =
            Divide.udiv ctx ~w:16 ~wd:13 (Mpc.share_b ctx x) (Mpc.share_b ctx d)
          in
          ( = ) (Share.reconstruct q) (Array.map2 ( / ) x d))
        kinds)

let div_tally ctx ?qw ~w ~wd x d =
  let sx = Mpc.share_b ctx x and sd = Mpc.share_b ctx d in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let q = Divide.udiv ctx ?qw ~w ~wd sx sd in
  (Share.reconstruct q, Orq_net.Comm.since ctx.Ctx.comm before)

(* A quotient bound of qw bits: x = q·d + r with q < 2^qw, the boundary
   cases forced in (q = 2^qw - 1, d = 1, x = d, x = 0); every run is exact
   and meets the closed-form round count. *)
let test_div_bounded_qcheck =
  let gen =
    QCheck.Gen.(
      int_range 1 40 >>= fun w ->
      int_range 1 w >>= fun wd ->
      int_range 1 w >>= fun qw ->
      let dmax = Ring.mask wd in
      (* largest dividend under both the width and the quotient bound *)
      let xcap d =
        if d > Ring.mask w lsr qw then Ring.mask w else (d lsl qw) - 1
      in
      let case =
        int_range 1 dmax >>= fun d ->
        int_range 0 (xcap d) >>= fun x -> return (x, d)
      in
      array_size (return 5) case >>= fun cases ->
      int_range 1 dmax >>= fun d ->
      let extremes =
        [| (xcap d, d); (xcap 1, 1); (d, d); (0, d); (xcap dmax, dmax) |]
      in
      return (w, wd, qw, Array.append extremes cases))
  in
  QCheck.Test.make ~name:"bounded-quotient division (exact q, rounds)"
    ~count:40
    (QCheck.make
       ~print:(fun (w, wd, qw, c) ->
         Printf.sprintf "w=%d wd=%d qw=%d (x, d)=[%s]" w wd qw
           (String.concat ";"
              (Array.to_list
                 (Array.map (fun (x, d) -> Printf.sprintf "(%d,%d)" x d) c))))
       gen)
    (fun (w, wd, qw, cases) ->
      let x = Array.map fst cases and d = Array.map snd cases in
      List.for_all
        (fun k ->
          let q, tl = div_tally (Ctx.create ~seed:14 k) ~qw ~w ~wd x d in
          ( = ) q (Array.map2 ( / ) x d)
          && tl.Orq_net.Comm.t_rounds = Divide.udiv_rounds ~w ~wd ~qw ())
        kinds)

(* qw adders at wd + 2 bits, each 1 + ⌈log₂(wd + 1)⌉ rounds. *)
let test_div_rounds () =
  List.iter
    (fun (w, wd, qw, expect) ->
      let name = Printf.sprintf "(w=%d, wd=%d, qw=%d)" w wd qw in
      Alcotest.(check int) (name ^ " closed form") expect
        (Divide.udiv_rounds ~w ~wd ~qw ());
      for_all_kinds (fun ctx ->
          let _, tl = div_tally ctx ~qw ~w ~wd [| 7; 9; 0 |] [| 1; 2; 3 |] in
          Alcotest.(check int) (name ^ " measured") expect tl.Orq_net.Comm.t_rounds))
    [ (21, 12, 21, 105); (21, 12, 8, 40); (58, 40, 7, 49); (8, 4, 1, 4); (30, 2, 30, 90) ];
  Alcotest.(check int) "qw defaults to w"
    (Divide.udiv_rounds ~w:21 ~wd:12 ~qw:21 ())
    (Divide.udiv_rounds ~w:21 ~wd:12 ())

let test_div_pub () =
  for_all_kinds (fun ctx ->
      let x = [| 1000; 12345; 77; 64; 0; 65535 |] in
      List.iter
        (fun d ->
          let q = Divide.udiv_pub ctx ~w:16 (Mpc.share_b ctx x) d in
          Alcotest.(check vec)
            (Printf.sprintf "pub quotients by %d" d)
            (Array.map (fun a -> a / d) x)
            (Share.reconstruct q))
        [ 1; 7; 11; 64; 100; 365; 65535; 65536; 100_000 ])

let div_pub_tally ctx ?hi ~w x d =
  let sx = Mpc.share_b ctx x in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let q = Divide.udiv_pub ctx ?hi ~w sx d in
  (Share.reconstruct q, Orq_net.Comm.since ctx.Ctx.comm before)

(* Exact quotients over the whole supported width range, with the extreme
   dividends forced in; every run also meets the closed-form round
   count. *)
let test_div_pub_qcheck =
  let gen =
    QCheck.Gen.(
      int_range 1 61 >>= fun w ->
      int_range 1 5000 >>= fun d ->
      array_size (return 6) (map (fun v -> v land Ring.mask w) int) >>= fun x ->
      return (w, d, Array.append [| 0; Ring.mask w |] x))
  in
  QCheck.Test.make ~name:"public-divisor division (exact q, rounds)" ~count:60
    (QCheck.make
       ~print:(fun (w, d, x) ->
         Printf.sprintf "w=%d d=%d x=[%s]" w d
           (String.concat ";" (Array.to_list (Array.map string_of_int x))))
       gen)
    (fun (w, d, x) ->
      List.for_all
        (fun k ->
          let q, tl = div_pub_tally (Ctx.create ~seed:13 k) ~w x d in
          ( = ) q (Array.map (fun v -> v / d) x)
          && tl.Orq_net.Comm.t_rounds = Divide.pub_rounds ~enc:Share.Bool ~w d)
        kinds)

let mulhi_tally ctx ~hi ~w x d =
  let sx = Mpc.share_a ctx x in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let q = Divide.udiv_pub ctx ~hi ~w sx d in
  (Share.reconstruct q, Orq_net.Comm.since ctx.Ctx.comm before)

(* Oracle of the multiply-high rule, from its definition: the smallest
   s >= ⌈log₂ d⌉ with hi·(m·d − 2^s) < 2^s for m = ⌈2^s/d⌉, and whether
   hi·m fits 61 bits. *)
let mulhi_width ~hi d =
  let limit = Ring.mask 61 in
  let rec go s =
    let p = 1 lsl s in
    let m = (p + d - 1) / d in
    if hi > limit / m then None
    else
      let e = (m * d) - p in
      if e = 0 || hi <= (p - 1) / e then Some (Ring.log2_ceil ((hi * m) + 1))
      else go (s + 1)
  in
  go (Ring.log2_ceil d)

(* The largest dividend bound multiply-high takes for [d] (the fit is
   monotone in hi: a larger hi needs an s and an m no smaller). *)
let mulhi_limit d =
  let rec search lo hi =
    (* mulhi fits at lo, not at hi *)
    if hi - lo <= 1 then lo
    else
      let mid = lo + ((hi - lo) / 2) in
      if mulhi_width ~hi:mid d <> None then search mid hi else search lo mid
  in
  search d (Ring.mask 61)

let a2b_rounds k w = Array.length (Primcost.a2b k ~ell:Ring.word_bits ~w ~n:1)

(* Multiply-high on arithmetic dividends in [0, hi]: the domain edges 0,
   hi, ⌊hi/d⌋·d and ⌊hi/d⌋·d − 1 and d − 1 forced in, random hi up to the
   ring-fit limit and non-power-of-two d <= 10^5; and the first hi past
   that limit, which must take the A2B at w bits plus the boolean
   circuits. Every quotient is exact and every run meets the closed
   form. *)
let test_div_mulhi_qcheck =
  let gen =
    QCheck.Gen.(
      int_range 3 100_000 >>= fun d ->
      let d = if Ring.is_pow2 d then d + 1 else d in
      let limit = mulhi_limit d in
      int_range 1 (Ring.log2_ceil (limit + 1)) >>= fun k ->
      int_range 0 (Ring.mask k) >>= fun r ->
      bool >>= fun past ->
      let hi = if past then limit + 1 else max 1 (min limit r) in
      array_size (return 4) (int_range 0 hi) >>= fun xs ->
      let top = hi / d * d in
      let edges = List.filter (fun v -> v >= 0 && v <= hi) [ 0; hi; top; top - 1; d - 1 ] in
      return (d, hi, past, Array.append (Array.of_list edges) xs))
  in
  QCheck.Test.make ~name:"multiply-high division (exact q, rounds)" ~count:60
    (QCheck.make
       ~print:(fun (d, hi, past, x) ->
         Printf.sprintf "d=%d hi=%d past=%b x=[%s]" d hi past
           (String.concat ";" (Array.to_list (Array.map string_of_int x))))
       gen)
    (fun (d, hi, past, x) ->
      let w = Ring.log2_ceil (hi + 1) in
      let rounds = Divide.pub_rounds ~hi ~enc:Share.Arith ~w d in
      (* the closed form follows the path the rule picks *)
      let path_rounds k =
        match mulhi_width ~hi d with
        | _ when d > hi -> 0
        | Some wide -> a2b_rounds k wide
        | None -> a2b_rounds k w + Divide.pub_rounds ~enc:Share.Bool ~w d
      in
      (mulhi_width ~hi d = None) = past
      && List.for_all
           (fun k ->
             let q, tl = mulhi_tally (Ctx.create ~seed:15 k) ~hi ~w x d in
             (( = ) q (Array.map (fun v -> v / d) x)
             || QCheck.Test.fail_reportf "[%s] quotients" (Ctx.kind_label k))
             && rounds = path_rounds k
             && (tl.Orq_net.Comm.t_rounds = rounds
                || QCheck.Test.fail_reportf "[%s] rounds %d, closed form %d"
                     (Ctx.kind_label k) tl.Orq_net.Comm.t_rounds rounds))
           kinds)

(* Q1's l_extendedprice · (100 − l_discount) / 100, the product's hi
   104950 · 100: s = 30, W = 47, so one A2B at 47 bits; a divisor above
   hi costs nothing. *)
let test_div_mulhi_shape () =
  let hi = 104_950 * 100 and d = 100 in
  let w = Ring.log2_ceil (hi + 1) in
  Alcotest.(check (option int)) "oracle width" (Some 47) (mulhi_width ~hi d);
  Alcotest.(check int) "rounds" (a2b_rounds Ctx.Sh_hm 47)
    (Divide.pub_rounds ~hi ~enc:Share.Arith ~w d);
  Alcotest.(check int) "d > hi" 0 (Divide.pub_rounds ~hi:99 ~enc:Share.Arith ~w:7 100);
  for_all_kinds (fun ctx ->
      let x = [| 0; hi; 12_345_678; hi - 1 |] in
      let q, tl = mulhi_tally ctx ~hi ~w x d in
      Alcotest.(check vec) "quotients" (Array.map (fun v -> v / d) x) q;
      Alcotest.(check int) "measured" (a2b_rounds Ctx.Sh_hm 47) tl.Orq_net.Comm.t_rounds;
      let q, tl = mulhi_tally ctx ~hi:99 ~w:7 [| 0; 99 |] 100 in
      Alcotest.(check vec) "zero quotients" [| 0; 0 |] q;
      Alcotest.(check int) "zero rounds" 0 tl.Orq_net.Comm.t_rounds)

let test_div_pub_rounds () =
  List.iter
    (fun (w, d, expect) ->
      let name = Printf.sprintf "(w=%d, d=%d)" w d in
      Alcotest.(check int) (name ^ " closed form") expect
        (Divide.pub_rounds ~enc:Share.Bool ~w d);
      for_all_kinds (fun ctx ->
          let _, tl = div_pub_tally ctx ~w [| 1; 2; 3 |] d in
          Alcotest.(check int) (name ^ " measured") expect tl.Orq_net.Comm.t_rounds))
    [ (36, 100, 40); (46, 100, 46); (12, 365, 20); (20, 7, 30); (16, 1, 0); (16, 64, 0); (8, 300, 0) ]

let test_div_pub_oblivious () =
  (* the transcript shape is a function of (enc, hi, w, d, n) alone *)
  for_all_kinds (fun ctx ->
      let w = 40 and d = 100 in
      let same what tally x y =
        let t1 = tally x and t2 = tally y in
        Alcotest.(check int) (what ^ " rounds") t1.Orq_net.Comm.t_rounds
          t2.Orq_net.Comm.t_rounds;
        Alcotest.(check int) (what ^ " bits") t1.Orq_net.Comm.t_bits
          t2.Orq_net.Comm.t_bits;
        Alcotest.(check int) (what ^ " messages") t1.Orq_net.Comm.t_messages
          t2.Orq_net.Comm.t_messages
      in
      let lo = [| 0; 0; 0; 0 |] and hi = [| Ring.mask w; 12345; 99; 100 |] in
      same "boolean" (fun x -> snd (div_pub_tally ctx ~w x d)) lo hi;
      same "multiply-high" (fun x -> snd (mulhi_tally ctx ~hi:(Ring.mask w) ~w x d)) lo hi)

let suite =
  [
    QCheck_alcotest.to_alcotest test_eq_qcheck;
    QCheck_alcotest.to_alcotest test_lt_qcheck;
    Alcotest.test_case "lt at odd width" `Quick test_lt_odd_width;
    Alcotest.test_case "le/ge/gt" `Quick test_le_ge_gt;
    Alcotest.test_case "lexicographic lt" `Quick test_lt_lex;
    Alcotest.test_case "composite eq" `Quick test_eq_composite;
    Alcotest.test_case "mux_b" `Quick test_mux_b;
    Alcotest.test_case "mux_b_many (1 round)" `Quick test_mux_b_many;
    QCheck_alcotest.to_alcotest test_adders_qcheck;
    QCheck_alcotest.to_alcotest test_add_carry_qcheck;
    Alcotest.test_case "sub" `Quick test_sub;
    Alcotest.test_case "add/sub with public operand" `Quick test_add_pub;
    Alcotest.test_case "neg" `Quick test_neg;
    Alcotest.test_case "bit b2a" `Quick test_bit_b2a;
    QCheck_alcotest.to_alcotest test_b2a_qcheck;
    Alcotest.test_case "b2a signed/unsigned" `Quick test_b2a_signed;
    Alcotest.test_case "b2a across plane seams" `Quick test_b2a_plane_seams;
    QCheck_alcotest.to_alcotest test_a2b_qcheck;
    Alcotest.test_case "a2b narrow width" `Quick test_a2b_narrow;
    Alcotest.test_case "b2a is one round" `Quick test_b2a_rounds;
    Alcotest.test_case "division known cases" `Quick test_div_known;
    QCheck_alcotest.to_alcotest test_div_qcheck;
    QCheck_alcotest.to_alcotest test_div_bounded_qcheck;
    Alcotest.test_case "secret division round counts" `Quick test_div_rounds;
    Alcotest.test_case "division by public divisor" `Quick test_div_pub;
    QCheck_alcotest.to_alcotest test_div_pub_qcheck;
    Alcotest.test_case "public division round counts" `Quick test_div_pub_rounds;
    QCheck_alcotest.to_alcotest test_div_mulhi_qcheck;
    Alcotest.test_case "multiply-high shape" `Quick test_div_mulhi_shape;
    Alcotest.test_case "public division is oblivious" `Quick test_div_pub_oblivious;
  ]

let () = Alcotest.run "orq_circuits" [ ("circuits", suite) ]
