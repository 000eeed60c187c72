(* Bit-packed flag-lane tests.

   The packing invariant: every packed flag primitive, called on packed
   operands, must produce the opened values and the Comm tallies — bits,
   messages AND rounds, on both the online and the preprocessing counters
   — of the word primitive at width 1 called directly on the same flags
   unpacked. Packing may only change local work and PRG consumption.
   Verified here per primitive under all three protocols; the operators
   built on the packed primitives (quicksort, radixsort in both variants,
   the aggregation network) are checked against plaintext, their tallies
   being pinned per query by the oblivious-transcript certificates. *)

open Orq_util
open Orq_proto
open Orq_circuits
module Comm = Orq_net.Comm

let kinds = Ctx.all_kinds

(* Deterministic 0/1 vector, independent of any ctx PRG. *)
let bitvec n seed =
  Array.init n (fun i -> ((i * 2654435761) lxor seed) lsr 3 land 1)

let share_bits ctx n seed = Mpc.share_b ctx (bitvec n seed)

(* ------------------------------------------------------------------ *)
(* Bits: pack/unpack round-trips and canonical form                    *)
(* ------------------------------------------------------------------ *)

let edge_lengths = [ 0; 1; 63; 64; 65; 4097 ]

(* Set bits across the packed words, tail included: a canonical vector
   counts only its live flags. *)
let popcount t =
  Array.fold_left (fun acc x -> acc + Ring.popcount x) 0 (Bits.words t)

let test_bits_roundtrip () =
  List.iter
    (fun n ->
      let v = bitvec n (n + 11) in
      let t = Bits.pack v in
      Alcotest.(check int) (Printf.sprintf "length n=%d" n) n (Bits.length t);
      Alcotest.(check (array int))
        (Printf.sprintf "pack/unpack n=%d" n)
        v (Bits.unpack t);
      Array.iteri
        (fun i b ->
          Alcotest.(check int) (Printf.sprintf "get n=%d i=%d" n i) b
            (Bits.get t i))
        v;
      Alcotest.(check int)
        (Printf.sprintf "popcount n=%d" n)
        (Array.fold_left ( + ) 0 v)
        (popcount t);
      (* canonical tail: words survive an of_words round-trip *)
      let t' = Bits.of_words n (Array.copy (Bits.words t)) in
      Alcotest.(check bool) (Printf.sprintf "of_words n=%d" n) true
        (t = t');
      Alcotest.(check (array int))
        (Printf.sprintf "extend n=%d" n)
        (Array.map (fun b -> -b) v)
        (Bits.extend t))
    edge_lengths

let test_bits_ops () =
  List.iter
    (fun n ->
      let va = bitvec n 3 and vb = bitvec n 19 in
      let a = Bits.pack va and b = Bits.pack vb in
      let map2 f = Array.init n (fun i -> f va.(i) vb.(i)) in
      Alcotest.(check (array int))
        (Printf.sprintf "xor n=%d" n)
        (map2 ( lxor ))
        (Bits.unpack (Bits.xor a b));
      let nt = Bits.bnot a in
      Alcotest.(check (array int))
        (Printf.sprintf "bnot n=%d" n)
        (Array.map (fun x -> 1 - x) va)
        (Bits.unpack nt);
      (* bnot stays canonical: popcount counts only live flags *)
      Alcotest.(check int)
        (Printf.sprintf "bnot canonical n=%d" n)
        (n - Array.fold_left ( + ) 0 va)
        (popcount nt);
      let want = Array.concat [ va; vb; Array.sub va 0 (n / 2); vb ] in
      let cat =
        Bits.concat_many [| a; b; Bits.pack (Array.sub va 0 (n / 2)); b |]
      in
      Alcotest.(check (array int))
        (Printf.sprintf "concat_many n=%d" n)
        want (Bits.unpack cat);
      (* concatenation stays canonical across unaligned word seams *)
      Alcotest.(check int)
        (Printf.sprintf "concat_many canonical n=%d" n)
        (Array.fold_left ( + ) 0 want)
        (popcount cat))
    [ 1; 63; 64; 65; 4097 ]

(* ------------------------------------------------------------------ *)
(* Packed == unpacked: values and tallies per primitive                *)
(* ------------------------------------------------------------------ *)

type tallies = { online : Comm.tally; preproc : Comm.tally }

(* Run [f] on a fresh ctx; return (values, tallies). *)
let run_on kind (f : Ctx.t -> int array list) : int array list * tallies =
  let ctx = Ctx.create ~seed:77 kind in
  let c0 = Comm.snapshot ctx.Ctx.comm in
  let p0 = Comm.snapshot ctx.Ctx.preproc in
  let vs = f ctx in
  ( vs,
    {
      online = Comm.since ctx.Ctx.comm c0;
      preproc = Comm.since ctx.Ctx.preproc p0;
    } )

(* [packed] and [word] share their operands from the same seed in the same
   order, so both sides see identical flags. *)
let check_packed_eq_word lbl kind ~packed ~word =
  let vp, tp = run_on kind packed in
  let vw, tw = run_on kind word in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check (array int)) (Printf.sprintf "%s value %d" lbl i) b a)
    (List.combine vp vw);
  let ck what a b =
    Alcotest.(check int) (Printf.sprintf "%s %s" lbl what) b a
  in
  ck "online bits" tp.online.Comm.t_bits tw.online.Comm.t_bits;
  ck "online messages" tp.online.Comm.t_messages tw.online.Comm.t_messages;
  ck "online rounds" tp.online.Comm.t_rounds tw.online.Comm.t_rounds;
  ck "preproc bits" tp.preproc.Comm.t_bits tw.preproc.Comm.t_bits;
  ck "preproc messages" tp.preproc.Comm.t_messages tw.preproc.Comm.t_messages

let flag_values fs =
  List.map (fun f -> Bits.unpack (Share.reconstruct_flags f)) fs

let test_primitives_packed_eq_unpacked () =
  List.iter
    (fun kind ->
      let lbl = Ctx.kind_label kind in
      List.iter
        (fun n ->
          check_packed_eq_word
            (Printf.sprintf "%s n=%d primitives" lbl n)
            kind
            ~packed:(fun ctx ->
              let x = Share.pack_flags (share_bits ctx n 1) in
              let y = Share.pack_flags (share_bits ctx n 2) in
              let band = Mpc.band_f ctx x y in
              let bxor = Mpc.xor_f x y in
              let bnot = Mpc.bnot_f x in
              let opened = Mpc.open_f ctx band in
              flag_values [ band; bxor; bnot ] @ [ Bits.unpack opened ])
            ~word:(fun ctx ->
              let x = share_bits ctx n 1 in
              let y = share_bits ctx n 2 in
              let band = Mpc.band ~width:1 ctx x y in
              let bxor = Mpc.xor x y in
              let bnot = Mpc.xor_pub x 1 in
              let opened = Mpc.open_ ~width:1 ctx band in
              List.map Share.reconstruct [ band; bxor; bnot ] @ [ opened ]))
        [ 1; 63; 64; 65; 200 ])
    kinds

let test_many_and_b2a_packed_eq_unpacked () =
  List.iter
    (fun kind ->
      let lbl = Ctx.kind_label kind in
      let n = 130 and k = 5 in
      let ones = Array.make k 1 in
      let operands ctx =
        let xs = Array.init k (fun i -> share_bits ctx n (10 + i)) in
        let ys = Array.init k (fun i -> share_bits ctx n (20 + i)) in
        (xs, ys)
      in
      check_packed_eq_word (lbl ^ " band_f_many/bor_f_many/open_f_many") kind
        ~packed:(fun ctx ->
          let xs, ys = operands ctx in
          let xs = Array.map Share.pack_flags xs
          and ys = Array.map Share.pack_flags ys in
          let ands = Mpc.band_f_many ctx xs ys in
          let ors = Mpc.bor_f_many ctx xs ys in
          let cs = Mpc.open_f_many ctx ors in
          flag_values (Array.to_list ands)
          @ Array.to_list (Array.map Bits.unpack cs))
        ~word:(fun ctx ->
          let xs, ys = operands ctx in
          let ands = Mpc.band_many ~widths:ones ctx xs ys in
          let ors = Mpc.bor_many ~widths:ones ctx xs ys in
          let cs = Mpc.open_many ~widths:ones ctx ors in
          Array.to_list (Array.map Share.reconstruct ands) @ Array.to_list cs);
      (* packed B2A: the plaintext bits as arithmetic 0/1, for the online
         charge of one fused width-1 opening of the same lanes *)
      let bits = Array.init k (fun i -> bitvec n (30 + i)) in
      let ctx = Ctx.create ~seed:77 kind in
      let fs = Array.map (fun b -> Share.pack_flags (Mpc.share_b ctx b)) bits in
      let before = Comm.snapshot ctx.Ctx.comm in
      let ariths = Convert.bit_b2a_many ctx fs in
      let got = Comm.since ctx.Ctx.comm before in
      Array.iteri
        (fun i a ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s bit_b2a_many lane %d" lbl i)
            bits.(i) (Share.reconstruct a))
        ariths;
      let octx = Ctx.create ~seed:77 kind in
      let words = Array.map (Mpc.share_b octx) bits in
      let o0 = Comm.snapshot octx.Ctx.comm in
      ignore (Mpc.open_many ~widths:ones octx words);
      let want = Comm.since octx.Ctx.comm o0 in
      Alcotest.(check int) (lbl ^ " bit_b2a_many bits") want.Comm.t_bits
        got.Comm.t_bits;
      Alcotest.(check int)
        (lbl ^ " bit_b2a_many messages")
        want.Comm.t_messages got.Comm.t_messages;
      Alcotest.(check int) (lbl ^ " bit_b2a_many rounds") 1
        got.Comm.t_rounds)
    kinds

(* A packed AND of single-bit operands must be value- and
   traffic-identical to the word AND at width 1. *)
let test_band_f_vs_band_width1 () =
  List.iter
    (fun kind ->
      let lbl = Ctx.kind_label kind in
      let run f =
        let ctx = Ctx.create ~seed:99 kind in
        let x = share_bits ctx 77 4 and y = share_bits ctx 77 5 in
        let before = Comm.snapshot ctx.Ctx.comm in
        let z = f ctx x y in
        (Share.reconstruct z, Comm.since ctx.Ctx.comm before)
      in
      let v1, t1 =
        run (fun ctx x y ->
            Share.unpack_flags
              (Mpc.band_f ctx (Share.pack_flags x) (Share.pack_flags y)))
      in
      let v2, t2 = run (fun ctx x y -> Mpc.band ~width:1 ctx x y) in
      Alcotest.(check (array int)) (lbl ^ " band_f value") v2 v1;
      Alcotest.(check int) (lbl ^ " band_f bits") t2.Comm.t_bits t1.Comm.t_bits;
      Alcotest.(check int)
        (lbl ^ " band_f messages")
        t2.Comm.t_messages t1.Comm.t_messages;
      Alcotest.(check int)
        (lbl ^ " band_f rounds")
        t2.Comm.t_rounds t1.Comm.t_rounds)
    kinds

(* ------------------------------------------------------------------ *)
(* End to end: operators on packed lanes match plaintext               *)
(* ------------------------------------------------------------------ *)

(* Indices 0..n-1 stably ordered by [keys]. *)
let stable_order keys =
  let idx = List.init (Array.length keys) Fun.id in
  Array.of_list (List.stable_sort (fun i j -> compare keys.(i) keys.(j)) idx)

let test_e2e_quicksort () =
  List.iter
    (fun kind ->
      let lbl = Ctx.kind_label kind in
      let ctx = Ctx.create ~seed:77 kind in
      let n = 40 in
      (* unique keys: a fixed permutation of 0..n-1 *)
      let keys = Array.init n (fun i -> (i * 17) mod n) in
      let carry = Array.init n (fun i -> i * 3) in
      let kc = Mpc.share_b ctx keys and cc = Mpc.share_b ctx carry in
      let module Q = Orq_sort.Quicksort in
      let ks, cs =
        Q.sort ctx
          ~keys:[ (kc, 8) ]
          [ (cc, ctx.Ctx.ell) ]
      in
      let order = stable_order keys in
      Alcotest.(check (array int)) (lbl ^ " quicksort keys")
        (Array.map (fun i -> keys.(i)) order)
        (Share.reconstruct (List.hd ks));
      Alcotest.(check (array int)) (lbl ^ " quicksort carry")
        (Array.map (fun i -> carry.(i)) order)
        (Share.reconstruct (List.hd cs)))
    kinds

let test_e2e_radixsort () =
  List.iter
    (fun kind ->
      let lbl = Ctx.kind_label kind in
      let ctx = Ctx.create ~seed:77 kind in
      let n = 40 in
      let keys = Array.init n (fun i -> (i * 13) mod 32) in
      let carry = Array.init n (fun i -> 1000 + i) in
      let kc = Mpc.share_b ctx keys and cc = Mpc.share_b ctx carry in
      let k1, r1 = Orq_sort.Radixsort.sort ctx ~bits:5 kc [ cc ] in
      let (k2, r2), sigma =
        Orq_sort.Radix_compose.sort_with_perm ctx ~bits:5 kc [ cc ]
      in
      (* both variants are stable: ties keep their input order *)
      let order = stable_order keys in
      let want_keys = Array.map (fun i -> keys.(i)) order in
      let want_carry = Array.map (fun i -> carry.(i)) order in
      List.iter
        (fun (name, k, r) ->
          Alcotest.(check (array int)) (lbl ^ " " ^ name ^ " keys") want_keys
            (Share.reconstruct k);
          Alcotest.(check (array int)) (lbl ^ " " ^ name ^ " carry") want_carry
            (Share.reconstruct (List.hd r)))
        [ ("radixsort", k1, r1); ("radix_compose", k2, r2) ];
      Alcotest.(check (array int)) (lbl ^ " radix_compose sigma") want_carry
        (Orq_util.Vec.scatter carry (Share.reconstruct sigma)))
    kinds

let test_e2e_aggnet () =
  List.iter
    (fun kind ->
      let lbl = Ctx.kind_label kind in
      let ctx = Ctx.create ~seed:77 kind in
      let n = 24 and g = 4 in
      (* sorted grouping key with repeats (groups of [g] rows), plus the
         all-valid column every aggregation key must include *)
      let keys = Array.init n (fun i -> i / g) in
      let vals = Array.init n (fun i -> (i * 7) mod 50) in
      let akeys =
        [ (Share.public ctx Share.Bool n 1, 1); (Mpc.share_b ctx keys, 6) ]
      in
      let va = Mpc.share_a ctx vals and vb = Mpc.share_b ctx vals in
      let module A = Orq_core.Aggnet in
      let out =
        A.run ctx ~keys:akeys
          [
            { A.col = va; func = A.Sum; keys = A.Group; width = 16 };
            { A.col = vb; func = A.Min 8; keys = A.Group; width = 8 };
            { A.col = vb; func = A.Copy; keys = A.Group; width = 8 };
          ]
      in
      let dist = A.distinct_bits ctx ~keys:akeys in
      let sums, mins, copies =
        match List.map Share.reconstruct out with
        | [ s; m; c ] -> (s, m, c)
        | _ -> Alcotest.fail "arity"
      in
      let group i = Array.sub vals (i / g * g) g in
      for i = 0 to n - 1 do
        let l = Printf.sprintf "%s row %d" lbl i in
        (* totals land in each group's last row *)
        if i mod g = g - 1 then begin
          Alcotest.(check int) (l ^ " sum")
            (Array.fold_left ( + ) 0 (group i))
            sums.(i);
          Alcotest.(check int) (l ^ " min")
            (Array.fold_left min max_int (group i))
            mins.(i)
        end;
        Alcotest.(check int) (l ^ " copy") (group i).(0) copies.(i)
      done;
      Alcotest.(check (array int)) (lbl ^ " distinct bits")
        (Array.init n (fun i -> if i mod g = 0 then 1 else 0))
        (Bits.unpack (Share.reconstruct_flags dist)))
    kinds

(* The packed quicksort sorts a larger permutation. *)
let test_quicksort_sorts () =
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:5 kind in
      let n = 64 in
      let keys = Array.init n (fun i -> (i * 29) mod n) in
      let kc = Mpc.share_b ctx keys in
      let module Q = Orq_sort.Quicksort in
      let ks, _ =
        Q.sort ctx ~keys:[ (kc, 8) ] []
      in
      let got = Share.reconstruct (List.hd ks) in
      let want = Array.init n (fun i -> i) in
      Alcotest.(check (array int))
        (Ctx.kind_label kind ^ " sorted")
        want got)
    kinds

let () =
  Alcotest.run "bitpack"
    [
      ( "bits",
        [
          Alcotest.test_case "pack/unpack round-trips" `Quick
            test_bits_roundtrip;
          Alcotest.test_case "bulk ops + structural ops" `Quick test_bits_ops;
        ] );
      ( "packed == unpacked",
        [
          Alcotest.test_case "primitives: values and tallies" `Quick
            test_primitives_packed_eq_unpacked;
          Alcotest.test_case "_many + bit_b2a: values and tallies" `Quick
            test_many_and_b2a_packed_eq_unpacked;
          Alcotest.test_case "band_f == band ~width:1" `Quick
            test_band_f_vs_band_width1;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "quicksort matches plaintext" `Quick
            test_e2e_quicksort;
          Alcotest.test_case "radixsort matches plaintext" `Quick
            test_e2e_radixsort;
          Alcotest.test_case "aggregation matches plaintext" `Quick
            test_e2e_aggnet;
          Alcotest.test_case "packed quicksort sorts" `Quick
            test_quicksort_sorts;
        ] );
    ]
