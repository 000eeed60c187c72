(* Tests for the oblivious sorting layer: genBitPerm, hybrid radixsort,
   compose-based radixsort, iterative quicksort, bitonic network, and
   TableSort with its permutation extraction. *)

open Orq_util
open Orq_proto
open Orq_sort
module Tablesort = Orq_core.Tablesort

let kinds = Ctx.all_kinds
let vec = Alcotest.(array int)
let for_all_kinds f = List.iter (fun k -> f (Ctx.create ~seed:33 k)) kinds

let sorted_asc a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let sorted_desc a =
  let b = Array.copy a in
  Array.sort (fun x y -> compare y x) b;
  b

(* ---------------- genBitPerm over digits ---------------- *)

let gen_bits ctx bits =
  Genbitperm.gen_digit ctx [| Share.pack_flags (Mpc.share_b ctx bits) |]
  |> Share.reconstruct

let test_genbitperm () =
  for_all_kinds (fun ctx ->
      let bits = [| 1; 0; 1; 0; 0; 1; 0 |] in
      (* stable: zeros keep order at the front, ones after *)
      Alcotest.(check vec) "destinations" [| 4; 0; 5; 1; 2; 6; 3 |]
        (gen_bits ctx bits))

(* The destinations of the stable sort of [keys]: the unique permutation
   that sorts them and keeps equal keys in input order. *)
let stable_dests keys =
  let order = Array.init (Array.length keys) Fun.id in
  Array.stable_sort (fun i j -> compare keys.(i) keys.(j)) order;
  let dest = Array.make (Array.length keys) 0 in
  Array.iteri (fun r i -> dest.(i) <- r) order;
  dest

let qcheck_genbitperm =
  QCheck.Test.make ~name:"genBitPerm is the stable bit-sort permutation"
    ~count:25
    QCheck.(list_of_size Gen.(int_range 1 40) bool)
    (fun bl ->
      let bits = Array.of_list (List.map (fun b -> if b then 1 else 0) bl) in
      List.for_all
        (fun k -> gen_bits (Ctx.create ~seed:17 k) bits = stable_dests bits)
        kinds)

(* Random L-bit digits, L = 1 .. 3, over 1 or 2 rows or up to 40, drawn
   from a random nonempty subset of the 2^L values: runs repeat values
   and usually miss some, and a one-value subset makes the digit
   constant. *)
let qcheck_gen_digit =
  QCheck.Test.make ~name:"gen_digit: stable 1-3-bit digit sort"
    ~count:40
    QCheck.(
      triple (int_range 1 3) (int_range 1 max_int)
        (list_of_size Gen.(oneof [ return 1; return 2; int_range 1 40 ]) (int_bound 7)))
    (fun (l, allowed, dl) ->
      let nv = 1 lsl l in
      let allowed = 1 + (allowed mod ((1 lsl nv) - 1)) in
      let values = List.filter (fun d -> allowed land (1 lsl d) <> 0) (List.init nv Fun.id) in
      let pick i = List.nth values (i mod List.length values) in
      let digits = Array.of_list (List.map pick dl) in
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:37 k in
          let d = Mpc.share_b ctx digits in
          let flags = Array.init l (fun j -> Mpc.extract_bit_f d j) in
          Share.reconstruct (Genbitperm.gen_digit ctx flags)
          = stable_dests digits)
        kinds)

(* Every digit vector of one and two rows, and constant digits of every
   value over seven rows, at every digit width; four bits are refused. *)
let test_gen_digit_edges () =
  for_all_kinds (fun ctx ->
      for l = 1 to 3 do
        let nv = 1 lsl l in
        let cases =
          List.init nv (fun v -> [| v |])
          @ List.init (nv * nv) (fun v -> [| v mod nv; v / nv |])
          @ List.init nv (fun v -> Array.make 7 v)
        in
        List.iter
          (fun digits ->
            let d = Mpc.share_b ctx digits in
            let flags = Array.init l (fun j -> Mpc.extract_bit_f d j) in
            Alcotest.(check vec)
              (Printf.sprintf "%s L=%d %s" (Ctx.kind_label ctx.Ctx.kind) l
                 (String.concat "," (Array.to_list (Array.map string_of_int digits))))
              (stable_dests digits)
              (Share.reconstruct (Genbitperm.gen_digit ctx flags)))
          cases
      done;
      let f = Mpc.extract_bit_f (Mpc.share_b ctx [| 1; 0 |]) 0 in
      Alcotest.check_raises "4-bit digit"
        (Invalid_argument "Genbitperm.gen_digit: digits are 1, 2 or 3 bits")
        (fun () -> ignore (Genbitperm.gen_digit ctx (Array.make 4 f))))

(* ---------------- radixsort ---------------- *)

let test_radix_basic () =
  for_all_kinds (fun ctx ->
      let x = [| 9; 3; 7; 3; 0; 15; 3; 8 |] in
      let y, _ = Radixsort.sort ctx ~bits:4 (Mpc.share_b ctx x) [] in
      Alcotest.(check vec) "ascending" (sorted_asc x) (Share.reconstruct y))

let test_radix_desc () =
  for_all_kinds (fun ctx ->
      let x = [| 9; 3; 7; 3; 0; 15; 3; 8 |] in
      match
        Tablesort.sort_cols ctx ~algo:Tablesort.Radixsort
          ~keys:[ (Share.wrap (Mpc.share_b ctx x), 4, Tablesort.Desc) ]
          []
      with
      | [ y ], [] ->
          Alcotest.(check vec) "descending" (sorted_desc x) (Share.reconstruct_c y)
      | _ -> Alcotest.fail "arity")

let test_radix_carry_and_stability () =
  for_all_kinds (fun ctx ->
      (* carry column records original position; equal keys must keep
         their original relative order (stability) *)
      let x = [| 5; 1; 5; 1; 5; 0 |] in
      let pos = [| 0; 1; 2; 3; 4; 5 |] in
      let y, carry =
        Radixsort.sort ctx ~bits:3 (Mpc.share_b ctx x)
          [ Mpc.share_b ctx pos ]
      in
      Alcotest.(check vec) "keys" [| 0; 1; 1; 5; 5; 5 |] (Share.reconstruct y);
      match carry with
      | [ c ] ->
          Alcotest.(check vec) "stable carry" [| 5; 1; 3; 0; 2; 4 |]
            (Share.reconstruct c)
      | _ -> Alcotest.fail "arity")

let test_radix_skip () =
  for_all_kinds (fun ctx ->
      (* sorting on bits [2..3] only groups by the high part *)
      let x = [| 0b1100; 0b0001; 0b1000; 0b0111 |] in
      let y, _ =
        Radixsort.sort ctx ~bits:2 ~skip:2 (Mpc.share_b ctx x) []
      in
      Alcotest.(check vec) "high bits sorted" [| 0b0001; 0b0111; 0b1000; 0b1100 |]
        (Share.reconstruct y))

let qcheck_radix =
  QCheck.Test.make ~name:"radixsort sorts" ~count:15
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 1023))
    (fun xl ->
      let x = Array.of_list xl in
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:19 k in
          let y, _ = Radixsort.sort ctx ~bits:10 (Mpc.share_b ctx x) [] in
          Share.reconstruct y = sorted_asc x)
        kinds)

(* Odd and even bit counts (ending on a 1-bit digit or not), nonzero skip
   and both directions, with a position carry that pins stability. A
   descending field sorts as its complement, as TableSort sorts it. *)
let test_radix_digits () =
  let n = 23 in
  let x = Array.init n (fun i -> (i * 97 + 13) mod 61) in
  let pos = Array.init n Fun.id in
  for_all_kinds (fun ctx ->
      List.iter
        (fun (bits, skip, desc) ->
          let field v = (v lsr skip) land ((1 lsl bits) - 1) in
          let rank v = if desc then -field v else field v in
          let order = Array.copy pos in
          Array.stable_sort (fun i j -> compare (rank x.(i)) (rank x.(j))) order;
          let flip = if desc then ((1 lsl bits) - 1) lsl skip else 0 in
          let y, carry =
            Radixsort.sort ctx ~bits ~skip
              (Mpc.share_b ctx (Array.map (fun v -> v lxor flip) x))
              [ Mpc.share_b ctx pos ]
          in
          let what = Printf.sprintf "%s bits=%d skip=%d %s"
              (Ctx.kind_label ctx.Ctx.kind) bits skip
              (if desc then "desc" else "asc")
          in
          Alcotest.(check vec) (what ^ " keys") (Array.map (fun i -> x.(i)) order)
            (Array.map (fun v -> v lxor flip) (Share.reconstruct y));
          match carry with
          | [ c ] ->
              Alcotest.(check vec) (what ^ " stable carry") order
                (Share.reconstruct c)
          | _ -> Alcotest.fail "arity")
        [
          (3, 0, false); (4, 0, false); (5, 1, false);
          (4, 2, true); (5, 0, true); (1, 3, true);
        ])

(* A w-bit radix sort of a key alone (moved at ell = 64 bits) costs, per
   digit of the schedule, the closed-form ranking plus one Protocol-5
   application: rounds, bits and messages. *)
let test_radix_round_shape () =
  let n = 40 in
  let x = Array.init n (fun i -> (i * 37) land 127) in
  List.iter
    (fun kind ->
      let sort_tally w =
        let ctx = Ctx.create ~seed:41 kind in
        let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
        ignore (Radixsort.sort ctx ~bits:w (Mpc.share_b ctx x) []);
        Orq_net.Comm.since ctx.Ctx.comm before
      in
      let predicted w = Radix_cost.word kind ~n ~w ~moved:(fun _ -> 64) in
      let label = Ctx.kind_label kind in
      for w = 1 to 10 do
        let got = sort_tally w and want = predicted w in
        Alcotest.(check (array int))
          (Printf.sprintf "%s w=%d rounds, bits, messages" label w)
          Orq_net.Comm.[| want.t_rounds; want.t_bits; want.t_messages |]
          Orq_net.Comm.[| got.t_rounds; got.t_bits; got.t_messages |]
      done;
      let rounds w = (sort_tally w).Orq_net.Comm.t_rounds in
      match kind with
      | Ctx.Sh_dm -> Alcotest.(check int) (label ^ " 1-bit digits") (3 * rounds 1) (rounds 3)
      | Ctx.Sh_hm | Ctx.Mal_hm ->
          Alcotest.(check bool) (label ^ " 3-bit digit beats three bits") true
            (rounds 3 < 3 * rounds 1))
    kinds

(* Whatever the digit width, a radix sort advances the shuffle stream by
   one sharded permutation per key bit, so the permutations drawn after it
   (and a later quicksort's data-dependent recursion) do not depend on the
   digit width. *)
let test_radix_shuffle_stream () =
  let n = 40 in
  let x = Array.init n (fun i -> (i * 37) land 127) in
  List.iter
    (fun kind ->
      for w = 1 to 5 do
        let sorted = Ctx.create ~seed:71 kind
        and bitwise = Ctx.create ~seed:71 kind in
        ignore (Radixsort.sort sorted ~bits:w (Mpc.share_b sorted x) []);
        for _ = 1 to w do
          ignore (Orq_shuffle.Shardedperm.gen bitwise n)
        done;
        Alcotest.(check int)
          (Printf.sprintf "%s w=%d next shuffle word" (Ctx.kind_label kind) w)
          (Prg.word bitwise.Ctx.perm_prg)
          (Prg.word sorted.Ctx.perm_prg)
      done)
    kinds

(* A 2PC radix sort must stay byte-identical to bit-at-a-time ranking:
   MD5 of the output share vectors plus the online and preprocessing
   tallies, recorded from the 1-bit generator it replaced. The online bits
   were re-recorded when index vectors narrowed from 32 bits to
   [Ring.index_bits 40] = 6: 123360 - 73440 = 6 digits x 26 bits x 40 rows
   x (4 for the ranking product + 2 for the rho shuffle + 2 for its
   open). *)
let sh_dm_radix_digest () =
  let ctx = Ctx.create ~seed:0x5047 Ctx.Sh_dm in
  let n = 40 in
  let x = Array.init n (fun i -> (i * 2654435761) land 63) in
  let pos = Array.init n (fun i -> 1000 + i) in
  let key = Mpc.share_b ctx x and carry = Mpc.share_b ctx pos in
  let c0 = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let p0 = Orq_net.Comm.snapshot ctx.Ctx.preproc in
  let y, rest = Radixsort.sort ctx ~bits:6 key [ carry ] in
  let tally (t : Orq_net.Comm.tally) =
    Orq_net.Comm.[| t.t_rounds; t.t_bits; t.t_messages |]
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Share.shared) ->
      Array.iter
        (fun v ->
          Array.iter (fun e -> Buffer.add_string b (string_of_int e ^ ",")) v;
          Buffer.add_char b ';')
        s.Share.v)
    (y :: rest);
  ( tally (Orq_net.Comm.since ctx.Ctx.comm c0),
    tally (Orq_net.Comm.since ctx.Ctx.preproc p0),
    Digest.to_hex (Digest.string (Buffer.contents b)) )

let test_sh_dm_radix_golden () =
  let online, preproc, digest = sh_dm_radix_digest () in
  Alcotest.(check (array int)) "online rounds, bits, messages" [| 30; 73440; 60 |] online;
  Alcotest.(check (array int)) "preproc rounds, bits, messages" [| 24; 277440; 48 |] preproc;
  Alcotest.(check string) "output shares" "857651f53b04c5b4468d20b916d4aff8" digest

(* ---------------- compose-based radixsort (Asharov) ---------------- *)

let test_radix_compose_matches () =
  for_all_kinds (fun ctx ->
      let x = [| 12; 4; 4; 30; 0; 7; 19; 7 |] in
      let y, _ = Radix_compose.sort ctx ~bits:5 (Mpc.share_b ctx x) [] in
      Alcotest.(check vec) "compose variant sorts" (sorted_asc x)
        (Share.reconstruct y))

let test_radix_compose_perm () =
  for_all_kinds (fun ctx ->
      let x = [| 3; 1; 2; 0 |] in
      let (_, _), sigma =
        Radix_compose.sort_with_perm ctx ~bits:2 (Mpc.share_b ctx x) []
      in
      let s = Share.reconstruct sigma in
      Alcotest.(check bool) "perm" true (Orq_shuffle.Localperm.is_permutation s);
      Alcotest.(check vec) "perm sorts input" (sorted_asc x)
        (Orq_util.Vec.scatter x s))

let test_hybrid_fewer_rounds () =
  (* the paper's Appendix B.3 claim: the hybrid saves rounds vs compose *)
  List.iter
    (fun k ->
      let run f =
        let ctx = Ctx.create ~seed:23 k in
        let x = Mpc.share_b ctx (Array.init 32 (fun i -> (i * 37) land 255)) in
        let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
        f ctx x;
        (Orq_net.Comm.since ctx.Ctx.comm before).Orq_net.Comm.t_rounds
      in
      let hybrid = run (fun ctx x -> ignore (Radixsort.sort ctx ~bits:8 x [])) in
      let compose =
        run (fun ctx x -> ignore (Radix_compose.sort ctx ~bits:8 x []))
      in
      Alcotest.(check bool)
        (Ctx.kind_label k ^ " hybrid fewer rounds")
        true (hybrid < compose))
    kinds

(* ---------------- quicksort ---------------- *)

let test_quicksort_unique () =
  for_all_kinds (fun ctx ->
      let x = [| 42; 17; 99; 3; 55; 21; 0; 63; 8 |] in
      match
        Quicksort.sort ctx ~keys:[ (Mpc.share_b ctx x, 8) ] []
      with
      | [ y ], [] ->
          Alcotest.(check vec) "sorted" (sorted_asc x) (Share.reconstruct y)
      | _ -> Alcotest.fail "arity")

let test_quicksort_desc_carry () =
  for_all_kinds (fun ctx ->
      let x = [| 4; 9; 1; 6 |] in
      let tag = [| 40; 90; 10; 60 |] in
      match
        Tablesort.sort_cols ctx ~algo:Tablesort.Quicksort
          ~keys:[ (Share.wrap (Mpc.share_b ctx x), 8, Tablesort.Desc) ]
          [ (Share.wrap (Mpc.share_b ctx tag), 8) ]
      with
      | [ y ], [ t ] ->
          Alcotest.(check vec) "desc keys" [| 9; 6; 4; 1 |]
            (Share.reconstruct_c y);
          Alcotest.(check vec) "carry follows" [| 90; 60; 40; 10 |]
            (Share.reconstruct_c t)
      | _ -> Alcotest.fail "arity")

(* Lexicographic over two columns; the second, complemented, sorts
   descending within the first. *)
let test_quicksort_composite () =
  for_all_kinds (fun ctx ->
      let k1 = [| 2; 1; 2; 1 |] and k2 = [| 0; 5; 3; 2 |] in
      match
        Quicksort.sort ctx
          ~keys:
            [
              (Mpc.share_b ctx k1, 4);
              (Mpc.share_b ctx (Array.map (fun v -> v lxor 15) k2), 4);
            ]
          []
      with
      | [ a; b ], [] ->
          Alcotest.(check vec) "k1" [| 1; 1; 2; 2 |] (Share.reconstruct a);
          Alcotest.(check vec) "k2 desc within k1" [| 5; 2; 3; 0 |]
            (Array.map (fun v -> v lxor 15) (Share.reconstruct b))
      | _ -> Alcotest.fail "arity")

let qcheck_quicksort =
  QCheck.Test.make ~name:"quicksort sorts unique keys" ~count:15
    QCheck.(int_bound 1000)
    (fun seed ->
      let prg = Prg.create (seed + 71) in
      let n = 1 + Prg.int_below prg 60 in
      (* unique keys via a random permutation *)
      let x =
        Array.map (fun i -> i * 3) (Orq_shuffle.Localperm.random prg n)
      in
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:(seed + 5) k in
          match
            Quicksort.sort ctx ~keys:[ (Mpc.share_b ctx x, 16) ] []
          with
          | [ y ], [] -> Share.reconstruct y = sorted_asc x
          | _ -> false)
        kinds)

(* Quicksort cuts its recursion after a number of partition levels fixed
   by n and finishes with one all-pairs round, so different shuffles and
   input orders of the same size take the same rounds. A descending input
   sorts as its complement. *)
let test_quicksort_rounds_fixed_by_n () =
  let n = 3000 in
  let inputs =
    [
      (5, false, Array.map (fun i -> i * 3) (Orq_shuffle.Localperm.random (Prg.create 8) n));
      (6, false, Array.init n (fun i -> i));
      (7, true, Array.init n (fun i -> n - 1 - i));
      (8, true, Array.map (fun i -> i * 5) (Orq_shuffle.Localperm.random (Prg.create 9) n));
    ]
  in
  List.iter
    (fun k ->
      let rounds =
        List.map
          (fun (seed, desc, x) ->
            let ctx = Ctx.create ~seed k in
            let tag = Array.map (fun v -> v + 1) x in
            let flip v = if desc then v lxor Ring.mask 16 else v in
            match
              Quicksort.sort ctx
                ~keys:[ (Mpc.share_b ctx (Array.map flip x), 16) ]
                [ (Mpc.share_b ctx tag, 16) ]
            with
            | [ y ], [ t ] ->
                let want = if desc then sorted_desc x else sorted_asc x in
                Alcotest.(check vec) (Ctx.kind_label k ^ " sorted") want
                  (Array.map flip (Share.reconstruct y));
                Alcotest.(check vec) (Ctx.kind_label k ^ " carry follows")
                  (Array.map (fun v -> v + 1) want) (Share.reconstruct t);
                (Orq_net.Comm.snapshot ctx.Ctx.comm).Orq_net.Comm.t_rounds
            | _ -> Alcotest.fail "arity")
          inputs
      in
      Alcotest.(check (list int))
        (Ctx.kind_label k ^ " rounds equal across shuffles and orders")
        (List.map (fun _ -> List.hd rounds) rounds) rounds)
    kinds

(* ---------------- bitonic ---------------- *)

let test_bitonic () =
  for_all_kinds (fun ctx ->
      let x = [| 7; 7; 2; 9; 0; 2; 5; 1 |] in
      match
        Bitonic.sort ctx
          ~keys:[ (Mpc.share_b ctx x, 4) ]
          []
      with
      | [ y ], [] ->
          Alcotest.(check vec) "bitonic sorts with duplicates" (sorted_asc x)
            (Share.reconstruct y)
      | _ -> Alcotest.fail "arity")

let qcheck_bitonic =
  QCheck.Test.make ~name:"bitonic sorts" ~count:10
    QCheck.(list_of_size (Gen.return 16) (int_bound 31))
    (fun xl ->
      let x = Array.of_list xl in
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:29 k in
          match
            Bitonic.sort ctx
              ~keys:[ (Mpc.share_b ctx x, 5) ]
              []
          with
          | [ y ], [] -> Share.reconstruct y = sorted_asc x
          | _ -> false)
        kinds)

(* ---------------- TableSort over both base sorts ---------------- *)

(* The positions of [x]'s rows in its stable sort, ascending or
   descending. *)
let stable_order desc x =
  let order = Array.init (Array.length x) Fun.id in
  Array.stable_sort
    (fun i j -> if desc then compare x.(j) x.(i) else compare x.(i) x.(j))
    order;
  order

(* [x] sorted by TableSort with [algo] in [dir], once carried through the
   base sort (one key) and once through sigma extraction (the same key
   and a constant second key): the keys come back sorted and the tag
   column follows the rows' stable order. *)
let check_wrapper ctx algo dir x =
  let desc = dir = Tablesort.Desc in
  let order = stable_order desc x in
  let tags = Array.mapi (fun i _ -> 100 + i) x in
  let col v = Share.wrap (Mpc.share_b ctx v) in
  List.iter
    (fun extra ->
      let what = if extra = [] then "carried" else "sigma" in
      match
        Tablesort.sort_cols ctx ~algo
          ~keys:((col x, 8, dir) :: extra)
          [ (col tags, 8) ]
      with
      | key' :: _, [ t ] ->
          Alcotest.(check vec) (what ^ " sorts")
            (if desc then sorted_desc x else sorted_asc x)
            (Share.reconstruct_c key');
          Alcotest.(check vec) (what ^ " carry follows the stable order")
            (Array.map (fun i -> tags.(i)) order)
            (Share.reconstruct_c t)
      | _ -> Alcotest.fail "arity")
    [ []; [ (col (Array.make (Array.length x) 0), 1, Tablesort.Asc) ] ]

let test_wrapper_all () =
  for_all_kinds (fun ctx ->
      let x = [| 12; 3; 200; 3; 77; 0; 12; 150 |] in
      List.iter
        (fun algo ->
          check_wrapper ctx algo Tablesort.Asc x;
          check_wrapper ctx algo Tablesort.Desc x)
        [ Tablesort.Radixsort; Tablesort.Quicksort ])

let test_wrapper_stability () =
  (* equal keys keep their original order for both algorithms *)
  for_all_kinds (fun ctx ->
      List.iter
        (fun algo -> check_wrapper ctx algo Tablesort.Asc [| 1; 0; 1; 0; 1 |])
        [ Tablesort.Radixsort; Tablesort.Quicksort ])

(* ---------------- index width at the wrap point ---------------- *)

(* Row counts around the index width's wrap points 2^k: every index,
   destination and sigma^{-1} vector travels at [Ring.index_bits n] bits,
   so n = 64 and 1024 fill their ring exactly and n = 65 and 1025 need one
   bit more. *)
let wrap_ns = [ 1; 2; 3; 63; 64; 65; 1023; 1024; 1025 ]

(* [f] run whole, then with the chunk store on (7-row chunks); [park]
   tells [f] which. The debug checks are on in both runs, so an index
   column that does not fit its declared width fails loudly. Returns both
   results with their online tallies. *)
let whole_and_chunked kind f =
  let run park =
    Debug.set_checks true;
    let ctx = Ctx.create ~seed:61 kind in
    let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
    let r = f ctx park in
    (r, Orq_net.Comm.since ctx.Ctx.comm before)
  in
  let was = Debug.enabled () and rows0 = Chunkvec.chunk_rows ()
  and on0 = Chunkvec.streaming_enabled () in
  Fun.protect
    ~finally:(fun () ->
      Debug.set_checks was;
      Chunkvec.set_chunk_rows rows0;
      Chunkvec.set_streaming on0)
  @@ fun () ->
  let whole = run false in
  Chunkvec.set_chunk_rows 7;
  (whole, run true)

(* The stable ascending sorting permutation of rows compared by [cmp]:
   row i goes to position sigma.(i). *)
let stable_sigma cmp n =
  let idx = Array.init n Fun.id in
  Array.stable_sort cmp idx;
  let sigma = Array.make n 0 in
  Array.iteri (fun r i -> sigma.(i) <- r) idx;
  sigma

let check_wrap_point tag ((v1, t1), (v2, t2)) want =
  Alcotest.(check (list vec)) (tag ^ " whole") want v1;
  Alcotest.(check (list vec)) (tag ^ " chunked") want v2;
  Alcotest.(check (triple int int int)) (tag ^ " tally whole = chunked")
    Orq_net.Comm.(t1.t_rounds, t1.t_bits, t1.t_messages)
    Orq_net.Comm.(t2.t_rounds, t2.t_bits, t2.t_messages)

(* TableSort's sigma extraction under both base sorts, on two keys (a
   key and a constant): the id payload comes back in exactly the stable
   sorted order, duplicates included. *)
let test_sorting_perm_wrap () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let st = Random.State.make [| 71; n |] in
          let key = Array.init n (fun _ -> Random.State.int st 12) in
          let want = stable_order false key in
          List.iter
            (fun (algo, name, w) ->
              let tag =
                Printf.sprintf "%s %s n=%d" (Ctx.kind_label kind) name n
              in
              check_wrap_point tag
                (whole_and_chunked kind (fun ctx _ ->
                     let col v = Share.wrap (Mpc.share_b ctx v) in
                     match
                       Tablesort.sort_cols ctx ~algo
                         ~keys:
                           [
                             (col key, w, Tablesort.Asc);
                             (col (Array.make n 0), 1, Tablesort.Asc);
                           ]
                         [ (col (Array.init n Fun.id), Ring.index_bits n) ]
                     with
                     | _, [ id ] -> [ Share.reconstruct_c id ]
                     | _ -> Alcotest.fail "arity"))
                [ want ])
            [
              (Tablesort.Radixsort, "radixsort", 4);
              (Tablesort.Quicksort, "quicksort", 40);
            ])
        wrap_ns)
    kinds

(* A multi-key TableSort on the radix path (4 + 3 bits) and on the
   quicksort path (a 40-bit key): keys and a row-id payload come back in
   the stable lexicographic order. *)
let test_tablesort_wrap () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let st = Random.State.make [| 72; n |] in
          let a = Array.init n (fun _ -> Random.State.int st 5) in
          let b = Array.init n (fun _ -> Random.State.int st 8) in
          let id = Array.init n Fun.id in
          List.iter
            (fun (wa, name) ->
              let tag =
                Printf.sprintf "%s %s n=%d" (Ctx.kind_label kind) name n
              in
              (* a ascending, b descending *)
              let sigma =
                stable_sigma
                  (fun i j ->
                    match compare a.(i) a.(j) with
                    | 0 -> compare b.(j) b.(i)
                    | c -> c)
                  n
              in
              let want =
                List.map
                  (fun x -> Orq_util.Vec.scatter x sigma)
                  [ a; b; id ]
              in
              check_wrap_point tag
                (whole_and_chunked kind (fun ctx park ->
                     let col x =
                       let s = Mpc.share_b ctx x in
                       if park then Share.park s else Share.wrap s
                     in
                     let keys, others =
                       Tablesort.sort_cols ctx
                         ~keys:
                           [
                             (col a, wa, Tablesort.Asc);
                             (col b, 3, Tablesort.Desc);
                           ]
                         [ (col id, Ring.index_bits n) ]
                     in
                     List.map Share.reconstruct_c (keys @ others)))
                want)
            [ (4, "radix path"); (40, "quicksort path") ])
        wrap_ns)
    kinds

(* The compose-based radixsort: its running permutation is composed at
   the index width and still sorts exactly. It takes whole vectors, so
   its chunked run only has the chunk store on. *)
let test_radix_compose_wrap () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let tag = Printf.sprintf "%s n=%d" (Ctx.kind_label kind) n in
          let st = Random.State.make [| 73; n |] in
          let key = Array.init n (fun _ -> Random.State.int st 8) in
          let want = stable_sigma (fun i j -> compare key.(i) key.(j)) n in
          check_wrap_point tag
            (whole_and_chunked kind (fun ctx _ ->
                 let (y, _), sigma =
                   Radix_compose.sort_with_perm ctx ~bits:3
                     (Mpc.share_b ctx key) []
                 in
                 [ Share.reconstruct y; Share.reconstruct sigma ]))
            [ sorted_asc key; want ])
        wrap_ns)
    kinds

(* Without [algo], a sort whose keys are all at most 32 bits runs
   radixsort and one with a wider key quicksort: the same traffic as the
   forced algorithm. *)
let test_default_algo () =
  let n = 20 in
  let x = Array.init n (fun i -> (i * 7) mod 11) in
  let tally ?algo widths =
    let ctx = Ctx.create ~seed:47 Ctx.Sh_hm in
    let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
    ignore
      (Tablesort.sort_cols ctx ?algo
         ~keys:
           (List.map
              (fun w -> (Share.wrap (Mpc.share_b ctx x), w, Tablesort.Asc))
              widths)
         []);
    let t = Orq_net.Comm.since ctx.Ctx.comm before in
    Orq_net.Comm.(t.t_rounds, t.t_bits, t.t_messages)
  in
  List.iter
    (fun (widths, algo, name) ->
      let what = String.concat "+" (List.map string_of_int widths) in
      Alcotest.(check (triple int int int))
        (what ^ " bits take " ^ name)
        (tally ~algo widths) (tally widths))
    [
      ([ 32 ], Tablesort.Radixsort, "radixsort");
      ([ 33 ], Tablesort.Quicksort, "quicksort");
      ([ 32; 32 ], Tablesort.Radixsort, "radixsort");
      ([ 4; 33 ], Tablesort.Quicksort, "quicksort");
    ];
  Alcotest.(check bool) "the two algorithms differ" true
    (tally ~algo:Tablesort.Radixsort [ 32 ] <> tally ~algo:Tablesort.Quicksort [ 32 ])

(* ---------------- TableSort grid ---------------- *)

(* Direction modes of a grid case: every key ascending; descending keys
   (one, or the outer two of three); signed keys, two's complement at
   their width, with a descending one. *)
type mode = All_asc | Desc_keys | Signed_keys

let mode_name = function
  | All_asc -> "asc" | Desc_keys -> "desc" | Signed_keys -> "signed"

(* (width, signed, order) of each key: every key at most 32 bits takes
   the radix path, a 40-bit key the quicksort path. *)
let grid_keys nk quick mode =
  let widths =
    match (nk, quick) with
    | 1, false -> [ 5 ]
    | 1, true -> [ 40 ]
    | _, false -> [ 3; 12; 7 ]
    | _, true -> [ 4; 40; 6 ]
  in
  let kinds =
    match (mode, widths) with
    | All_asc, _ -> List.map (fun _ -> (false, Orq_core.Tablesort.Asc)) widths
    | Desc_keys, [ _ ] -> [ (false, Orq_core.Tablesort.Desc) ]
    | Desc_keys, _ -> Orq_core.Tablesort.[ (false, Desc); (false, Asc); (false, Desc) ]
    | Signed_keys, [ _ ] -> [ (true, Orq_core.Tablesort.Desc) ]
    | Signed_keys, _ -> Orq_core.Tablesort.[ (true, Asc); (false, Desc); (true, Desc) ]
  in
  List.map2 (fun w (s, o) -> (w, s, o)) widths kinds

(* One grid case under [kind]: a table of the keys (four distinct values
   per key, so ties are common) and a row-id payload, sorted by
   TableSort. Checks every column against a plaintext stable sort and
   returns the online (rounds, bits, messages). *)
let grid_case kind nk quick mode n =
  let module T = Orq_core.Tablesort in
  let tag =
    Printf.sprintf "%s keys=%d %s %s n=%d" (Ctx.kind_label kind) nk
      (if quick then "quick" else "radix") (mode_name mode) n
  in
  let st = Random.State.make [| nk; n; Bool.to_int quick; Hashtbl.hash (mode_name mode) |] in
  let keys =
    List.mapi
      (fun i (w, signed, o) ->
        let lo, hi =
          if signed then (-(1 lsl (w - 1)), (1 lsl (w - 1)) - 1)
          else (0, (1 lsl w) - 1)
        in
        let pool =
          Array.init 4 (fun _ -> lo + Random.State.full_int st (hi - lo + 1))
        in
        let v = Array.init n (fun _ -> pool.(Random.State.int st 4)) in
        (Printf.sprintf "k%d" i, Orq_core.Dom.v lo hi, v, o))
      (grid_keys nk quick mode)
  in
  let cmp_rows i j =
    List.fold_left
      (fun c (_, _, v, o) ->
        if c <> 0 then c
        else match o with T.Asc -> compare v.(i) v.(j) | T.Desc -> compare v.(j) v.(i))
      0 keys
  in
  let order = Array.init n Fun.id in
  Array.stable_sort cmp_rows order;
  let ctx = Ctx.create ~seed:83 kind in
  let col dom v =
    let stored = Array.map (fun x -> x land Ring.mask (Orq_core.Dom.width dom)) v in
    Orq_core.Column.of_shared ~dom (Mpc.share_b ctx stored)
  in
  let id = Array.init n Fun.id in
  let t =
    Orq_core.Table.of_columns ctx "t"
      ~valid:(Mpc.share_b ctx (Array.make n 1))
      (List.map (fun (name, dom, v, _) -> (name, col dom v)) keys
      @ [ ("id", col (Orq_core.Dom.v 0 (max 1 (n - 1))) id) ])
  in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let t' = T.sort t (List.map (fun (name, _, _, o) -> (name, o)) keys) in
  let tal = Orq_net.Comm.since ctx.Ctx.comm before in
  let cols, valid = Orq_core.Table.peek t' in
  List.iter
    (fun (name, dom, v, _) ->
      let m = Ring.mask (Orq_core.Dom.width dom) in
      Alcotest.(check vec) (tag ^ " " ^ name)
        (Array.map (fun i -> v.(i) land m) order)
        (List.assoc name cols))
    keys;
  Alcotest.(check vec) (tag ^ " stable id") order (List.assoc "id" cols);
  Alcotest.(check vec) (tag ^ " valid") (Array.make n 1) valid;
  (tag, Orq_net.Comm.(tal.t_rounds, tal.t_bits, tal.t_messages))

let grid_cases =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun nk ->
          List.concat_map
            (fun quick ->
              List.concat_map
                (fun mode -> List.map (fun n -> (kind, nk, quick, mode, n)) [ 1; 7; 300 ])
                [ All_asc; Desc_keys; Signed_keys ])
            [ false; true ])
        [ 1; 3 ])
    kinds

(* Online (rounds, bits, messages) of every quicksort grid case,
   recorded from the sort layer before the base sorts lost their
   descending modes: a descending key sorted as its complement costs what
   the base sorts' own descending comparisons and digit flips cost. A
   radix case costs the closed form of the path the rule takes
   ({!Radix_cost.chosen}), carrying the validity bit and the id. *)
let grid_tallies =
  [
    ("SH-DM keys=1 quick asc n=1", (0, 0, 0));
    ("SH-DM keys=1 quick asc n=7", (38, 7132, 98));
    ("SH-DM keys=1 quick asc n=300", (137, 1441524, 422));
    ("SH-DM keys=1 quick desc n=1", (0, 0, 0));
    ("SH-DM keys=1 quick desc n=7", (47, 9124, 122));
    ("SH-DM keys=1 quick desc n=300", (137, 1594388, 422));
    ("SH-DM keys=1 quick signed n=1", (0, 0, 0));
    ("SH-DM keys=1 quick signed n=7", (38, 7630, 98));
    ("SH-DM keys=1 quick signed n=300", (137, 1554486, 422));
    ("SH-DM keys=3 quick asc n=1", (6, 114, 12));
    ("SH-DM keys=3 quick asc n=7", (35, 10248, 86));
    ("SH-DM keys=3 quick asc n=300", (143, 1825188, 434));
    ("SH-DM keys=3 quick desc n=1", (6, 114, 12));
    ("SH-DM keys=3 quick desc n=7", (53, 12078, 134));
    ("SH-DM keys=3 quick desc n=300", (143, 2054348, 434));
    ("SH-DM keys=3 quick signed n=1", (6, 114, 12));
    ("SH-DM keys=3 quick signed n=7", (44, 10248, 110));
    ("SH-DM keys=3 quick signed n=300", (143, 1749700, 434));
    ("SH-HM keys=1 quick asc n=1", (0, 0, 0));
    ("SH-HM keys=1 quick asc n=7", (27, 6474, 114));
    ("SH-HM keys=1 quick asc n=300", (123, 1071909, 636));
    ("SH-HM keys=1 quick desc n=1", (0, 0, 0));
    ("SH-HM keys=1 quick desc n=7", (35, 7599, 150));
    ("SH-HM keys=1 quick desc n=300", (123, 1157355, 636));
    ("SH-HM keys=1 quick signed n=1", (0, 0, 0));
    ("SH-HM keys=1 quick signed n=7", (35, 7599, 150));
    ("SH-HM keys=1 quick signed n=300", (115, 1080369, 594));
    ("SH-HM keys=3 quick asc n=1", (6, 334, 28));
    ("SH-HM keys=3 quick asc n=7", (33, 10464, 142));
    ("SH-HM keys=3 quick asc n=300", (129, 1683567, 664));
    ("SH-HM keys=3 quick desc n=1", (6, 334, 28));
    ("SH-HM keys=3 quick desc n=7", (33, 10464, 142));
    ("SH-HM keys=3 quick desc n=300", (129, 1606503, 664));
    ("SH-HM keys=3 quick signed n=1", (6, 334, 28));
    ("SH-HM keys=3 quick signed n=7", (41, 11382, 178));
    ("SH-HM keys=3 quick signed n=300", (129, 1594842, 664));
    ("Mal-HM keys=1 quick asc n=1", (0, 0, 0));
    ("Mal-HM keys=1 quick asc n=7", (40, 31388, 572));
    ("Mal-HM keys=1 quick asc n=300", (139, 4616480, 2472));
    ("Mal-HM keys=1 quick desc n=1", (0, 0, 0));
    ("Mal-HM keys=1 quick desc n=7", (31, 28872, 432));
    ("Mal-HM keys=1 quick desc n=300", (139, 5668980, 2472));
    ("Mal-HM keys=1 quick signed n=1", (0, 0, 0));
    ("Mal-HM keys=1 quick signed n=7", (49, 36888, 712));
    ("Mal-HM keys=1 quick signed n=300", (139, 4811824, 2472));
    ("Mal-HM keys=3 quick asc n=1", (10, 3376, 64));
    ("Mal-HM keys=3 quick asc n=7", (41, 46712, 496));
    ("Mal-HM keys=3 quick asc n=300", (149, 6481588, 2536));
    ("Mal-HM keys=3 quick desc n=1", (10, 3376, 64));
    ("Mal-HM keys=3 quick desc n=7", (41, 44884, 496));
    ("Mal-HM keys=3 quick desc n=300", (149, 5909928, 2536));
    ("Mal-HM keys=3 quick signed n=1", (10, 3376, 64));
    ("Mal-HM keys=3 quick signed n=7", (50, 49564, 636));
    ("Mal-HM keys=3 quick signed n=300", (149, 7047188, 2536));
  ]

let test_grid () =
  let id_width n = Orq_core.Dom.width (Orq_core.Dom.v 0 (max 1 (n - 1))) in
  List.iter
    (fun (kind, nk, quick, mode, n) ->
      let tag, got = grid_case kind nk quick mode n in
      let want =
        if quick then List.assoc tag grid_tallies
        else
          let t =
            Radix_cost.chosen kind ~n
              ~keys:(List.map (fun (w, _, _) -> w) (grid_keys nk quick mode))
              ~payload:[ 1; id_width n ]
          in
          Orq_net.Comm.(t.t_rounds, t.t_bits, t.t_messages)
      in
      Alcotest.(check (triple int int int)) (tag ^ " tally") want got)
    grid_cases

(* ---------------- TableSort radix path choice ---------------- *)

(* A random radix TableSort (1-3 keys of 1..32 bits, mixed directions,
   few distinct values; 0-4 payload columns) run on the path the rule
   picks and on both forced paths: all three give the plaintext stable
   sort, the picked run costs what one forced path costs, and it never
   moves more bits than the other. *)
let qcheck_tablesort_path =
  QCheck.Test.make ~name:"TableSort path choice" ~count:20 QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 2 + Random.State.int st 40 in
      let keys =
        List.init (1 + Random.State.int st 3) (fun _ ->
            let w = 1 + Random.State.int st 32 in
            let pool = Array.init 3 (fun _ -> Random.State.full_int st (1 lsl w)) in
            ( w,
              Array.init n (fun _ -> pool.(Random.State.int st 3)),
              if Random.State.bool st then Tablesort.Asc else Tablesort.Desc ))
      in
      let payload =
        List.init (Random.State.int st 5) (fun _ ->
            let w = 1 + Random.State.int st 40 in
            (w, Array.init n (fun _ -> Random.State.full_int st (1 lsl w))))
      in
      let order =
        List.stable_sort
          (fun i j ->
            List.fold_left
              (fun c (_, v, o) ->
                if c <> 0 then c
                else if o = Tablesort.Asc then compare v.(i) v.(j)
                else compare v.(j) v.(i))
              0 keys)
          (List.init n Fun.id)
      in
      let expected =
        List.map (fun (_, v, _) -> v) keys @ List.map snd payload
        |> List.map (fun v -> Array.of_list (List.map (fun i -> v.(i)) order))
      in
      List.for_all
        (fun kind ->
          let run radix =
            let ctx = Ctx.create ~seed:71 kind in
            let share v = Share.wrap (Mpc.share_b ctx v) in
            let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
            let k, p =
              Tablesort.sort_cols ctx ?radix
                ~keys:(List.map (fun (w, v, o) -> (share v, w, o)) keys)
                (List.map (fun (w, v) -> (share v, w)) payload)
            in
            ( List.map (fun c -> Share.reconstruct (Share.unpark c)) (k @ p),
              Orq_net.Comm.since ctx.Ctx.comm before )
          in
          let vp, picked = run None
          and vc, carry = run (Some Tablesort.Carry)
          and vs, sigma = run (Some Tablesort.Sigma) in
          let bits (t : Orq_net.Comm.tally) = t.Orq_net.Comm.t_bits in
          let fail what =
            QCheck.Test.fail_reportf "%s %s: n=%d keys=[%s] payload=[%s]"
              (Ctx.kind_label kind) what n
              (String.concat ";" (List.map (fun (w, _, _) -> string_of_int w) keys))
              (String.concat ";" (List.map (fun (w, _) -> string_of_int w) payload))
          in
          if vp <> expected || vc <> expected || vs <> expected then fail "values"
          else if picked <> carry && picked <> sigma then fail "picked neither path"
          else if bits picked > min (bits carry) (bits sigma) then fail "picked more bits"
          else true)
        kinds)

let suite =
  [
    Alcotest.test_case "genBitPerm destinations" `Quick test_genbitperm;
    QCheck_alcotest.to_alcotest qcheck_genbitperm;
    QCheck_alcotest.to_alcotest qcheck_gen_digit;
    Alcotest.test_case "gen_digit: one and two rows, constant digits" `Quick
      test_gen_digit_edges;
    Alcotest.test_case "radixsort basic" `Quick test_radix_basic;
    Alcotest.test_case "radixsort descending" `Quick test_radix_desc;
    Alcotest.test_case "radixsort carry + stability" `Quick
      test_radix_carry_and_stability;
    Alcotest.test_case "radixsort skip bits" `Quick test_radix_skip;
    QCheck_alcotest.to_alcotest qcheck_radix;
    Alcotest.test_case "radixsort digits: odd/even bits, skip, desc, carry"
      `Quick test_radix_digits;
    Alcotest.test_case "radixsort round shape per digit" `Quick
      test_radix_round_shape;
    Alcotest.test_case "radixsort shuffle stream per key bit" `Quick
      test_radix_shuffle_stream;
    Alcotest.test_case "radixsort SH-DM golden transcript" `Quick
      test_sh_dm_radix_golden;
    Alcotest.test_case "compose radixsort sorts" `Quick
      test_radix_compose_matches;
    Alcotest.test_case "compose radixsort perm" `Quick test_radix_compose_perm;
    Alcotest.test_case "hybrid beats compose on rounds" `Quick
      test_hybrid_fewer_rounds;
    Alcotest.test_case "quicksort unique keys" `Quick test_quicksort_unique;
    Alcotest.test_case "quicksort desc + carry" `Quick test_quicksort_desc_carry;
    Alcotest.test_case "quicksort composite keys" `Quick test_quicksort_composite;
    QCheck_alcotest.to_alcotest qcheck_quicksort;
    Alcotest.test_case "quicksort rounds fixed by n" `Quick
      test_quicksort_rounds_fixed_by_n;
    Alcotest.test_case "bitonic with duplicates" `Quick test_bitonic;
    QCheck_alcotest.to_alcotest qcheck_bitonic;
    Alcotest.test_case "wrapper: all algos and directions" `Quick
      test_wrapper_all;
    Alcotest.test_case "wrapper: stability" `Quick test_wrapper_stability;
    Alcotest.test_case "default algorithm choice" `Quick test_default_algo;
    Alcotest.test_case "sorting_perm exact at index wrap points" `Quick
      test_sorting_perm_wrap;
    Alcotest.test_case "multi-key TableSort exact at index wrap points"
      `Quick test_tablesort_wrap;
    Alcotest.test_case "compose radixsort exact at index wrap points" `Quick
      test_radix_compose_wrap;
    Alcotest.test_case "TableSort grid: values, stability and tallies" `Quick
      test_grid;
    QCheck_alcotest.to_alcotest qcheck_tablesort_path;
  ]

let () = Alcotest.run "orq_sort" [ ("sort", suite) ]
