(* Tests for the oblivious sorting layer: genBitPerm, hybrid radixsort,
   compose-based radixsort, iterative quicksort, bitonic network, and the
   sorting wrapper with permutation extraction. *)

open Orq_util
open Orq_proto
open Orq_sort

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

(* Random 2-bit digits drawn from a random nonempty subset of the four
   values, so runs repeat values and usually miss some. *)
let qcheck_gen_digit =
  QCheck.Test.make ~name:"gen_digit is the stable 2-bit digit-sort permutation"
    ~count:25
    QCheck.(
      pair (int_range 1 15) (list_of_size Gen.(int_range 1 40) (int_bound 3)))
    (fun (allowed, dl) ->
      let values = List.filter (fun d -> allowed land (1 lsl d) <> 0) [ 0; 1; 2; 3 ] in
      let pick i = List.nth values (i mod List.length values) in
      let digits = Array.of_list (List.map pick dl) in
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:37 k in
          let d = Mpc.share_b ctx digits in
          let flags = Array.init 2 (fun j -> Mpc.extract_bit_f d j) in
          Share.reconstruct (Genbitperm.gen_digit ctx flags)
          = stable_dests digits)
        kinds)

(* ---------------- radixsort ---------------- *)

let test_radix_basic () =
  for_all_kinds (fun ctx ->
      let x = [| 9; 3; 7; 3; 0; 15; 3; 8 |] in
      let y, _ = Radixsort.sort ctx ~bits:4 (Mpc.share_b ctx x) [] in
      Alcotest.(check vec) "ascending" (sorted_asc x) (Share.reconstruct y))

let test_radix_desc () =
  for_all_kinds (fun ctx ->
      let x = [| 9; 3; 7; 3; 0; 15; 3; 8 |] in
      let y, _ =
        Radixsort.sort ctx ~bits:4 ~dir:Radixsort.Desc (Mpc.share_b ctx x) []
      in
      Alcotest.(check vec) "descending" (sorted_desc x) (Share.reconstruct y))

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
   and both directions, with a position carry that pins stability. *)
let test_radix_digits () =
  let n = 23 in
  let x = Array.init n (fun i -> (i * 97 + 13) mod 61) in
  let pos = Array.init n Fun.id in
  for_all_kinds (fun ctx ->
      List.iter
        (fun (bits, skip, dir) ->
          let field v = (v lsr skip) land ((1 lsl bits) - 1) in
          let rank v =
            match dir with Radixsort.Asc -> field v | Radixsort.Desc -> -field v
          in
          let order = Array.copy pos in
          Array.stable_sort (fun i j -> compare (rank x.(i)) (rank x.(j))) order;
          let y, carry =
            Radixsort.sort ctx ~bits ~skip ~dir (Mpc.share_b ctx x)
              [ Mpc.share_b ctx pos ]
          in
          let what = Printf.sprintf "%s bits=%d skip=%d %s"
              (Ctx.kind_label ctx.Ctx.kind) bits skip
              (match dir with Radixsort.Asc -> "asc" | Radixsort.Desc -> "desc")
          in
          Alcotest.(check vec) (what ^ " keys") (Array.map (fun i -> x.(i)) order)
            (Share.reconstruct y);
          match carry with
          | [ c ] ->
              Alcotest.(check vec) (what ^ " stable carry") order
                (Share.reconstruct c)
          | _ -> Alcotest.fail "arity")
        [
          (3, 0, Radixsort.Asc); (4, 0, Radixsort.Asc); (5, 1, Radixsort.Asc);
          (4, 2, Radixsort.Desc); (5, 0, Radixsort.Desc); (1, 3, Radixsort.Desc);
        ])

let online_rounds kind f =
  let ctx = Ctx.create ~seed:41 kind in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  f ctx;
  (Orq_net.Comm.since ctx.Ctx.comm before).Orq_net.Comm.t_rounds

(* Honest majority ranks 2-bit digits: a w-bit sort is floor(w/2) 2-bit
   digits plus one 1-bit digit when w is odd, and a 2-bit digit costs
   fewer rounds than two 1-bit digits. 2PC ranks single bits. *)
let test_radix_round_shape () =
  let x = Array.init 40 (fun i -> (i * 37) land 127) in
  List.iter
    (fun kind ->
      let sort_rounds w =
        online_rounds kind (fun ctx ->
            ignore (Radixsort.sort ctx ~bits:w (Mpc.share_b ctx x) []))
      in
      let r1 = sort_rounds 1 and r2 = sort_rounds 2 in
      let label = Ctx.kind_label kind in
      (match kind with
      | Ctx.Sh_dm -> Alcotest.(check int) (label ^ " 1-bit digits") (2 * r1) r2
      | Ctx.Sh_hm | Ctx.Mal_hm ->
          Alcotest.(check bool) (label ^ " 2-bit digit beats two bits") true
            (r2 < 2 * r1));
      for w = 1 to 7 do
        let want =
          match kind with
          | Ctx.Sh_dm -> w * r1
          | Ctx.Sh_hm | Ctx.Mal_hm -> (w / 2 * r2) + (w mod 2 * r1)
        in
        Alcotest.(check int) (Printf.sprintf "%s w=%d rounds" label w) want
          (sort_rounds w)
      done)
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
        (Orq_util.Parallel.apply_perm x s))

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
        Quicksort.sort ctx
          ~keys:[ { Quicksort.col = Mpc.share_b ctx x; width = 8; dir = Asc } ]
          []
      with
      | [ y ], [] ->
          Alcotest.(check vec) "sorted" (sorted_asc x) (Share.reconstruct y)
      | _ -> Alcotest.fail "arity")

let test_quicksort_desc_carry () =
  for_all_kinds (fun ctx ->
      let x = [| 4; 9; 1; 6 |] in
      let tag = [| 40; 90; 10; 60 |] in
      match
        Quicksort.sort ctx
          ~keys:[ { Quicksort.col = Mpc.share_b ctx x; width = 8; dir = Desc } ]
          [ (Mpc.share_b ctx tag, 8) ]
      with
      | [ y ], [ t ] ->
          Alcotest.(check vec) "desc keys" [| 9; 6; 4; 1 |]
            (Share.reconstruct y);
          Alcotest.(check vec) "carry follows" [| 90; 60; 40; 10 |]
            (Share.reconstruct t)
      | _ -> Alcotest.fail "arity")

let test_quicksort_composite () =
  for_all_kinds (fun ctx ->
      let k1 = [| 2; 1; 2; 1 |] and k2 = [| 0; 5; 3; 2 |] in
      match
        Quicksort.sort ctx
          ~keys:
            [
              { Quicksort.col = Mpc.share_b ctx k1; width = 4; dir = Asc };
              { Quicksort.col = Mpc.share_b ctx k2; width = 4; dir = Desc };
            ]
          []
      with
      | [ a; b ], [] ->
          Alcotest.(check vec) "k1" [| 1; 1; 2; 2 |] (Share.reconstruct a);
          Alcotest.(check vec) "k2 desc within k1" [| 5; 2; 3; 0 |]
            (Share.reconstruct b)
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
            Quicksort.sort ctx
              ~keys:
                [ { Quicksort.col = Mpc.share_b ctx x; width = 16; dir = Asc } ]
              []
          with
          | [ y ], [] -> Share.reconstruct y = sorted_asc x
          | _ -> false)
        kinds)

(* Quicksort cuts its recursion after a number of partition levels fixed
   by n and finishes with one all-pairs round, so different shuffles and
   input orders of the same size take the same rounds. *)
let test_quicksort_rounds_fixed_by_n () =
  let n = 3000 in
  let inputs =
    [
      (5, Quicksort.Asc, Array.map (fun i -> i * 3) (Orq_shuffle.Localperm.random (Prg.create 8) n));
      (6, Quicksort.Asc, Array.init n (fun i -> i));
      (7, Quicksort.Desc, Array.init n (fun i -> n - 1 - i));
      (8, Quicksort.Desc, Array.map (fun i -> i * 5) (Orq_shuffle.Localperm.random (Prg.create 9) n));
    ]
  in
  List.iter
    (fun k ->
      let rounds =
        List.map
          (fun (seed, dir, x) ->
            let ctx = Ctx.create ~seed k in
            let tag = Array.map (fun v -> v + 1) x in
            match
              Quicksort.sort ctx
                ~keys:[ { Quicksort.col = Mpc.share_b ctx x; width = 16; dir } ]
                [ (Mpc.share_b ctx tag, 16) ]
            with
            | [ y ], [ t ] ->
                let want =
                  match dir with
                  | Quicksort.Asc -> sorted_asc x
                  | Quicksort.Desc -> sorted_desc x
                in
                Alcotest.(check vec) (Ctx.kind_label k ^ " sorted") want (Share.reconstruct y);
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
          ~keys:[ { Bitonic.col = Mpc.share_b ctx x; width = 4; dir = Asc } ]
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
              ~keys:[ { Bitonic.col = Mpc.share_b ctx x; width = 5; dir = Asc } ]
              []
          with
          | [ y ], [] -> Share.reconstruct y = sorted_asc x
          | _ -> false)
        kinds)

(* ---------------- wrapper ---------------- *)

let check_wrapper ctx algo dir x =
  let expected =
    match dir with Sortwrap.Asc -> sorted_asc x | Sortwrap.Desc -> sorted_desc x
  in
  let tags = Array.mapi (fun i _ -> 100 + i) x in
  let key = Share.wrap (Mpc.share_b ctx x) in
  let tag = Share.wrap (Mpc.share_b ctx tags) in
  let key', carry' = Sortwrap.sort ctx ~algo ~dir ~w:8 key [ (tag, 8) ] in
  Alcotest.(check vec) "wrapper sorts" expected (Share.reconstruct_c key');
  (* sigma of the same order, descending as the ascending flipped key,
     must send the original rows to their sorted positions *)
  let word =
    match dir with
    | Sortwrap.Asc -> x
    | Sortwrap.Desc -> Array.map (fun v -> v lxor 255) x
  in
  let sigma = Sortwrap.sorting_perm ctx ~algo [ (Mpc.share_b ctx word, 8) ] in
  let s = Share.reconstruct sigma in
  Alcotest.(check bool) "sigma is a permutation" true
    (Orq_shuffle.Localperm.is_permutation s);
  Alcotest.(check vec) "sigma sorts the input" expected
    (Orq_util.Parallel.apply_perm x s);
  (* the carried column moved under that same (stable) permutation *)
  match carry' with
  | [ t ] ->
      Alcotest.(check vec) "carry consistent"
        (Orq_util.Parallel.apply_perm tags s)
        (Share.reconstruct_c t)
  | _ -> Alcotest.fail "arity"

let test_wrapper_all () =
  for_all_kinds (fun ctx ->
      let x = [| 12; 3; 200; 3; 77; 0; 12; 150 |] in
      check_wrapper ctx Sortwrap.Radixsort Sortwrap.Asc x;
      check_wrapper ctx Sortwrap.Radixsort Sortwrap.Desc x;
      check_wrapper ctx Sortwrap.Quicksort Sortwrap.Asc x;
      check_wrapper ctx Sortwrap.Quicksort Sortwrap.Desc x)

let test_wrapper_stability () =
  (* equal keys keep their original order for both algorithms *)
  for_all_kinds (fun ctx ->
      List.iter
        (fun algo ->
          let x = [| 1; 0; 1; 0; 1 |] in
          let pos = [| 0; 1; 2; 3; 4 |] in
          let _, carry' =
            Sortwrap.sort ctx ~algo ~dir:Sortwrap.Asc ~w:2
              (Share.wrap (Mpc.share_b ctx x))
              [ (Share.wrap (Mpc.share_b ctx pos), 3) ]
          in
          let sigma =
            Sortwrap.sorting_perm ctx ~algo [ (Mpc.share_b ctx x, 2) ]
          in
          Alcotest.(check vec) "stable sigma" [| 1; 3; 0; 2; 4 |]
            (Orq_util.Parallel.apply_perm pos (Share.reconstruct sigma));
          match carry' with
          | [ c ] ->
              Alcotest.(check vec) "stable" [| 1; 3; 0; 2; 4 |]
                (Share.reconstruct_c c)
          | _ -> Alcotest.fail "arity")
        [ Sortwrap.Radixsort; Sortwrap.Quicksort ])

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

(* Sortwrap.sorting_perm under both base sorts: sigma is exactly the
   stable sorting permutation, duplicates included. It takes whole
   vectors, so its chunked run only has the chunk store on. *)
let test_sorting_perm_wrap () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let st = Random.State.make [| 71; n |] in
          let key = Array.init n (fun _ -> Random.State.int st 12) in
          let want = stable_sigma (fun i j -> compare key.(i) key.(j)) n in
          List.iter
            (fun (algo, name, w) ->
              let tag =
                Printf.sprintf "%s %s n=%d" (Ctx.kind_label kind) name n
              in
              check_wrap_point tag
                (whole_and_chunked kind (fun ctx _ ->
                     [
                       Sortwrap.sorting_perm ctx ~algo
                         [ (Mpc.share_b ctx key, w) ]
                       |> Share.reconstruct;
                     ]))
                [ want ])
            [
              (Sortwrap.Radixsort, "radixsort", 4);
              (Sortwrap.Quicksort, "quicksort", 40);
            ])
        wrap_ns)
    kinds

(* A multi-key TableSort on the radix path (4 + 3 bits) and on the
   quicksort path (a 40-bit key): keys and a row-id payload come back in
   the stable lexicographic order. *)
let test_tablesort_wrap () =
  let module Tablesort = Orq_core.Tablesort in
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
                  (fun x -> Orq_util.Parallel.apply_perm x sigma)
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

let test_default_algo () =
  Alcotest.(check bool) "narrow keys use radixsort" true
    (Sortwrap.default_algo_for_width 32 = Sortwrap.Radixsort);
  Alcotest.(check bool) "wide keys use quicksort" true
    (Sortwrap.default_algo_for_width 64 = Sortwrap.Quicksort)

let suite =
  [
    Alcotest.test_case "genBitPerm destinations" `Quick test_genbitperm;
    QCheck_alcotest.to_alcotest qcheck_genbitperm;
    QCheck_alcotest.to_alcotest qcheck_gen_digit;
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
  ]

let () = Alcotest.run "orq_sort" [ ("sort", suite) ]
