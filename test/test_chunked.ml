(** Out-of-core chunked share vectors. Each operator of the shuffle/sort
    stack has one body over chunked vectors; driven with whole (wrapped)
    input and with parked input it must give identical values and
    traffic — at chunk sizes that do and do not divide the row count, and
    under a spill-forcing tiny memory budget. *)

module Chunkvec = Orq_util.Chunkvec
module Parallel = Orq_util.Parallel
module Vec = Orq_util.Vec
module Comm = Orq_net.Comm
module Permops = Orq_shuffle.Permops
module Sortwrap = Orq_sort.Sortwrap
module Tpch = Orq_workloads.Tpch
module Tpch_gen = Orq_workloads.Tpch_gen
open Orq_proto

let vec = Alcotest.(array int)

(* run [f] with the streaming knobs set, restoring the global state *)
let with_streaming ?(rows = 7) ?budget f =
  let rows0 = Chunkvec.chunk_rows () in
  let budget0 = Chunkvec.budget () in
  let on0 = Chunkvec.streaming_enabled () in
  Chunkvec.set_chunk_rows rows;
  (match budget with Some b -> Chunkvec.set_budget b | None -> ());
  Fun.protect
    ~finally:(fun () ->
      Chunkvec.set_chunk_rows rows0;
      Chunkvec.set_budget budget0;
      Chunkvec.set_streaming on0)
    f

let rand_array st n = Array.init n (fun _ -> Random.State.int st 100_000)

(* i * 13 + 5 mod n is a permutation whenever gcd(13, n) = 1 *)
let test_perm n = Array.init n (fun i -> ((i * 13) + 5) mod n)

let tally_eq name (a : Comm.tally) (b : Comm.tally) =
  Alcotest.(check int) (name ^ ": rounds") a.Comm.t_rounds b.Comm.t_rounds;
  Alcotest.(check int) (name ^ ": bits") a.Comm.t_bits b.Comm.t_bits;
  Alcotest.(check int) (name ^ ": messages") a.Comm.t_messages b.Comm.t_messages

let kind_name = function
  | Ctx.Sh_dm -> "Sh_dm"
  | Ctx.Sh_hm -> "Sh_hm"
  | Ctx.Mal_hm -> "Mal_hm"

let for_all_kinds f = List.iter f Ctx.all_kinds

(* ------------------------------------------------------------------ *)
(* Chunkvec unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_parse_bytes () =
  Alcotest.(check int) "plain" 65536 (Chunkvec.parse_bytes "65536");
  Alcotest.(check int) "K" (512 * 1024) (Chunkvec.parse_bytes "512K");
  Alcotest.(check int) "k" 1024 (Chunkvec.parse_bytes "1k");
  Alcotest.(check int) "M" (64 * 1024 * 1024) (Chunkvec.parse_bytes "64M");
  Alcotest.(check int) "G" (2 * 1024 * 1024 * 1024) (Chunkvec.parse_bytes "2G");
  Alcotest.(check int) "empty" 0 (Chunkvec.parse_bytes "")

let test_roundtrip () =
  with_streaming ~rows:7 (fun () ->
      let st = Random.State.make [| 1 |] in
      List.iter
        (fun n ->
          let a = rand_array st n in
          let c = Chunkvec.of_array a in
          Alcotest.(check vec)
            (Printf.sprintf "to_array n=%d" n)
            a (Chunkvec.to_array c);
          Array.iteri
            (fun i v ->
              Alcotest.(check int) (Printf.sprintf "get n=%d i=%d" n i) v
                (Chunkvec.get c i))
            a)
        [ 0; 1; 6; 7; 14; 20; 21; 53 ])

let test_local_ops () =
  with_streaming ~rows:7 (fun () ->
      let st = Random.State.make [| 2 |] in
      (* 21 divides into 7-row chunks exactly; 53 does not *)
      List.iter
        (fun n ->
          let tag s = Printf.sprintf "%s n=%d" s n in
          let a = rand_array st n and b = rand_array st n in
          let ca = Chunkvec.of_array a and cb = Chunkvec.of_array b in
          let p = test_perm n in
          Alcotest.(check vec) (tag "gather")
            (Array.map (fun j -> a.(j)) p)
            (Chunkvec.to_array (Chunkvec.gather ca p));
          let scat = Array.make n 0 in
          Array.iteri (fun i j -> scat.(j) <- a.(i)) p;
          Alcotest.(check vec) (tag "scatter") scat
            (Chunkvec.to_array (Chunkvec.scatter ca p));
          Alcotest.(check vec) (tag "sub")
            (Array.sub a 3 (n - 5))
            (Chunkvec.to_array (Chunkvec.sub ca 3 (n - 5)));
          Alcotest.(check vec) (tag "append") (Array.append a b)
            (Chunkvec.to_array (Chunkvec.append ca cb));
          Alcotest.(check vec) (tag "map")
            (Array.map (fun x -> (x * 2) + 1) a)
            (Chunkvec.to_array
               (Chunkvec.map (Array.map (fun x -> (x * 2) + 1)) ca));
          Alcotest.(check vec) (tag "map2") (Array.map2 ( + ) a b)
            (Chunkvec.to_array (Chunkvec.map2 (Array.map2 ( + )) ca cb));
          let ps = Array.copy a in
          Vec.prefix_sum_inplace ps;
          Alcotest.(check vec) (tag "prefix_sum") ps
            (Chunkvec.to_array (Chunkvec.prefix_sum ca)))
        [ 21; 53 ])

let test_append_reuse () =
  with_streaming ~rows:7 (fun () ->
      let st = Random.State.make [| 3 |] in
      let a = Chunkvec.of_array (rand_array st 21) in
      let b = Chunkvec.of_array (rand_array st 14) in
      let c = Chunkvec.append a b in
      (* a's chunks are aligned to the result granularity: reused, not
         copied — the append fix satellite *)
      let ia = Chunkvec.chunk_ids a and ic = Chunkvec.chunk_ids c in
      Alcotest.(check int) "chunk count" 5 (Array.length ic);
      Array.iteri
        (fun i id -> Alcotest.(check int) "prefix chunk reused" id ic.(i))
        ia)

let test_spill () =
  with_streaming ~rows:7 ~budget:(2 * 7 * 8) (fun () ->
      let before = Chunkvec.stats () in
      let st = Random.State.make [| 4 |] in
      let a = rand_array st 70 in
      let c = Chunkvec.of_array a in
      let after = Chunkvec.stats () in
      Alcotest.(check bool) "spills happened" true
        (after.Chunkvec.st_spills > before.Chunkvec.st_spills);
      Alcotest.(check bool) "tracked bytes within budget" true
        (Chunkvec.live_bytes () <= 2 * 7 * 8);
      Alcotest.(check vec) "values survive spill + fault" a
        (Chunkvec.to_array c);
      let after2 = Chunkvec.stats () in
      Alcotest.(check bool) "faulted back from disk" true
        (after2.Chunkvec.st_faults > before.Chunkvec.st_faults))

(* Single untracked chunks take the domain-parallel Vec kernels: same
   results as calling them directly, sequential or on the pool. *)
let test_alias_fast_path () =
  let mc0 = Parallel.get_min_chunk () and d0 = Parallel.get_num_domains () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_min_chunk mc0;
      Parallel.set_num_domains d0)
  @@ fun () ->
  Parallel.set_min_chunk 64;
  let n = 8 * Parallel.get_min_chunk () in
  let st = Random.State.make [| 12 |] in
  let a = rand_array st n in
  let p = test_perm n in
  List.iter
    (fun d ->
      Parallel.set_num_domains d;
      let tag s = Printf.sprintf "%s domains=%d" s d in
      let g = Chunkvec.gather (Chunkvec.alias a) p in
      let sc = Chunkvec.scatter (Chunkvec.alias a) p in
      Alcotest.(check vec) (tag "gather") (Vec.gather a p) (Chunkvec.to_array g);
      Alcotest.(check vec) (tag "scatter") (Vec.scatter a p)
        (Chunkvec.to_array sc);
      Alcotest.(check bool) (tag "stays one untracked chunk") true
        ((not (Chunkvec.tracked g)) && Chunkvec.nchunks sc = 1))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* One operator, two inputs: whole (wrapped) vs parked chunks          *)
(* ------------------------------------------------------------------ *)

(* Run [f] twice from the same seed: on whole vectors wrapped as single
   untracked chunks, then with streaming on over the same sharings parked
   into [rows]-row chunks. Returns each run's reconstructed outputs and
   tally; [f] returns the chunked outputs to compare. *)
let wrapped_vs_parked ?(rows = 7) kind ~seed inputs f =
  let run mk =
    let ctx = Ctx.create ~seed kind in
    let ins = List.map (fun x -> mk (Mpc.share_b ctx x)) inputs in
    let before = Comm.snapshot ctx.Ctx.comm in
    let outs = f ctx ins in
    let tal = Comm.since ctx.Ctx.comm before in
    (List.map Share.reconstruct_c outs, List.map Share.chunked_tracked outs, tal)
  in
  let whole = run Share.wrap in
  let parked = with_streaming ~rows (fun () -> run Share.park) in
  (whole, parked)

(* values and tallies equal; whole stays whole, parked stays parked *)
let check_same tag ((r1, t1, tal1), (r2, t2, tal2)) =
  List.iter2 (fun a b -> Alcotest.(check vec) (tag "values") a b) r1 r2;
  tally_eq (tag "tally") tal1 tal2;
  Alcotest.(check bool) (tag "whole outputs untracked") true
    (List.for_all not t1);
  Alcotest.(check bool) (tag "parked outputs tracked") true
    (List.for_all Fun.id t2)

let test_share_gather_scatter () =
  for_all_kinds @@ fun kind ->
  let n = 53 in
  let st = Random.State.make [| 5 |] in
  let x = rand_array st n in
  let p = test_perm n in
  let tag s = Printf.sprintf "%s %s" s (kind_name kind) in
  let res =
    wrapped_vs_parked kind ~seed:11 [ x ] (fun _ cs ->
        let c = List.hd cs in
        [ Share.gather_c c p; Share.scatter_c c p ])
  in
  check_same tag res;
  (* gather/scatter are local: no traffic in either shape *)
  let (_, _, tal), _ = res in
  tally_eq (tag "local ops silent") Comm.zero_tally tal

(* same seed => same sampled permutation; per-chunk resharing draws the
   same amount of zero-sum noise in a different order, so reconstructions
   and tallies must match exactly *)
let test_shuffle_table () =
  for_all_kinds @@ fun kind ->
  (* 56 divides into 7-row chunks; 53 does not *)
  List.iter
    (fun n ->
      let tag s = Printf.sprintf "%s %s n=%d" s (kind_name kind) n in
      let st = Random.State.make [| 6; n |] in
      let x = rand_array st n and y = rand_array st n in
      check_same tag
        (wrapped_vs_parked kind ~seed:21 [ x; y ] (fun ctx cs ->
             Permops.shuffle_table ctx
               (List.map (fun c -> (c, ctx.Ctx.ell)) cs))))
    [ 56; 53 ]

(* radixsort (w = 8) and the whole-vector quicksort fallback (w = 40) *)
let test_sort () =
  for_all_kinds @@ fun kind ->
  List.iter
    (fun (n, w) ->
      let tag s = Printf.sprintf "%s %s n=%d w=%d" s (kind_name kind) n w in
      let st = Random.State.make [| 8; n |] in
      let key = Array.init n (fun _ -> Random.State.int st 256) in
      let pay = rand_array st n in
      check_same tag
        (wrapped_vs_parked kind ~seed:33 [ key; pay ] (fun ctx cs ->
             let k', ps' =
               Sortwrap.sort ctx ~dir:Sortwrap.Asc ~w (List.hd cs)
                 (List.map (fun c -> (c, ctx.Ctx.ell)) (List.tl cs))
             in
             k' :: ps'));
      (* the permutation-extracting form: sigma is a whole vector *)
      let ((_, _, tal1), (_, _, tal2)), sigmas =
        let sigmas = ref [] in
        let res =
          wrapped_vs_parked kind ~seed:34 [ key ] (fun ctx cs ->
              let sigma =
                Sortwrap.sorting_perm ctx
                  ~algo:(Sortwrap.default_algo_for_width w)
                  [ (Share.unpark (List.hd cs), w) ]
              in
              sigmas := Share.reconstruct sigma :: !sigmas;
              [])
        in
        (res, !sigmas)
      in
      tally_eq (tag "perm tally") tal1 tal2;
      match sigmas with
      | [ s2; s1 ] ->
          Alcotest.(check vec) (tag "sigma") s1 s2;
          let sorted = Array.copy key in
          Array.stable_sort compare sorted;
          Alcotest.(check vec) (tag "sigma sorts")
            sorted (Orq_util.Parallel.apply_perm key s1)
      | _ -> Alcotest.fail "arity")
    [ (56, 8); (53, 8); (56, 40); (53, 40) ]

(* a 2-key TableSort (the sigma-extraction pipeline), whole vs parked
   table: equal values and tallies, and parked columns stay parked *)
let test_tablesort () =
  for_all_kinds @@ fun kind ->
  List.iter
    (fun n ->
      let tag s = Printf.sprintf "%s %s n=%d" s (kind_name kind) n in
      let st = Random.State.make [| 9; n |] in
      let col () = Array.init n (fun _ -> Random.State.int st 16) in
      let a = col () and b = col () and c = rand_array st n in
      let run park =
        let ctx = Ctx.create ~seed:44 kind in
        let t =
          Orq_core.Table.create ctx "t" [ ("a", 4, a); ("b", 4, b); ("c", 20, c) ]
        in
        if park then Orq_core.Table.park t;
        let before = Comm.snapshot ctx.Ctx.comm in
        let t' =
          Orq_core.Tablesort.sort t
            [ ("a", Orq_core.Tablesort.Asc); ("b", Orq_core.Tablesort.Desc) ]
        in
        let tal = Comm.since ctx.Ctx.comm before in
        let tracked =
          List.map
            (fun (_, col) -> Share.chunked_tracked (Orq_core.Column.chunked col))
            t'.Orq_core.Table.cols
        in
        (Orq_core.Table.peek t', tracked, tal)
      in
      let (v1, tr1, tal1) = run false in
      let (v2, tr2, tal2) = with_streaming ~rows:7 (fun () -> run true) in
      Alcotest.(check (list (pair string vec))) (tag "columns") (fst v1) (fst v2);
      Alcotest.(check vec) (tag "valid") (snd v1) (snd v2);
      tally_eq (tag "tally") tal1 tal2;
      Alcotest.(check bool) (tag "whole stays whole") true
        (List.for_all not tr1);
      Alcotest.(check bool) (tag "parked stays parked") true
        (List.for_all Fun.id tr2))
    [ 56; 53 ]

(* TableSort against a plaintext stable lexicographic sort: 1-4 keys of
   1-40 bits (a key above 32 bits makes the sort a quicksort; more than
   63 key bits pack into two words), mixed directions and many duplicate
   keys, under every protocol. A row-id payload checks stability. The
   parked table (5-row chunks) must give the whole table's values and
   tally, and an all-radix multi-key sort under SH-HM costs exactly
   6 floor(W/2) + 5 (W mod 2) rounds for its W key bits plus 6 for the
   inversion and the final table application (each elementwise
   application 3 rounds: its index vector opens in its shuffle's last
   round). *)
let qcheck_tablesort_vs_plaintext =
  QCheck.Test.make ~name:"TableSort = plaintext stable sort, whole = chunked"
    ~count:10 QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 2 + Random.State.int st 20 in
      let nkeys = 1 + Random.State.int st 4 in
      let widths = List.init nkeys (fun _ -> 1 + Random.State.int st 40) in
      (* half the time the last key fills the key up to exactly one
         63-bit word, where the radix and quicksort packings differ *)
      let widths =
        match List.rev widths with
        | _ :: (_ :: _ as rest) when Random.State.bool st ->
            let fill = 63 - List.fold_left ( + ) 0 rest in
            if fill >= 1 && fill <= 40 then List.rev (fill :: rest) else widths
        | _ -> widths
      in
      let keys =
        List.mapi
          (fun i w ->
            (* a few distinct values per key: duplicates are common *)
            let pool =
              Array.init 3 (fun _ -> Random.State.full_int st (1 lsl w))
            in
            let v = Array.init n (fun _ -> pool.(Random.State.int st 3)) in
            let o =
              if Random.State.bool st then Orq_core.Tablesort.Asc
              else Orq_core.Tablesort.Desc
            in
            (Printf.sprintf "k%d" i, w, v, o))
          widths
      in
      let total = List.fold_left (fun a (_, w, _, _) -> a + w) 0 keys in
      let cmp_rows i j =
        List.fold_left
          (fun c (_, _, v, o) ->
            if c <> 0 then c
            else
              match o with
              | Orq_core.Tablesort.Asc -> compare v.(i) v.(j)
              | Orq_core.Tablesort.Desc -> compare v.(j) v.(i))
          0 keys
      in
      let order = List.stable_sort cmp_rows (List.init n Fun.id) in
      let expected =
        List.map
          (fun (name, _, v, _) ->
            (name, Array.of_list (List.map (fun i -> v.(i)) order)))
          keys
        @ [ ("id", Array.of_list order) ]
      in
      List.for_all
        (fun kind ->
          let run park =
            let ctx = Ctx.create ~seed:61 kind in
            let t =
              Orq_core.Table.create ctx "t"
                (List.map (fun (name, w, v, _) -> (name, w, v)) keys
                @ [ ("id", 5, Array.init n Fun.id) ])
            in
            if park then Orq_core.Table.park t;
            let before = Comm.snapshot ctx.Ctx.comm in
            let t' =
              Orq_core.Tablesort.sort t
                (List.map (fun (name, _, _, o) -> (name, o)) keys)
            in
            (Orq_core.Table.peek t', Comm.since ctx.Ctx.comm before)
          in
          let ((cols, valid), tal) = run false in
          let ((cols', valid'), tal') =
            with_streaming ~rows:5 (fun () -> run true)
          in
          let all_radix =
            nkeys >= 2 && List.for_all (fun (_, w, _, _) -> w <= 32) keys
          in
          let fail what =
            QCheck.Test.fail_reportf "%s %s: n=%d widths=[%s]" (kind_name kind)
              what n
              (String.concat ";"
                 (List.map (fun (_, w, _, _) -> string_of_int w) keys))
          in
          if cols <> expected || valid <> Array.make n 1 then fail "values"
          else if cols' <> expected || valid' <> valid then fail "chunked values"
          else if tal <> tal' then fail "chunked tally"
          else if
            kind = Ctx.Sh_hm && all_radix
            && tal.Comm.t_rounds
               <> (6 * (total / 2)) + (5 * (total mod 2)) + 6
          then fail (Printf.sprintf "rounds %d" tal.Comm.t_rounds)
          else true)
        Ctx.all_kinds)

(* A whole-vector sort never charges the chunk store: the quicksort
   fallback's repack follows the key's tracking, and a multi-key sort's
   packed words and index column are whole vectors. *)
let test_whole_sort_untracked () =
  Gc.full_major ();
  Chunkvec.reset_peak ();
  let live0 = Chunkvec.live_bytes () in
  for_all_kinds (fun kind ->
      List.iter
        (fun w ->
          let ctx = Ctx.create ~seed:55 kind in
          let st = Random.State.make [| 10 |] in
          let keys = Array.init 300 (fun _ -> Random.State.int st 65536) in
          let key = Share.wrap (Mpc.share_b ctx keys) in
          ignore (Sortwrap.sort ctx ~dir:Sortwrap.Asc ~w key []);
          ignore
            (Orq_core.Tablesort.sort_cols ctx
               ~keys:
                 [
                   (key, w, Orq_core.Tablesort.Asc);
                   (key, w, Orq_core.Tablesort.Desc);
                 ]
               [ (key, w) ]))
        [ 16; 40 ]);
  Alcotest.(check int) "no tracked bytes" live0 (Chunkvec.peak_live_bytes ())

(* ------------------------------------------------------------------ *)
(* Query-level: full TPC-H plans, streaming + tiny budget              *)
(* ------------------------------------------------------------------ *)

let plain = lazy (Tpch_gen.generate ~seed:99 0.0002)

(* Q1: sort + group-by aggregation; Q6: filter + global aggregate;
   Q12: join + aggregation (exercises the oblivious join/agg stack) *)
let check_query qname kind =
  let tag s = Printf.sprintf "%s %s %s" qname (kind_name kind) s in
  let plain = Lazy.force plain in
  let q = Tpch.find qname in
  let ctx1 = Ctx.create ~seed:5 kind in
  let mdb1 = Tpch_gen.share ctx1 plain in
  let before1 = Comm.snapshot ctx1.Ctx.comm in
  let ok1, rows1, _ = Tpch.validate q plain mdb1 in
  let tal1 = Comm.since ctx1.Ctx.comm before1 in
  Alcotest.(check bool) (tag "monolithic ok") true ok1;
  (* chunked run under a budget small enough to force spilling *)
  with_streaming ~rows:64 ~budget:(32 * 1024) (fun () ->
      let sp0 = (Chunkvec.stats ()).Chunkvec.st_spills in
      let ctx2 = Ctx.create ~seed:5 kind in
      let mdb2 = Tpch_gen.share ctx2 plain in
      let before2 = Comm.snapshot ctx2.Ctx.comm in
      let ok2, rows2, _ = Tpch.validate q plain mdb2 in
      let tal2 = Comm.since ctx2.Ctx.comm before2 in
      Alcotest.(check bool) (tag "chunked ok") true ok2;
      Alcotest.(check (list (list int))) (tag "rows") rows1 rows2;
      tally_eq (tag "tally") tal1 tal2;
      Alcotest.(check bool) (tag "spilled under tiny budget") true
        ((Chunkvec.stats ()).Chunkvec.st_spills > sp0))

let test_queries () =
  for_all_kinds @@ fun kind ->
  List.iter (fun qname -> check_query qname kind) [ "Q1"; "Q6"; "Q12" ]

let suite =
  [
    Alcotest.test_case "whole-vector sort leaves the store alone" `Quick
      test_whole_sort_untracked;
    QCheck_alcotest.to_alcotest qcheck_tablesort_vs_plaintext;
    Alcotest.test_case "parse_bytes" `Quick test_parse_bytes;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "local ops == monolithic" `Quick test_local_ops;
    Alcotest.test_case "append reuses chunks" `Quick test_append_reuse;
    Alcotest.test_case "spill + fault under budget" `Quick test_spill;
    Alcotest.test_case "share gather/scatter" `Quick test_share_gather_scatter;
    Alcotest.test_case "shuffle_table values+tally" `Quick test_shuffle_table;
    Alcotest.test_case "sort values+tally" `Quick test_sort;
    Alcotest.test_case "tablesort values+tally" `Quick test_tablesort;
    Alcotest.test_case "alias gather/scatter fast path" `Quick
      test_alias_fast_path;
    Alcotest.test_case "tpch queries streamed" `Slow test_queries;
  ]

let () = Alcotest.run "orq_chunked" [ ("chunked", suite) ]
