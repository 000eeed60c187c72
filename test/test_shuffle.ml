(* Tests for the oblivious shuffle stack: local permutations, sharded
   permutations, and Protocols 4-8 (shuffle, elementwise application,
   composition, conversion, inversion), under all three MPC protocols. *)

open Orq_util
open Orq_proto
open Orq_shuffle

(* The plaintext inverse: q.(p.(i)) = i. *)
let invert p =
  let q = Array.make (Array.length p) 0 in
  Array.iteri (fun i j -> q.(j) <- i) p;
  q

let kinds = Ctx.all_kinds
let vec = Alcotest.(array int)
let for_all_kinds f = List.iter (fun k -> f (Ctx.create ~seed:21 k)) kinds

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* ---------------- local permutations ---------------- *)

let test_localperm_random () =
  let prg = Prg.create 1 in
  let p = Localperm.random prg 100 in
  Alcotest.(check bool) "is permutation" true (Localperm.is_permutation p);
  let q = Localperm.random prg 100 in
  Alcotest.(check bool) "distinct draws" false (p = q)

let test_localperm_algebra () =
  let prg = Prg.create 2 in
  let p = Localperm.random prg 50 and q = Localperm.random prg 50 in
  let x = Prg.words prg 50 in
  (* apply then inverse is identity *)
  Alcotest.(check vec) "apply/inverse" x
    (Orq_util.Vec.gather (Orq_util.Vec.scatter x p) p);
  (* invert *)
  Alcotest.(check vec) "invert" x
    (Orq_util.Vec.scatter (Orq_util.Vec.scatter x p) (invert p));
  (* compose: apply (compose p q) == apply q then p *)
  Alcotest.(check vec) "compose"
    (Orq_util.Vec.scatter (Orq_util.Vec.scatter x q) p)
    (Orq_util.Vec.scatter x (Localperm.compose p q))

let qcheck_localperm_compose =
  QCheck.Test.make ~name:"compose associativity" ~count:30
    QCheck.(small_nat)
    (fun seed ->
      let prg = Prg.create (seed + 3) in
      let n = 20 in
      let a = Localperm.random prg n
      and b = Localperm.random prg n
      and c = Localperm.random prg n in
      Localperm.compose (Localperm.compose a b) c
      = Localperm.compose a (Localperm.compose b c))

(* ---------------- sharded permutations ---------------- *)

(* one whole vector through the column-list application *)
let apply1 ?inverse ctx s p =
  match Shardedperm.apply ?inverse ctx [ (Share.wrap s, ctx.Ctx.ell) ] p with
  | [ c ] -> Share.unpark c
  | _ -> Alcotest.fail "arity"

let test_sharded_apply () =
  for_all_kinds (fun ctx ->
      let x = Prg.words ctx.Ctx.prg 64 in
      let p = Shardedperm.gen ctx 64 in
      let y = apply1 ctx (Mpc.share_b ctx x) p |> Share.reconstruct in
      Alcotest.(check vec) "is plaintext perm"
        (Orq_util.Vec.scatter x (Shardedperm.plaintext p))
        y;
      Alcotest.(check vec) "multiset preserved" (sorted_copy x) (sorted_copy y))

let test_sharded_inverse () =
  for_all_kinds (fun ctx ->
      let x = Prg.words ctx.Ctx.prg 40 in
      let p = Shardedperm.gen ctx 40 in
      let y = apply1 ctx (Mpc.share_a ctx x) p in
      let z = apply1 ~inverse:true ctx y p |> Share.reconstruct in
      Alcotest.(check vec) "inverse undoes apply" x z)

let test_sharded_metering () =
  (* Table 1: applySharded totals (bits, rounds): 2PC (2ln, 2);
     3PC (6ln, 3); 4PC (24ln, 4) *)
  let expect = [ (Ctx.Sh_dm, 2, 2); (Ctx.Sh_hm, 6, 3); (Ctx.Mal_hm, 24, 4) ] in
  List.iter
    (fun (k, factor, rounds) ->
      let ctx = Ctx.create k in
      let n = 16 in
      let x = Mpc.share_b ctx (Array.make n 5) in
      let p = Shardedperm.gen ctx n in
      let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
      ignore (apply1 ctx x p);
      let tl = Orq_net.Comm.since ctx.Ctx.comm before in
      Alcotest.(check int)
        (Ctx.kind_label k ^ " bits")
        (factor * ctx.Ctx.ell * n)
        tl.Orq_net.Comm.t_bits;
      Alcotest.(check int) (Ctx.kind_label k ^ " rounds") rounds
        tl.Orq_net.Comm.t_rounds)
    expect

let test_sharded_table_rounds () =
  for_all_kinds (fun ctx ->
      let n = 8 in
      let cols = List.init 5 (fun i -> Mpc.share_b ctx (Array.make n i)) in
      let p = Shardedperm.gen ctx n in
      let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
      let single = apply1 ctx (List.hd cols) p in
      let tl1 = Orq_net.Comm.since ctx.Ctx.comm before in
      ignore single;
      let before2 = Orq_net.Comm.snapshot ctx.Ctx.comm in
      ignore
        (Shardedperm.apply ctx
           (List.map (fun c -> (Share.wrap c, ctx.Ctx.ell)) cols)
           p);
      let tl2 = Orq_net.Comm.since ctx.Ctx.comm before2 in
      Alcotest.(check int) "table apply same rounds as single"
        tl1.Orq_net.Comm.t_rounds tl2.Orq_net.Comm.t_rounds;
      Alcotest.(check int) "table apply 5x bits" (5 * tl1.Orq_net.Comm.t_bits)
        tl2.Orq_net.Comm.t_bits)

let test_sharded_malicious_abort () =
  let ctx = Ctx.create Ctx.Mal_hm in
  let x = Mpc.share_b ctx [| 1; 2; 3; 4 |] in
  let p = Shardedperm.gen ctx 4 in
  let tampered ~party ~op = if party = 1 && op = "shuffle" then Some 1 else None in
  Alcotest.check_raises "tampered reshare aborts"
    (Ctx.Abort "shuffle: reshare verification failed") (fun () ->
      Ctx.with_tamper ctx tampered (fun () -> ignore (apply1 ctx x p)))

(* ---------------- Protocols 4-8 ---------------- *)

let test_shuffle () =
  for_all_kinds (fun ctx ->
      let x = Array.init 50 (fun i -> i * 10) in
      let y = Permops.shuffle ctx (Mpc.share_b ctx x) |> Share.reconstruct in
      Alcotest.(check vec) "multiset preserved" (sorted_copy x) (sorted_copy y);
      Alcotest.(check bool) "actually moved" false (( = ) x y))

let test_shuffle_table_consistent () =
  for_all_kinds (fun ctx ->
      let x = Array.init 30 (fun i -> i) in
      let y = Array.init 30 (fun i -> 100 + i) in
      match
        Permops.shuffle_table ctx
          [
            (Share.wrap (Mpc.share_b ctx x), 5);
            (Share.wrap (Mpc.share_b ctx y), 8);
          ]
      with
      | [ sx; sy ] ->
          let x' = Share.reconstruct_c sx and y' = Share.reconstruct_c sy in
          Array.iteri
            (fun i xi ->
              Alcotest.(check int) "rows move together" (xi + 100) y'.(i))
            x'
      | _ -> Alcotest.fail "arity")

let test_apply_elementwise () =
  for_all_kinds (fun ctx ->
      let n = 25 in
      let x = Prg.words ctx.Ctx.prg n in
      let rho = Localperm.random ctx.Ctx.prg n in
      let y =
        Permops.apply_elementwise_table ctx
          [ (Share.wrap (Mpc.share_b ctx x), ctx.Ctx.ell) ]
          (Mpc.share_a ctx rho)
        |> List.hd |> Share.reconstruct_c
      in
      Alcotest.(check vec) "rho(x)" (Orq_util.Vec.scatter x rho) y)

let test_apply_elementwise_table () =
  for_all_kinds (fun ctx ->
      let n = 12 in
      let x = Array.init n (fun i -> i) in
      let y = Array.init n (fun i -> i * i) in
      let rho = Localperm.random ctx.Ctx.prg n in
      match
        Permops.apply_elementwise_table ctx
          [
            (Share.wrap (Mpc.share_b ctx x), 4);
            (Share.wrap (Mpc.share_b ctx y), 8);
          ]
          (Mpc.share_b ctx rho)
      with
      | [ sx; sy ] ->
          Alcotest.(check vec) "col x" (Orq_util.Vec.scatter x rho)
            (Share.reconstruct_c sx);
          Alcotest.(check vec) "col y" (Orq_util.Vec.scatter y rho)
            (Share.reconstruct_c sy)
      | _ -> Alcotest.fail "arity")

let test_compose () =
  for_all_kinds (fun ctx ->
      let n = 20 in
      let sigma = Localperm.random ctx.Ctx.prg n in
      let rho = Localperm.random ctx.Ctx.prg n in
      let got =
        Permops.compose ctx (Mpc.share_b ctx sigma) (Mpc.share_b ctx rho)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "rho o sigma" (Localperm.compose rho sigma) got)

let test_invert () =
  for_all_kinds (fun ctx ->
      let n = 20 in
      let pi = Localperm.random ctx.Ctx.prg n in
      let got = Permops.invert ctx (Mpc.share_b ctx pi) |> Share.reconstruct in
      Alcotest.(check vec) "pi^{-1}" (invert pi) got)

let test_convert () =
  for_all_kinds (fun ctx ->
      let n = 20 in
      let pi = Localperm.random ctx.Ctx.prg n in
      let a = Permops.convert ctx (Mpc.share_b ctx pi) Share.Arith in
      Alcotest.(check bool) "enc changed" true (a.Share.enc = Share.Arith);
      Alcotest.(check vec) "value preserved" pi (Share.reconstruct a);
      let b = Permops.convert ctx a Share.Bool in
      Alcotest.(check vec) "roundtrip" pi (Share.reconstruct b))

(* ---------------- width-aware application ---------------- *)

(* Table 1 bits per element per bit of width: 2PC 2, 3PC 6, 4PC 24. *)
let table1_factor = function
  | Ctx.Sh_dm -> 2
  | Ctx.Sh_hm -> 6
  | Ctx.Mal_hm -> 24

let sharded_rounds = function Ctx.Sh_dm -> 2 | Ctx.Sh_hm -> 3 | Ctx.Mal_hm -> 4

(* Row i of a mixed-width table: a 1-bit and a 12-bit boolean column, a
   boolean row-index column at [Ring.index_bits n] (the width every
   permutation index travels at), and an arithmetic column at ell. The
   index column is unique per row, so it identifies where each row went. *)
let mixed_table (ctx : Ctx.t) n =
  let plain =
    [
      (Array.init n (fun i -> i land 1), 1, Share.Bool);
      (Array.init n (fun i -> (i * 37) land 0xFFF), 12, Share.Bool);
      (Array.init n (fun i -> i), Ring.index_bits n, Share.Bool);
      (Array.init n (fun i -> (i * 7919) - 500), ctx.Ctx.ell, Share.Arith);
    ]
  in
  let cols =
    List.map (fun (x, w, enc) -> (Share.wrap (Share.share ctx enc x), w)) plain
  in
  (List.map (fun (x, _, _) -> x) plain, cols)

(* Every share vector of a narrowed boolean output stays under its width. *)
let check_share_widths tag cols outs =
  List.iter2
    (fun (_, w) out ->
      let s = Share.unpark out in
      if s.Share.enc = Share.Bool && w < Ring.word_bits then
        Array.iter
          (fun vk ->
            Array.iter
              (fun x ->
                if x lsr w <> 0 then
                  Alcotest.failf "%s: a share has bits above width %d" tag w)
              vk)
          s.Share.v)
    cols outs

let tally_of ctx f =
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let r = f () in
  (r, Orq_net.Comm.since ctx.Ctx.comm before)

let test_mixed_width_shuffle_table () =
  List.iter
    (fun k ->
      let ctx = Ctx.create ~seed:23 k in
      let n = 40 in
      let plain, cols = mixed_table ctx n in
      let outs, tl = tally_of ctx (fun () -> Permops.shuffle_table ctx cols) in
      let tag = Ctx.kind_label k in
      let got = List.map Share.reconstruct_c outs in
      (* rows move together: locate each output row by its unique id *)
      let ids = List.nth plain 2 in
      Array.iteri
        (fun j id ->
          let i =
            match Array.find_index (( = ) id) ids with
            | Some i -> i
            | None -> Alcotest.failf "%s: id %d lost" tag id
          in
          List.iter2
            (fun x y ->
              Alcotest.(check int) (tag ^ " row moved whole") x.(i) y.(j))
            plain got)
        (List.nth got 2);
      let wsum = List.fold_left (fun acc (_, w) -> acc + w) 0 cols in
      Alcotest.(check int) (tag ^ " bits = sum of per-width costs")
        (table1_factor k * wsum * n) tl.Orq_net.Comm.t_bits;
      Alcotest.(check int) (tag ^ " rounds") (sharded_rounds k)
        tl.Orq_net.Comm.t_rounds;
      check_share_widths tag cols outs)
    kinds

let test_mixed_width_apply_elementwise () =
  List.iter
    (fun k ->
      let n = 40 in
      let run cols_of =
        let ctx = Ctx.create ~seed:29 k in
        let rho = Localperm.random ctx.Ctx.prg n in
        let plain, cols = mixed_table ctx n in
        let cols = cols_of ctx cols in
        let outs, tl =
          tally_of ctx (fun () ->
              Permops.apply_elementwise_table ctx cols (Mpc.share_b ctx rho))
        in
        (rho, plain, cols, outs, tl)
      in
      let tag = Ctx.kind_label k in
      let rho, plain, cols, outs, tl = run (fun _ cols -> cols) in
      List.iter2
        (fun x out ->
          Alcotest.(check vec) (tag ^ " rho(x)") (Orq_util.Vec.scatter x rho)
            (Share.reconstruct_c out))
        plain outs;
      check_share_widths tag cols outs;
      (* against the same call on the 1-bit column alone: the same rounds,
         and exactly the other columns' per-width costs more bits *)
      let _, _, _, _, tl1 = run (fun _ cols -> [ List.hd cols ]) in
      let wrest = List.fold_left (fun acc (_, w) -> acc + w) 0 (List.tl cols) in
      Alcotest.(check int) (tag ^ " extra bits")
        (table1_factor k * wrest * n)
        (tl.Orq_net.Comm.t_bits - tl1.Orq_net.Comm.t_bits);
      Alcotest.(check int) (tag ^ " rounds unchanged") tl1.Orq_net.Comm.t_rounds
        tl.Orq_net.Comm.t_rounds;
      (* and against every column at ell: rounds and messages unchanged *)
      let _, _, _, _, tl64 =
        run (fun ctx cols -> List.map (fun (c, _) -> (c, ctx.Ctx.ell)) cols)
      in
      Alcotest.(check int) (tag ^ " rounds as at ell")
        tl64.Orq_net.Comm.t_rounds tl.Orq_net.Comm.t_rounds;
      Alcotest.(check int) (tag ^ " messages as at ell")
        tl64.Orq_net.Comm.t_messages tl.Orq_net.Comm.t_messages)
    kinds

(* An arithmetic column outside widths 1 .. ell is refused, and a
   narrowed one (not an index vector) cannot be opened: it is defined
   modulo 2^w only. *)
let test_arith_width_refused () =
  for_all_kinds (fun ctx ->
      let x = Share.wrap (Mpc.share_a ctx (Array.init 8 (fun i -> i))) in
      let p = Shardedperm.gen ctx 8 in
      List.iter
        (fun w ->
          match Shardedperm.apply ctx [ (x, w) ] p with
          | _ -> Alcotest.failf "an arithmetic column at %d bits was accepted" w
          | exception Invalid_argument _ -> ())
        [ 0; ctx.Ctx.ell + 1 ];
      match Shardedperm.apply_open ctx ~opened:[ (x, 12) ] [] p with
      | _ -> Alcotest.fail "an arithmetic lane opened at 12 bits"
      | exception Invalid_argument _ -> ())

let test_out_of_width_debug () =
  let was = Debug.enabled () in
  Fun.protect ~finally:(fun () -> Debug.set_checks was) @@ fun () ->
  for_all_kinds (fun ctx ->
      let ok = Share.wrap (Mpc.share_b ctx (Array.make 8 3)) in
      let bad = Share.wrap (Mpc.share_b ctx (Array.init 8 (fun i -> i * 40))) in
      let p = Shardedperm.gen ctx 8 in
      Debug.set_checks true;
      (match Shardedperm.apply ctx [ (ok, 2); (bad, 8) ] p with
      | _ -> Alcotest.fail "280 passed as an 8-bit value"
      | exception Invalid_argument msg ->
          let mentions sub =
            let ls = String.length msg and lb = String.length sub in
            let rec go i =
              i + lb <= ls && (String.sub msg i lb = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) ("names the column: " ^ msg) true
            (mentions "column 1" && mentions "width 8"));
      (* without the checks the masked wire simply drops the high bits *)
      Debug.set_checks false;
      match Shardedperm.apply ctx [ (bad, 8) ] p with
      | [ c ] ->
          Alcotest.(check vec) "masked on receipt"
            (Orq_util.Vec.scatter (Array.init 8 (fun i -> (i * 40) land 0xFF))
               (Shardedperm.plaintext p))
            (Share.reconstruct_c c)
      | _ -> Alcotest.fail "arity")

(* ---------------- index width at the wrap point ---------------- *)

(* Row counts around the index width's wrap points 2^k ([Ring.index_bits]
   is 6 at n = 64, 7 at n = 65). *)
let wrap_ns = [ 1; 2; 3; 63; 64; 65; 1023; 1024; 1025 ]

(* [f] on a fresh context with the debug checks on, so an index column
   that does not fit its declared width fails loudly; with [chunked] the
   chunk store is on (7-row chunks) and [f] parks its data columns. *)
let with_wrap_ctx ~chunked kind f =
  let was = Debug.enabled () and rows0 = Chunkvec.chunk_rows ()
  and on0 = Chunkvec.streaming_enabled () in
  Fun.protect
    ~finally:(fun () ->
      Debug.set_checks was;
      Chunkvec.set_chunk_rows rows0;
      Chunkvec.set_streaming on0)
  @@ fun () ->
  Debug.set_checks true;
  if chunked then Chunkvec.set_chunk_rows 7;
  f (Ctx.create ~seed:62 kind)

(* Protocols 5-8 stay exact on both sides of every wrap point, with
   boolean and arithmetic permutations, whole and chunked. *)
let test_perm_protocols_wrap () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          List.iter
            (fun chunked ->
              with_wrap_ctx ~chunked kind @@ fun ctx ->
              let tag s =
                Printf.sprintf "%s n=%d%s %s" (Ctx.kind_label kind) n
                  (if chunked then " chunked" else "") s
              in
              let sigma = Localperm.random ctx.Ctx.prg n in
              let rho = Localperm.random ctx.Ctx.prg n in
              let x = Array.init n (fun i -> (i * 7919) land 0xFFFF) in
              let col =
                let s = Mpc.share_b ctx x in
                if chunked then Share.park s else Share.wrap s
              in
              (match
                 Permops.apply_elementwise_table ctx [ (col, 16) ]
                   (Mpc.share_a ctx rho)
               with
              | [ y ] ->
                  Alcotest.(check vec) (tag "rho(x)") (Orq_util.Vec.scatter x rho)
                    (Share.reconstruct_c y)
              | _ -> Alcotest.fail "arity");
              List.iter
                (fun (share, enc) ->
                  let e s = tag (s ^ " " ^ enc) in
                  Alcotest.(check vec) (e "invert") (invert sigma)
                    (Share.reconstruct (Permops.invert ctx (share ctx sigma)));
                  Alcotest.(check vec) (e "compose")
                    (Localperm.compose rho sigma)
                    (Share.reconstruct
                       (Permops.compose ctx (share ctx sigma) (share ctx rho))))
                [ (Mpc.share_b, "bool"); (Mpc.share_a, "arith") ];
              let a = Permops.convert ctx (Mpc.share_b ctx sigma) Share.Arith in
              Alcotest.(check vec) (tag "convert to arith") sigma
                (Share.reconstruct a);
              Alcotest.(check vec) (tag "convert back") sigma
                (Share.reconstruct (Permops.convert ctx a Share.Bool)))
            [ false; true ])
        wrap_ns)
    kinds

(* Meter pin: at n = 3000 an elementwise application of one 8-bit column
   charges the data shuffle at 8 bits and rho's shuffle and open at
   [Ring.index_bits 3000] = 12 bits, not the paper's fixed 32 (under
   SH-HM the open rides rho's shuffle: {!Primcost.shuffle_open}). *)
let test_apply_elementwise_index_meter () =
  Alcotest.(check int) "index_bits 3000" 12 (Ring.index_bits 3000);
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:63 kind in
      let n = 3000 in
      let x = Mpc.share_b ctx (Array.init n (fun i -> i land 0xFF)) in
      let rho = Mpc.share_b ctx (Localperm.random ctx.Ctx.prg n) in
      let _, tl =
        tally_of ctx (fun () ->
            Permops.apply_elementwise_table ctx [ (Share.wrap x, 8) ] rho)
      in
      let want =
        Primcost.tally_of
          (Array.concat
             [
               Primcost.shuffle kind ~w:8 ~n;
               Primcost.shuffle_open kind ~w:0 ~opened:[ 12 ] ~n;
             ])
      in
      Alcotest.(check int)
        (Ctx.kind_label kind ^ " bits at 8 + 12 + 12")
        want.Orq_net.Comm.t_bits tl.Orq_net.Comm.t_bits;
      Alcotest.(check int)
        (Ctx.kind_label kind ^ " messages")
        want.Orq_net.Comm.t_messages tl.Orq_net.Comm.t_messages)
    kinds

(* An arithmetic column passes a sharded permutation at every width w
   from 1 to ell: at ell, and at the index width of its length (an index
   vector), it arrives exact; at any other width it arrives modulo 2^w,
   under debug checks too. *)
let test_arith_widths_mod () =
  let was = Debug.enabled () in
  Fun.protect ~finally:(fun () -> Debug.set_checks was) @@ fun () ->
  Debug.set_checks true;
  for_all_kinds (fun ctx ->
      List.iter
        (fun n ->
          let v = Array.init n (fun i -> (i * 2654435761) lxor (i lsl 40)) in
          let x = Share.wrap (Mpc.share_a ctx v) in
          let idx = Share.wrap (Mpc.share_a ctx (Array.init n (fun i -> i))) in
          let p = Shardedperm.gen ctx n in
          let moved = Orq_util.Vec.scatter v (Shardedperm.plaintext p) in
          for w = 1 to ctx.Ctx.ell do
            let iw = Ring.index_bits n in
            let col = if w = iw then idx else x in
            match Shardedperm.apply ctx [ (col, w) ] p with
            | [ y ] ->
                let got = Share.reconstruct_c y in
                if w = iw then
                  Alcotest.(check vec)
                    (Printf.sprintf "n=%d w=%d index exact" n w)
                    (Orq_util.Vec.scatter (Array.init n Fun.id) (Shardedperm.plaintext p))
                    got
                else
                  let m = if w >= Ring.word_bits then Ring.ones else Ring.mask w in
                  Alcotest.(check vec)
                    (Printf.sprintf "n=%d w=%d modulo 2^w" n w)
                    (Array.map (fun u -> u land m) moved)
                    (Array.map (fun u -> u land m) got)
            | _ -> Alcotest.fail "arity"
          done)
        wrap_ns)

let qcheck_perm_protocols_compose_invert =
  QCheck.Test.make ~name:"invert(compose) laws under MPC" ~count:10
    QCheck.small_nat
    (fun seed ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:(seed + 31) k in
          let n = 16 in
          let sigma = Localperm.random ctx.Ctx.prg n in
          let inv =
            Permops.invert ctx (Mpc.share_b ctx sigma) |> Share.reconstruct
          in
          let composed =
            Permops.compose ctx (Mpc.share_b ctx sigma) (Mpc.share_b ctx inv)
            |> Share.reconstruct
          in
          composed = Localperm.identity n)
        kinds)

let suite =
  [
    Alcotest.test_case "fisher-yates" `Quick test_localperm_random;
    Alcotest.test_case "local perm algebra" `Quick test_localperm_algebra;
    QCheck_alcotest.to_alcotest qcheck_localperm_compose;
    Alcotest.test_case "sharded apply" `Quick test_sharded_apply;
    Alcotest.test_case "sharded inverse" `Quick test_sharded_inverse;
    Alcotest.test_case "sharded metering (Table 1)" `Quick test_sharded_metering;
    Alcotest.test_case "table apply batches rounds" `Quick
      test_sharded_table_rounds;
    Alcotest.test_case "Mal-HM abort on tampered shuffle" `Quick
      test_sharded_malicious_abort;
    Alcotest.test_case "Protocol 4: shuffle" `Quick test_shuffle;
    Alcotest.test_case "shuffle_table row consistency" `Quick
      test_shuffle_table_consistent;
    Alcotest.test_case "Protocol 5: applyElementwisePerm" `Quick
      test_apply_elementwise;
    Alcotest.test_case "Protocol 5 (table variant)" `Quick
      test_apply_elementwise_table;
    Alcotest.test_case "Protocol 6: composePerms" `Quick test_compose;
    Alcotest.test_case "Protocol 8: invertElementwisePerm" `Quick test_invert;
    Alcotest.test_case "Protocol 7: convertElementwisePerm" `Quick test_convert;
    Alcotest.test_case "Protocols 5-8 exact at index wrap points" `Quick
      test_perm_protocols_wrap;
    Alcotest.test_case "rho shuffled and opened at the index width" `Quick
      test_apply_elementwise_index_meter;
    Alcotest.test_case "arithmetic columns move mod 2^w" `Quick
      test_arith_widths_mod;
    QCheck_alcotest.to_alcotest qcheck_perm_protocols_compose_invert;
    Alcotest.test_case "mixed widths: shuffle_table" `Quick
      test_mixed_width_shuffle_table;
    Alcotest.test_case "mixed widths: applyElementwisePerm" `Quick
      test_mixed_width_apply_elementwise;
    Alcotest.test_case "arithmetic width outside 1..ell raises" `Quick
      test_arith_width_refused;
    Alcotest.test_case "out-of-width column raises under debug checks" `Quick
      test_out_of_width_debug;
  ]

let () = Alcotest.run "orq_shuffle" [ ("shuffle", suite) ]
