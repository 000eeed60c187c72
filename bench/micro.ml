(** Bechamel micro-benchmarks of the core secure primitives and operators —
    one [Test.make] per building block, reported as ns/op of the lockstep
    simulation (all parties' local compute) — and of the local [Vec] and
    fused MPC kernels underneath them. *)

open Bechamel
open Toolkit
open Orq_proto

let n = 1024

let with_ctx kind f =
  Staged.stage (fun () ->
      let ctx = Ctx.create ~seed:3 kind in
      f ctx)

let vec ctx = Orq_util.Prg.words ctx.Ctx.prg n

let tests =
  [
    Test.make ~name:"mul[sh-hm]"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x = Mpc.share_a ctx (vec ctx) in
           ignore (Mpc.mul ctx x x)));
    Test.make ~name:"mul[sh-dm]"
      (with_ctx Ctx.Sh_dm (fun ctx ->
           let x = Mpc.share_a ctx (vec ctx) in
           ignore (Mpc.mul ctx x x)));
    Test.make ~name:"mul[mal-hm]"
      (with_ctx Ctx.Mal_hm (fun ctx ->
           let x = Mpc.share_a ctx (vec ctx) in
           ignore (Mpc.mul ctx x x)));
    Test.make ~name:"and[sh-hm]"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x = Mpc.share_b ctx (vec ctx) in
           ignore (Mpc.band ctx x x)));
    Test.make ~name:"eq32"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x = Mpc.share_b ctx (vec ctx) in
           let y = Mpc.share_b ctx (vec ctx) in
           ignore (Orq_circuits.Compare.eq ctx ~w:32 x y)));
    Test.make ~name:"lt32"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x = Mpc.share_b ctx (vec ctx) in
           let y = Mpc.share_b ctx (vec ctx) in
           ignore (Orq_circuits.Compare.lt ctx ~w:32 x y)));
    Test.make ~name:"add32 (Sklansky)"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x = Mpc.share_b ctx (vec ctx) in
           let y = Mpc.share_b ctx (vec ctx) in
           ignore (Orq_circuits.Adder.add ctx ~w:32 x y)));
    Test.make ~name:"b2a32"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x = Mpc.share_b ctx (vec ctx) in
           ignore (Orq_circuits.Convert.b2a ~w:32 ctx x)));
    Test.make ~name:"a2b32"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x = Mpc.share_a ctx (vec ctx) in
           ignore (Orq_circuits.Convert.a2b ~w:32 ctx x)));
    Test.make ~name:"shuffle"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x = Mpc.share_b ctx (vec ctx) in
           ignore (Orq_shuffle.Permops.shuffle ctx x)));
    Test.make ~name:"genBitPerm"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let b = Mpc.and_mask (Mpc.share_b ctx (vec ctx)) 1 in
           ignore (Orq_sort.Genbitperm.gen_digit ctx [| Share.pack_flags b |])));
    Test.make ~name:"gen_digit 3-bit"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x = Mpc.share_b ctx (vec ctx) in
           ignore
             (Orq_sort.Genbitperm.gen_digit ctx
                (Array.init 3 (fun j -> Mpc.extract_bit_f x j)))));
    Test.make ~name:"radixsort16 n=1024"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x =
             Mpc.share_b ctx
               (Array.init n (fun _ ->
                    Orq_util.Prg.int_below ctx.Ctx.prg 65536))
           in
           ignore (Orq_sort.Radixsort.sort ctx ~bits:16 x [])));
    Test.make ~name:"quicksort16 n=1024"
      (with_ctx Ctx.Sh_hm (fun ctx ->
           let x =
             Mpc.share_b ctx
               (Array.init n (fun _ ->
                    Orq_util.Prg.int_below ctx.Ctx.prg 65536))
           in
           ignore
             (Orq_core.Tablesort.sort_cols ctx ~algo:Orq_core.Tablesort.Quicksort
                ~keys:[ (Share.wrap x, 16, Orq_core.Tablesort.Asc) ] [])));
  ]

(* The local kernels at n = 2^17, twice the pool's default split
   threshold, so [--domains 2] takes the parallel path. *)
let kernel_tests () =
  let open Orq_util in
  let kn = 1 lsl 17 in
  let prg = Prg.create 0xBE7C4 in
  let a = Prg.words prg kn and b = Prg.words prg kn and c = Prg.words prg kn in
  let d = Prg.words prg kn and e = Prg.words prg kn in
  let perm = Orq_shuffle.Localperm.random prg kn in
  let dst = Array.make kn 0 in
  let t name f = Test.make ~name:(name ^ " n=2^17") (Staged.stage f) in
  [
    t "Vec.mul" (fun () -> ignore (Vec.mul a b));
    t "Vec.band" (fun () -> ignore (Vec.band a b));
    t "Vec.add" (fun () -> ignore (Vec.add a b));
    t "Vec.xor" (fun () -> ignore (Vec.xor a b));
    t "Vec.gather" (fun () -> ignore (Vec.gather a perm));
    t "Vec.scatter" (fun () -> ignore (Vec.scatter a perm));
    t "Vec.prefix_sum" (fun () -> ignore (Vec.prefix_sum a));
    t "Vec.beaver_arith" (fun () ->
        ignore (Vec.beaver_arith ~tc:a ~d:b ~tb:c ~e:d ~ta:e ~with_de:true));
    t "Vec.rep3_arith_into" (fun () ->
        Vec.rep3_arith_into dst ~xi:a ~yi:b ~xj:c ~yj:d);
  ]

let run () =
  Bench_util.section
    "Bechamel micro-benchmarks (ns per op, n=1024 vectors; kernels n=2^17)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
      in
      let results = Analyze.all ols (Instance.monotonic_clock) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Bench_util.row "%-28s %12.0f ns/op" name est
          | _ -> Bench_util.row "%-28s %12s" name "n/a")
        results)
    (tests @ kernel_tests ())
