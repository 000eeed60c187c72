(** Bechamel micro-benchmarks of the core secure primitives and operators —
    one [Test.make] per building block, reported as ns/op of the lockstep
    simulation (all parties' local compute). *)

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
             (Orq_sort.Sortwrap.sort ctx ~algo:Orq_sort.Sortwrap.Quicksort
                ~dir:Orq_sort.Sortwrap.Asc ~w:16 (Share.wrap x) [])));
  ]

let run () =
  Bench_util.section "Bechamel micro-benchmarks (ns per op, n=1024 vectors)";
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
    tests
