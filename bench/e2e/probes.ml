(* Primitive probes: nanoseconds per element of single MPC primitives and
   operators, at the workload's lineitem row count and protocol, on a
   context of their own (the workload's tallies stay untouched). Each
   probe is the median of [reps] timed calls on fresh random shares. *)

open Orq_proto

let reps = 5

let probe tracer name ~n f =
  let times =
    List.init reps (fun _ ->
        let t0 = Common.now () in
        f ();
        let t1 = Common.now () in
        Tracer.add_span tracer ("probe." ^ name) ~attrs:[ ("n", Json.Num (float_of_int n)) ] t0 t1;
        t1 -. t0)
  in
  Common.metric (name ^ "_ns") (Common.median times *. 1e9 /. float_of_int n)

let run tracer kind ~n ~seed =
  let ctx = Ctx.create ~seed kind in
  let prg = Orq_util.Prg.create seed in
  let vec bits = Array.init n (fun _ -> Orq_util.Prg.int_below prg (1 lsl bits)) in
  let a () = Mpc.share_a ctx (vec 32) and b () = Mpc.share_b ctx (vec 32) in
  let x = a () and y = a () and u = b () and v = b () in
  let key = Mpc.share_b ctx (vec 16) in
  [
    probe tracer "proto.mul" ~n (fun () -> ignore (Mpc.mul ctx x y));
    probe tracer "proto.band" ~n (fun () -> ignore (Mpc.band ctx u v));
    probe tracer "proto.open" ~n (fun () -> ignore (Mpc.open_ ctx x));
    probe tracer "circuits.lt" ~n (fun () ->
        ignore (Orq_circuits.Compare.lt ctx ~w:32 u v));
    probe tracer "circuits.a2b" ~n (fun () ->
        ignore (Orq_circuits.Convert.a2b ~w:32 ctx x));
    probe tracer "shuffle.shuffle" ~n (fun () ->
        ignore (Orq_shuffle.Permops.shuffle ctx x));
    probe tracer "sort.radixsort" ~n (fun () ->
        ignore (Orq_sort.Radixsort.sort ctx ~bits:16 key [ u ]));
  ]

(* Sql.parse_query + Optimize.run: mean over [sqls] of the median of 20
   runs, on a catalog shared in this process. *)
let plan_ms db sqls =
  let catalog = Orq_workloads.Tpch_gen.catalog db in
  Common.mean
    (List.map
       (fun sql ->
         Common.median
           (List.init 20 (fun _ ->
                let t0 = Common.now () in
                let plan, _ = Orq_planner.Sql.parse_query catalog sql in
                ignore (Orq_planner.Optimize.run plan);
                (Common.now () -. t0) *. 1e3)))
       sqls)
