(* Physical join selection under a zero-cost pacing profile. The dune
   stanza runs this executable with ORQ_JOIN_PROFILE=local, where every
   candidate's modeled network time is 0 s: the cost model must still
   pick the operator with fewer rounds and bits, not whichever candidate
   it happened to price first. *)

open Orq_proto
open Orq_core
module Comm = Orq_net.Comm

(* A customer ⋈ orders node: unique customer keys on the build side,
   ten orders per customer on the probe side. *)
let test_tie_prefers_lighter_operator () =
  List.iter
    (fun kind ->
      let ctx = Ctx.create ~seed:7 kind in
      let n = 75 and m = 750 in
      let customer =
        Table.create ctx "customer"
          [
            ("c_custkey", 16, Array.init n (fun i -> i + 1));
            ("c_nationkey", 5, Array.init n (fun i -> i mod 25));
          ]
      and orders =
        Table.create ctx "orders"
          [
            ("c_custkey", 16, Array.init m (fun i -> (i mod n) + 1));
            ("o_orderkey", 16, Array.init m (fun i -> i + 1));
          ]
      in
      Joincost.reset_log ();
      ignore
        (Dataflow.inner_join customer orders ~on:[ "c_custkey" ]
           ~copy:[ "c_nationkey" ]);
      let label = Ctx.kind_label kind in
      match Joincost.log () with
      | [ d ] ->
          List.iter
            (fun (op, _, sec) ->
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s %s priced at 0 s" label
                   (Joincost.op_label op))
                0. sec)
            d.Joincost.jd_cands;
          let rounds op =
            let _, t, _ =
              List.find (fun (o, _, _) -> o = op) d.Joincost.jd_cands
            in
            t.Comm.t_rounds
          in
          Alcotest.(check bool)
            (label ^ " linear has fewer rounds")
            true
            (rounds Joincost.Linear < rounds Joincost.Sort);
          Alcotest.(check string) (label ^ " auto picks linear") "linear"
            (Joincost.op_label d.Joincost.jd_chosen)
      | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds))
    Ctx.all_kinds

let () =
  Alcotest.run "joinprofile"
    [
      ( "local profile",
        [
          Alcotest.test_case "tie broken by rounds and bits" `Quick
            test_tie_prefers_lighter_operator;
        ] );
    ]
