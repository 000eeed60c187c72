(** Shared helpers for the workload queries: aggregation shorthands, catalog
    scans, and their plaintext-engine twins. *)

module D = Orq_core.Dataflow
module E = Orq_core.Expr
module P = Orq_plaintext.Ptable

(* MPC-side shorthands *)
let sum src dst = { D.src; dst; fn = D.Sum }
let cnt src dst = { D.src; dst; fn = D.Count }
let mn src dst = { D.src; dst; fn = D.Min }
let mx src dst = { D.src; dst; fn = D.Max }
let avg src dst = { D.src; dst; fn = D.Avg }

(** The discounted price most TPC-H queries sum. *)
let disc_price = E.(Div_pub (col "l_extendedprice" *! (const 100 -! col "l_discount"), 100))

(** A catalog's table as a plan scan, with the catalog's candidate keys. *)
let scan catalog name =
  let t, keys = catalog name in
  Orq_planner.Plan.scan ~keys t

(* Plaintext-side shorthands *)
let psum src dst = { P.src; dst; fn = P.Sum }
let pcnt src dst = { P.src; dst; fn = P.Count }
let pmn src dst = { P.src; dst; fn = P.Min }
let pmx src dst = { P.src; dst; fn = P.Max }
let pavg src dst = { P.src; dst; fn = P.Avg }

let pselect t (pairs : (string * string) list) =
  let t = P.project t (List.map fst pairs) in
  List.fold_left
    (fun t (from, into) -> if from = into then t else P.rename_col t ~from ~into)
    t pairs

(** Plaintext whole-table aggregation: one row (of the aggregates), no
    key, also for an empty input, as SQL and [Dataflow.global_aggregate]
    give: SUM, COUNT and MAX read 0 and MIN all ones, which the
    comparison masks to its width's maximum (AVG, 0/0, is unspecified on
    the MPC side and reads 0 here). *)
let pglobal (t : P.t) ~(aggs : P.agg list) : P.t =
  if P.nrows t = 0 then
    P.create
      (List.map (fun a -> a.P.dst) aggs)
      [ List.map (fun a -> if a.P.fn = P.Min then Orq_util.Ring.ones else 0) aggs ]
  else
    let t1 = P.map t ~dst:"#one" (fun _ _ -> 1) in
    let g = P.group_by t1 ~keys:[ "#one" ] ~aggs in
    P.project g (List.map (fun a -> a.P.dst) aggs)

(** Plaintext scalar broadcast: attach the single value of [scalar.(src)]
    to every row of [t] as [dst]. *)
let pwith_scalar (t : P.t) ~(scalar : P.t) ~src ~dst : P.t =
  let v =
    match scalar.P.rows with
    | [ r ] -> P.get scalar src r
    | _ -> invalid_arg "pwith_scalar: not a scalar"
  in
  P.map t ~dst (fun _ _ -> v)
