(** Logical-plan rewrites, applied to fixpoint:

    - {b filter pushdown}: conjuncts whose columns belong entirely to one
      side of a join (or below a map/aggregate boundary) move down the
      tree, so invalid rows stop paying for sorting and joining early;
    - {b join-side orientation}: the join-aggregation operator needs
      unique keys on the *left* (§3.3); if only the right side is unique,
      the inputs are swapped (the operator is symmetric under the
      schema-merge semantics);
    - {b §3.6 pre-aggregation}: a decomposable aggregation (COUNT / SUM)
      directly above a many-to-many join is rewritten into pre-aggregation
      of one side (making its keys unique), the one-to-many join, a
      multiplicity product, and a post-aggregation — the Figure 3
      evaluation, derived automatically. Queries outside the class are
      left for {!Compile}'s quadratic fallback (§2.1). *)

open Orq_core
open Plan

(* One pushdown step for a single conjunct above [n]; returns the new node
   and whether the conjunct was consumed. *)
let rec push_pred (p : Expr.pred) (n : node) : node * bool =
  let cols = pred_cols p in
  match n with
  | Join ({ j_kind = Inner; _ } as j) when subset cols ((infer j.j_left).i_cols @ j.j_on) ->
      let l, ok = push_pred p j.j_left in
      if ok then (Join { j with j_left = l }, true)
      else (Join { j with j_left = Filter (p, j.j_left) }, true)
  | Join ({ j_kind = Inner; _ } as j) when subset cols ((infer j.j_right).i_cols @ j.j_on) ->
      let r, ok = push_pred p j.j_right in
      if ok then (Join { j with j_right = r }, true)
      else (Join { j with j_right = Filter (p, j.j_right) }, true)
  | Filter (q, m) ->
      let m, ok = push_pred p m in
      if ok then (Filter (q, m), true) else (Filter (q, m), false)
  | Map (dst, e, m) when not (List.mem dst cols) ->
      let m, ok = push_pred p m in
      if ok then (Map (dst, e, m), true)
      else (Map (dst, e, Filter (p, m)), true)
  | Scan _ -> (Filter (p, n), true)
  | _ -> (n, false)

(* Push every filter as deep as it goes. *)
let rec pushdown (n : node) : node =
  match n with
  | Filter (p, m) ->
      let m = pushdown m in
      let rec place acc m = function
        | [] -> (acc, m)
        | c :: rest ->
            let m', ok = push_pred c m in
            if ok then place acc m' rest else place (c :: acc) m rest
      in
      let kept, m = place [] m (conjuncts p) in
      if kept = [] then m else Filter (conjoin (List.rev kept), m)
  | _ -> descend pushdown n

(* Orient joins so the unique-key side sits on the left (§3.3). *)
let rec orient (n : node) : node =
  match n with
  | Join ({ j_kind = Inner; _ } as j) ->
      let l = orient j.j_left and r = orient j.j_right in
      let j = { j with j_left = l; j_right = r } in
      if unique_on l j.j_on then Join j
      else if unique_on r j.j_on then
        Join { j with j_left = r; j_right = l }
      else Join j (* many-to-many: handled by preagg or the fallback *)
  | _ -> descend orient n

(* The §3.6 rewrite: Aggregate(SUM/COUNT) over a many-to-many Join.
   Pre-aggregate the side NOT carrying the aggregation source to a
   multiplicity table (unique join keys), run the one-to-many join, weight
   by multiplicity, post-aggregate. *)
let rewrite_preagg (a : agg_node) : node option =
  match a.a_input with
  | Join ({ j_kind = Inner; _ } as j)
    when (not (unique_on j.j_left j.j_on)) && not (unique_on j.j_right j.j_on) -> (
      let il = infer j.j_left and ir = infer j.j_right in
      let keys_ok side = subset a.a_keys (side.i_cols @ j.j_on) in
      (* [side]'s multiplicities joined to [other], weighted by [w], then
         post-aggregated into [dst] *)
      let via side other w src dst =
        let mult = { Dataflow.src = List.hd j.j_on; dst = "__mult"; fn = Dataflow.Count } in
        let joined = join (aggregate ~keys:j.j_on ~aggs:[ mult ] side) other ~on:j.j_on in
        Some
          (aggregate ~keys:a.a_keys
             ~aggs:[ { Dataflow.src; dst; fn = Dataflow.Sum } ]
             (w joined))
      in
      let weighted src = map "__w" Expr.(col src *! col "__mult") in
      match a.a_aggs with
      | [ { Dataflow.dst; fn = Dataflow.Count; _ } ] when keys_ok ir ->
          (* COUNT(rows) of the join: sum of left multiplicities over
             matched right rows *)
          via j.j_left j.j_right Fun.id "__mult" dst
      | [ { Dataflow.src; dst; fn = Dataflow.Sum } ] when List.mem src ir.i_cols && keys_ok ir ->
          (* SUM(right.col): weight each right row by the left multiplicity *)
          via j.j_left j.j_right (weighted src) "__w" dst
      | [ { Dataflow.src; dst; fn = Dataflow.Sum } ] when List.mem src il.i_cols && keys_ok il ->
          (* SUM(left.col): symmetric — pre-aggregate the right side *)
          via j.j_right j.j_left (weighted src) "__w" dst
      | _ -> None)
  | _ -> None

let rec preagg (n : node) : node =
  match n with
  | Aggregate a -> (
      let a = { a with a_input = preagg a.a_input } in
      match rewrite_preagg a with Some n' -> n' | None -> Aggregate a)
  | _ -> descend preagg n

(** The full optimization pipeline. *)
let run (n : node) : node = orient (preagg (pushdown n))
