(** Lower an (optimized) logical plan onto the ORQ dataflow operators.

    A top-down needed-columns analysis prunes payloads at the scans and
    derives each join's [~copy] list (the left columns that must propagate
    into the matching right rows). An Aggregate directly over a
    one-to-many Join whose GROUP BY is on the join key (plus columns of
    the unique side) and whose aggregations read the other side becomes
    one {!Dataflow.group_join}, which aggregates inside the join's own
    network or prices the linear join plus the aggregate against it.
    Joins whose inputs both carry duplicate
    keys — i.e. queries outside ORQ's tractable class that {!Optimize}
    could not rewrite — fall back to the oblivious quadratic join, exactly
    as the paper prescribes (§2.1: "for these queries ORQ falls back to an
    oblivious O(n^2) join algorithm, like prior work"). *)

open Orq_core
open Plan

type stats = { mutable quadratic_fallbacks : int }

let inter a b = List.filter (fun x -> List.mem x b) a
let union a b = a @ List.filter (fun x -> not (List.mem x a)) b
let minus a b = List.filter (fun x -> not (List.mem x b)) a

(* The session every base table of a plan is shared under. *)
let rec scan_ctx = function
  | Scan s -> Table.ctx s.s_table
  | Filter (_, m) | Project (_, m) | Map (_, _, m) | Order_limit (_, _, m) -> scan_ctx m
  | Join j -> scan_ctx j.j_left
  | Aggregate a -> scan_ctx a.a_input

let rec compile_need (st : stats) (need : string list) (n : node) : Table.t =
  match n with
  | Scan s ->
      let keep = inter (Table.col_names s.s_table) need in
      if keep = [] then s.s_table else Table.project s.s_table keep
  | Filter (p, m) ->
      (* merge directly stacked filters (conjunct-by-conjunct pushdown
         leaves Filter(c2, Filter(c1, Scan)) chains) into one conjoined
         predicate, so all comparison legs batch into shared comparison
         rounds in [Expr.eval_pred] and validity is updated once *)
      let rec gather acc m =
        match m with Filter (q, m') -> gather (q :: acc) m' | _ -> (acc, m)
      in
      let ps, m = gather [ p ] m in
      let p = conjoin ps in
      let t = compile_need st (union need (pred_cols p)) m in
      Dataflow.filter t p
  | Project (cols, m) ->
      let t = compile_need st (inter cols need) m in
      Table.project t (inter cols (Table.col_names t))
  | Map (dst, e, m) ->
      let t = compile_need st (union (minus need [ dst ]) (num_cols e)) m in
      Dataflow.map t ~dst e
  | Join j ->
      let l, r = compile_sides st need j in
      compile_join st need j l r
  | Aggregate a ->
      let srcs =
        List.filter_map
          (fun (g : Dataflow.agg) ->
            match g.Dataflow.fn with Dataflow.Count -> None | _ -> Some g.Dataflow.src)
          a.a_aggs
      in
      let need = union a.a_keys srcs in
      let aggregate t =
        (* Count needs *some* column as its src handle *)
        let aggs =
          List.map
            (fun (g : Dataflow.agg) ->
              match g.Dataflow.fn with
              | Dataflow.Count -> { g with Dataflow.src = List.hd (Table.col_names t) }
              | _ -> g)
            a.a_aggs
        in
        Dataflow.aggregate t ~keys:a.a_keys ~aggs
      in
      (* GROUP BY on the key of a one-to-many join aggregates inside the
         join when the operator's applicability rule holds *)
      (match a.a_input with
      | Join j when unique_on j.j_left j.j_on ->
          let l, r = compile_sides st need j in
          if Dataflow.group_join_applies l r ~on:j.j_on ~keys:a.a_keys ~aggs:a.a_aggs
          then Dataflow.group_join l r ~on:j.j_on ~keys:a.a_keys ~aggs:a.a_aggs
          else aggregate (compile_join st need j l r)
      | m -> aggregate (compile_need st need m))
  | Order_limit (specs, k, m) ->
      let t = compile_need st (union need (List.map fst specs)) m in
      let t = Dataflow.order_by t specs in
      (match k with Some k -> Dataflow.limit t k | None -> t)

(* A join's two inputs, compiled with the columns [need] asks of each. *)
and compile_sides st need j =
  let il = infer j.j_left and ir = infer j.j_right in
  let need_l = union (inter need il.i_cols) j.j_on in
  let need_r = union (inter need ir.i_cols) j.j_on in
  (* the two inputs are data-independent: fused round tracks, left
     first, so shuffles keep their sequential order *)
  match
    Orq_proto.Mpc.fuse_rounds (scan_ctx j.j_left)
      [|
        (fun () -> compile_need st need_l j.j_left);
        (fun () -> compile_need st need_r j.j_right);
      |]
  with
  | [| l; r |] -> (l, r)
  | _ -> assert false

(* The join itself over its compiled inputs. *)
and compile_join st need j l r =
  let copy = minus (inter need (Table.col_names l)) j.j_on in
  if unique_on j.j_left j.j_on then Dataflow.inner_join l r ~on:j.j_on ~copy
  else if unique_on j.j_right j.j_on then
    (* orientation normally fixes this; cover unoptimized plans too *)
    let copy_r = minus (inter need (Table.col_names r)) j.j_on in
    Dataflow.inner_join r l ~on:j.j_on ~copy:copy_r
  else begin
    (* outside the tractable class: quadratic oblivious fallback,
       reported as a count *)
    st.quadratic_fallbacks <- st.quadratic_fallbacks + 1;
    Orq_baselines.Secrecy_engine.nested_join (Table.ctx l) l r ~on:j.j_on
  end

(** Compile a plan; [need] restricts the output columns (defaults to the
    plan's full schema). Returns the result table and how many joins had
    to take the quadratic fallback. *)
let run ?(optimize = true) ?need (n : node) : Table.t * int =
  let n = if optimize then Optimize.run n else n in
  let need = match need with Some c -> c | None -> (infer n).i_cols in
  let st = { quadratic_fallbacks = 0 } in
  let t = compile_need st need n in
  (t, st.quadratic_fallbacks)
