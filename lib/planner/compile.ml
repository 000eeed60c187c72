(** Lower a logical plan onto the ORQ dataflow operators. This module
    alone decides what plan shape leaves open:

    - {b pruning}: a top-down needed-columns pass over the plan (a DAG: a
      shared node gets the union of its parents' needs) cuts every node's
      output, scans included, to the columns read above it, and derives
      each join's [~copy] list; an aggregate keeps its keys and results;
    - {b sharing}: a node value read by several parents runs once;
    - {b fusion}: see [inputs] and [row_local] below;
    - {b grouped joins}: an Aggregate directly over a one-to-many Join that
      nothing else reads, grouped on the join key (plus columns of the
      unique side) over aggregations of the other side, is one
      {!Dataflow.group_join}; over a [Left_outer] join, the outer one;
    - {b fallback}: an inner join with duplicate keys on both sides (outside
      ORQ's tractable class, and not rewritten by {!Optimize}) takes the
      oblivious quadratic join, as §2.1 prescribes ("for these queries ORQ
      falls back to an oblivious O(n^2) join algorithm, like prior
      work"). *)

open Orq_core
open Plan

let inter a b = List.filter (fun x -> List.mem x b) a
let union a b = a @ List.filter (fun x -> not (List.mem x a)) b
let minus a b = List.filter (fun x -> not (List.mem x b)) a

(* Per-run state; plan nodes are identified physically. *)
type state = {
  mutable fallbacks : int;
  mutable needs : (node * string list) list;  (** the columns asked of each node *)
  mutable refs : (node * int) list;  (** how many parents read each node *)
  mutable done_ : (node * Table.t) list;  (** the shared nodes already run *)
}

(* The nodes under [n], itself included, that have not run yet: each once,
   parents before children. *)
let pending st (n : node) : node list =
  let seen = ref [] and order = ref [] in
  let rec visit n =
    if not (List.memq n !seen || List.mem_assq n st.done_) then begin
      seen := n :: !seen;
      List.iter visit (children n);
      order := n :: !order
    end
  in
  visit n;
  !order

let agg_srcs (a : agg_node) =
  List.filter_map
    (fun (g : Dataflow.agg) ->
      match g.Dataflow.fn with Dataflow.Count -> None | _ -> Some g.Dataflow.src)
    a.a_aggs

(* The columns each input must supply for [n] to produce [need]. *)
let input_needs (n : node) (need : string list) : (node * string list) list =
  match n with
  | Scan _ -> []
  | Filter (p, m) -> [ (m, union need (pred_cols p)) ]
  | Project (pairs, m) ->
      [ (m, List.filter_map (fun (c, d) -> if List.mem d need then Some c else None) pairs) ]
  | Map (dst, e, m) -> [ (m, union (minus need [ dst ]) (num_cols e)) ]
  | Join j ->
      let side m = union (inter need (infer m).i_cols) j.j_on in
      let right = match j.j_kind with Semi | Anti -> j.j_on | Inner | Left_outer -> side j.j_right in
      [ (j.j_left, side j.j_left); (j.j_right, right) ]
  | Aggregate a -> [ (a.a_input, union a.a_keys (agg_srcs a)) ]
  | Distinct (keys, m) -> [ (m, union need keys) ]
  | With_scalar w -> [ (w.w_input, minus need [ w.w_dst ]); (w.w_scalar, [ w.w_src ]) ]
  | Order_limit (specs, _, m) -> [ (m, union need (List.map fst specs)) ]

let prepare (root : node) (need : string list) : state =
  let st = { fallbacks = 0; needs = [ (root, need) ]; refs = []; done_ = [] } in
  List.iter
    (fun n ->
      List.iter
        (fun (m, need_m) ->
          let refs = Option.value (List.assq_opt m st.refs) ~default:0 in
          st.refs <- (m, refs + 1) :: List.remove_assq m st.refs;
          let prev = Option.value (List.assq_opt m st.needs) ~default:[] in
          st.needs <- (m, union prev need_m) :: List.remove_assq m st.needs)
        (input_needs n (List.assq n st.needs)))
    (pending st root);
  st

let shared st n = Option.value (List.assq_opt n st.refs) ~default:0 > 1

(* Running [n] now would meter nothing. *)
let rec free st n =
  List.mem_assq n st.done_
  || match n with Scan _ -> true | Project (_, m) -> free st m | _ -> false

(* The session every base table of a plan is shared under. *)
let rec scan_ctx = function
  | Scan s -> Table.ctx s.s_table
  | n -> scan_ctx (List.hd (children n))

let fuse2 ctx f g =
  match Orq_proto.Mpc.fuse_rounds ctx [| f; g |] with
  | [| a; b |] -> (a, b)
  | _ -> assert false

(* The shared nodes not yet run that both [l] and [r] read, outermost
   first. *)
let common st l r =
  let rr = pending st r in
  List.filter (fun n -> List.memq n rr && shared st n && not (free st n)) (pending st l)

(* [n]'s result carries no column that no parent reads. *)
let prune st n t =
  let keep = inter (Table.col_names t) (List.assq n st.needs) in
  if keep = [] || keep = Table.col_names t then t else Table.project t keep

let rec compile st (n : node) : Table.t =
  match List.assq_opt n st.done_ with
  | Some t -> t
  | None ->
      let t = prune st n (compile_node st n) in
      (* only a shared node is asked for again; others may be collected *)
      if shared st n then st.done_ <- (n, t) :: st.done_;
      t

and compile_node st n =
  let need = List.assq n st.needs in
  match n with
  | Scan s -> s.s_table
  | Filter _ | Map _ -> row_local st n
  | Project (pairs, m) ->
      let t = compile st m in
      let pairs = List.filter (fun (_, d) -> List.mem d need) pairs in
      List.fold_left
        (fun t (from, into) -> if from = into then t else Table.rename_col t ~from ~into)
        (Table.project t (List.map fst pairs))
        pairs
  | Join j ->
      let l, r = inputs st n j.j_left j.j_right in
      join st need j l r
  | Aggregate a -> (
      let aggregate t =
        if a.a_keys = [] then Dataflow.global_aggregate t ~aggs:a.a_aggs
        else Dataflow.aggregate t ~keys:a.a_keys ~aggs:a.a_aggs
      in
      (* GROUP BY on the key of a one-to-many join aggregates inside the
         join when the operator's applicability rule holds *)
      match a.a_input with
      | Join ({ j_kind = Inner | Left_outer; _ } as j)
        when a.a_keys <> [] && (not (shared st a.a_input)) && unique_on j.j_left j.j_on -> (
          let l, r = inputs st a.a_input j.j_left j.j_right in
          let on = j.j_on and keys = a.a_keys and aggs = a.a_aggs in
          match j.j_kind with
          | Left_outer -> Dataflow.group_join ~outer:true l r ~on ~keys ~aggs
          | _ when Dataflow.group_join_applies l r ~on ~keys ~aggs ->
              Dataflow.group_join l r ~on ~keys ~aggs
          | _ -> aggregate (prune st a.a_input (join st (List.assq a.a_input st.needs) j l r)))
      | m -> aggregate (compile st m))
  | Distinct (keys, m) -> Dataflow.distinct (compile st m) keys
  | With_scalar w ->
      let t, scalar = inputs st n w.w_input w.w_scalar in
      Dataflow.with_scalar t ~scalar ~src:w.w_src ~dst:w.w_dst
  | Order_limit (specs, k, m) ->
      let t = Dataflow.order_by (compile st m) specs in
      (match k with Some k -> Dataflow.limit t k | None -> t)

(* A binary node's two inputs: first whatever both read, then the two as
   fused tracks, left first (tracks run in order, so shuffles keep their
   sequential order), unless one side meters nothing. *)
and inputs st n l r =
  List.iter (fun c -> ignore (compile st c)) (common st l r);
  if free st l || free st r then
    let tl = compile st l in
    (tl, compile st r)
  else fuse2 (scan_ctx n) (fun () -> compile st l) (fun () -> compile st r)

(* The join itself over its compiled inputs, producing [need]. *)
and join st need j l r =
  let on = j.j_on in
  match j.j_kind with
  | Semi -> Dataflow.semi_join l r ~on
  | Anti -> Dataflow.anti_join l r ~on
  | Left_outer -> invalid_arg "Compile: an outer join only under a GROUP BY on its key"
  | Inner ->
      let copy t = minus (inter need (Table.col_names t)) on in
      if unique_on j.j_left on then Dataflow.inner_join l r ~on ~copy:(copy l)
      else if unique_on j.j_right on then
        (* orientation normally fixes this; cover unoptimized plans too *)
        Dataflow.inner_join r l ~on ~copy:(copy r)
      else begin
        (* outside the tractable class: quadratic oblivious fallback,
           reported as a count *)
        st.fallbacks <- st.fallbacks + 1;
        Orq_baselines.Secrecy_engine.nested_join (Table.ctx l) l r ~on
      end

(* A stack of filters and maps over one input, down to the first other
   or shared node. Its filters run as one conjoined filter, fused beside
   its maps; each map runs one level above the highest map whose output
   it reads, and a level's maps run as sibling tracks. A stack where a
   filter reads a mapped column, or a map writes an existing column, runs
   step by step. *)
and row_local st n =
  let rec gather steps m =
    match m with
    | (Filter (_, m') | Map (_, _, m')) when steps = [] || not (shared st m) ->
        gather (m :: steps) m'
    | _ -> (steps, m)
  in
  (* bottom-up *)
  let steps, base = gather [] n in
  let t = compile st base in
  let maps = List.filter_map (function Map (d, e, _) -> Some (d, e) | _ -> None) steps in
  let preds = List.filter_map (function Filter (p, _) -> Some p | _ -> None) steps in
  let dsts = List.map fst maps in
  if
    List.exists (fun p -> inter (pred_cols p) dsts <> []) preds
    || List.exists (Table.mem t) dsts
    || List.length (List.sort_uniq compare dsts) <> List.length dsts
  then
    List.fold_left
      (fun t -> function
        | Filter (p, _) -> Dataflow.filter t p
        | Map (d, e, _) -> Dataflow.map t ~dst:d e
        | _ -> t)
      t steps
  else
    let levels =
      List.fold_left
        (fun lv (d, e) ->
          let above l (d', l') = if List.mem d' (num_cols e) then max l (l' + 1) else l in
          lv @ [ (d, List.fold_left above 0 lv) ])
        [] maps
    in
    let level t l =
      match List.filter (fun (d, _) -> List.assoc d levels = l) maps with
      | [ (d, e) ] -> Dataflow.map t ~dst:d e
      | sibs ->
          let outs =
            Orq_proto.Mpc.fuse_rounds (Table.ctx t)
              (Array.of_list (List.map (fun (d, e) () -> Dataflow.map t ~dst:d e) sibs))
          in
          List.fold_left2
            (fun acc (d, _) o ->
              Table.add_facts
                (Table.set_col acc d (Table.find o d))
                (List.filter (fun f -> not (List.memq f t.Table.facts)) o.Table.facts))
            t sibs (Array.to_list outs)
    in
    let run_maps t = List.fold_left level t (List.sort_uniq compare (List.map snd levels)) in
    match (preds, maps) with
    | [], _ -> run_maps t
    | ps, [] -> Dataflow.filter t (conjoin ps)
    | ps, _ ->
        let filtered, mapped =
          fuse2 (Table.ctx t) (fun () -> Dataflow.filter t (conjoin ps)) (fun () -> run_maps t)
        in
        { mapped with Table.valid = filtered.Table.valid }

let run ?need (n : node) : Table.t * int =
  let need = match need with Some c -> c | None -> (infer n).i_cols in
  let st = prepare n need in
  let t = compile st n in
  (t, st.fallbacks)
