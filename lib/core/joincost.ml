(** Cost-based physical join selection — see the interface for the
    contract. The closed forms below are planning estimates composed from
    the primitive price list {!Orq_proto.Primcost} (multiplication rounds,
    openings, conversions, equality ladders, sharded-permutation passes)
    that the analysis tests check against the meter; they only ever see
    public shape, so selection is a deterministic function
    of (protocol, shape, mode, profile) and the transcript certifier's
    shape-twin run picks the same operator as the measured run.

    The estimates are ordering-faithful rather than byte-exact: the sort
    estimate models TableSort + aggregation network at the leading-term
    level, and every candidate pays a modeled downstream surcharge of one
    oblivious pass over its output rows — which is what separates the
    sort join's n+m output rows from the linear join's m. *)

open Orq_proto
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim
module Ring = Orq_util.Ring

type op = Sort | Linear

let op_label = function Sort -> "sort" | Linear -> "linear"

type mode = Auto | Force of op

let mode_label = function Auto -> "auto" | Force o -> op_label o

let the_mode = ref Auto

let the_profile = ref Netsim.lan
let mode () = !the_mode
let set_mode m = the_mode := m
let profile () = !the_profile
let set_profile p = the_profile := p

let cache_tag () =
  Printf.sprintf "%s:%s" (mode_label !the_mode) !the_profile.Netsim.label

type variant = J_inner | J_semi | J_anti

let variant_label = function
  | J_inner -> "inner"
  | J_semi -> "semi"
  | J_anti -> "anti"

type shape = {
  j_n : int;
  j_m : int;
  j_key_w : int list;
  j_copy_w : int list;
  j_pay_w : int list;
  j_group : int list option;
  j_variant : variant;
}

(* What an operator stands for at a node: a grouped node's candidates
   are the sort join aggregating inside its network and the linear join
   followed by an aggregate. *)
let node_op_label (s : shape) op =
  match (s.j_group, op) with
  | None, _ -> op_label op
  | Some _, Sort -> "sort-grouped"
  | Some _, Linear -> "linear+aggregate"

let node_variant_label (s : shape) =
  variant_label s.j_variant ^ match s.j_group with Some _ -> " grouped" | None -> ""

(* ------------------------------------------------------------------ *)
(* Candidate operator estimates                                        *)
(* ------------------------------------------------------------------ *)

let sum = List.fold_left ( + ) 0

(* [k] sequential repetitions of one priced step. *)
let times k evs = Array.concat (List.init k (fun _ -> evs))

(* One TableSort pass over n rows keyed on kw bits carrying cw payload
   bits per row: the initial shuffle of keys + payload + index, the
   logarithmic partition levels (each a less-than over the composite key,
   opened: {!Primcost.lt_lex_open}), and the elementwise permutation
   application that routes the payload (Protocol 5,
   {!Primcost.applyperm}). *)
let sort_pass (ctx : Ctx.t) ~n ~kw ~cw =
  if n <= 1 then [||]
  else begin
    let kind = ctx.Ctx.kind and iw = Ring.index_bits n in
    let ln = max 1 (Ring.log2_ceil n) in
    Array.concat
      [
        Primcost.shuffle kind ~w:(kw + cw + iw) ~n;
        times ln (Primcost.lt_lex_open kind ~ws:[ kw ] ~n);
        Primcost.applyperm kind ~w:cw ~n;
      ]
  end

(* Modeled downstream surcharge: one oblivious sort-shaped pass (shuffle
   plus, per halving level, a full-width multiply and the comparison
   ladder) over the rows this operator hands to the rest of the plan —
   what the aggregation/ordering that follows a join actually costs to
   first order. Identical formula for every candidate — only the output
   cardinality differs: n+m rows after an untrimmed sort join, m after
   the linear join. *)
let downstream (ctx : Ctx.t) ~rows ~width =
  if rows <= 0 then [||]
  else
    let kind = ctx.Ctx.kind and ell = ctx.Ctx.ell in
    let level =
      Array.append
        (Primcost.mul kind ~w:ell ~n:rows)
        (times (Ring.log2_ceil ell)
           (Primcost.mul kind ~w:(ell / 2) ~n:(2 * rows)))
    in
    Array.append
      (Primcost.shuffle kind ~w:width ~n:rows)
      (times (max 1 (Ring.log2_ceil rows)) level)

let out_width (s : shape) =
  sum s.j_key_w + sum s.j_copy_w + sum s.j_pay_w + 1

(* One aggregation-network propagation level per lg(rows) whose Sum/Min/
   Max lanes carry [agg_w] bits per row. *)
let agg_levels (ctx : Ctx.t) ~rows agg_w =
  times (max 1 (Ring.log2_ceil rows)) (Primcost.mul ctx.Ctx.kind ~w:(sum agg_w) ~n:rows)

(* The sort-based join-aggregation (Protocol 3): TableSort over n+m rows
   on (V_LR, keys, Tid), the DISTINCT equality ladder, the per-variant
   validity AND, one aggregation network level per lg(n+m), and the
   optional single-bit trim sort. Grouped, the network also carries the
   aggregations and the output is never trimmed. *)
let sort_estimate (ctx : Ctx.t) (s : shape) =
  let kind = ctx.Ctx.kind in
  let n = s.j_n + s.j_m in
  let wk = sum s.j_key_w in
  let net_level =
    (* one aggregation-network level: group-equality ladder plus the
       copy/valid multiplexes over the carried columns *)
    Array.append
      (Primcost.eq kind ~w:(wk + 1) ~n)
      (Primcost.mul kind ~w:(sum s.j_copy_w + 1) ~n)
  in
  let trimmed =
    s.j_group = None && Joinagg.should_trim ctx ~left_n:s.j_n ~right_m:s.j_m
  in
  let cw = sum s.j_copy_w + sum s.j_pay_w + 1 in
  Primcost.tally_of
    (Array.concat
       [
         sort_pass ctx ~n ~kw:(wk + 2) ~cw;
         Primcost.eq kind ~w:(wk + 1) ~n (* DISTINCT bits *);
         Primcost.mul kind ~w:1 ~n (* validity rule *);
         times (max 1 (Ring.log2_ceil n)) net_level;
         (match s.j_group with Some aw -> agg_levels ctx ~rows:n aw | None -> [||]);
         (if trimmed then sort_pass ctx ~n ~kw:1 ~cw:(out_width s) else [||]);
         downstream ctx
           ~rows:(if trimmed then s.j_m else n)
           ~width:(out_width s);
       ])

(* The linear join: fused bit conversions, the keyed-fingerprint rounds
   and two independent table shuffles, each opening its side's
   fingerprint column — mirrors Linjoin.join step by step. Grouped, the
   modeled downstream pass is the aggregate's sort over the m output
   rows, which then pays its network (one fused boundary pre-pass plus
   the propagation levels) and hands m rows on. *)
let linear_estimate (ctx : Ctx.t) (s : shape) =
  let kind = ctx.Ctx.kind and ell = ctx.Ctx.ell in
  let n = s.j_n and m = s.j_m in
  let nm = n + m in
  let side_by_side a b =
    Primcost.fuse (Primcost.tally_of a) (Primcost.tally_of b)
  in
  let conv =
    (* b2a of the packed keys fused with bit_b2a of the validity bits *)
    side_by_side
      (Primcost.b2a kind ~w:(max 1 (sum s.j_key_w)) ~n:nm)
      (Primcost.b2a kind ~w:1 ~n:nm)
  in
  (* each column moves at its width: the fingerprint at ell, validity at
     1, keys, copies and payload at their schema widths; each side's
     fingerprint opens with its shuffle *)
  let shuffles =
    side_by_side
      (Primcost.shuffle_open kind ~w:(sum s.j_copy_w) ~opened:[ ell ] ~n)
      (Primcost.shuffle_open kind
         ~w:(1 + sum s.j_key_w + sum s.j_pay_w)
         ~opened:[ ell ] ~n:m)
  in
  let sequential =
    Primcost.tally_of
      (Array.concat
         [
           (* one fused round of [x·r; t·u], then two keyed squarings *)
           Primcost.mul kind ~w:ell ~n:(2 * nm);
           times 2 (Primcost.mul kind ~w:ell ~n:nm);
           downstream ctx ~rows:m ~width:(out_width s);
           (match s.j_group with
           | Some aw ->
               Array.concat
                 [
                   Primcost.eq kind ~w:(sum s.j_key_w + sum s.j_copy_w + 1) ~n:m;
                   agg_levels ctx ~rows:m aw;
                   downstream ctx ~rows:m ~width:(out_width s);
                 ]
           | None -> [||]);
         ])
  in
  List.fold_left Comm.add_tally sequential [ conv; shuffles ]

let predict ctx (s : shape) = function
  | Sort -> sort_estimate ctx s
  | Linear -> linear_estimate ctx s

let seconds t = Netsim.network_time !the_profile t

(* ------------------------------------------------------------------ *)
(* Applicability and selection                                         *)
(* ------------------------------------------------------------------ *)

let applicable (ctx : Ctx.t) (s : shape) = function
  | Sort -> true
  | Linear ->
      (* needs: a variant the operator implements (grouped: inner only,
         with the aggregate run after it), a composite key that packs into
         one ring word (the fingerprint domain), and nonempty sides (the
         shuffles need rows) *)
      (match s.j_variant with
      | J_inner -> true
      | J_semi | J_anti -> s.j_group = None)
      && sum s.j_key_w <= ctx.Ctx.ell - 1
      && s.j_n > 0 && s.j_m > 0

let candidates ctx (s : shape) =
  List.filter_map
    (fun op ->
      if applicable ctx s op then
        let t = predict ctx s op in
        Some (op, t, seconds t)
      else None)
    [ Sort; Linear ]

(* Ranked by modeled seconds, then rounds, then bits: a profile that
   prices every tally at zero (local) still prefers the lighter
   operator. *)
let rank (_, t, sec) = (sec, t.Comm.t_rounds, t.Comm.t_bits)

let cheapest cands =
  match cands with
  | [] -> Sort
  | c0 :: rest ->
      let op, _, _ =
        List.fold_left
          (fun best c -> if compare (rank c) (rank best) < 0 then c else best)
          c0 rest
      in
      op

(* The selection rule over already-priced candidates: a forced mode wins
   when applicable (falling back to [Sort] when not); [Auto] takes the
   cheapest. *)
let pick ctx (s : shape) cands =
  match !the_mode with
  | Force op when applicable ctx s op -> op
  | Force _ -> Sort
  | Auto -> cheapest cands

(* ------------------------------------------------------------------ *)
(* Decision log (per-domain: service workers never interleave)         *)
(* ------------------------------------------------------------------ *)

type decision = {
  jd_node : string;
  jd_shape : shape;
  jd_chosen : op;
  jd_forced : bool;
  jd_cands : (op * Comm.tally * float) list;
}

let dls_log : decision list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let reset_log () = Domain.DLS.get dls_log := []
let log () = List.rev !(Domain.DLS.get dls_log)

let choose_logged ctx ~node (s : shape) =
  let cands = candidates ctx s in
  let forced = match !the_mode with Force _ -> true | Auto -> false in
  let chosen = pick ctx s cands in
  let r = Domain.DLS.get dls_log in
  r :=
    {
      jd_node = node;
      jd_shape = s;
      jd_chosen = chosen;
      jd_forced = forced;
      jd_cands = cands;
    }
    :: !r;
  chosen
