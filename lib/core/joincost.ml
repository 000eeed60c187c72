(** Cost-based physical join selection — see the interface for the
    contract. The closed forms below are planning estimates built from the
    same per-primitive lane costs the metering layer charges (one
    multiplication round, one opening, one sharded-permutation pass); they
    only ever see public shape, so selection is a deterministic function
    of (protocol, shape, mode, profile) and the transcript certifier's
    shape-twin run picks the same operator as the measured run.

    The estimates are ordering-faithful rather than byte-exact: the sort
    estimate models TableSort + aggregation network at the leading-term
    level, and every candidate pays a modeled downstream surcharge of one
    oblivious pass over its output rows — which is what stops the
    quadratic join's n·m output from looking cheap at the node while
    poisoning every operator after it. *)

open Orq_proto
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim
module Ring = Orq_util.Ring

type op = Sort | Linear | Quad

let op_label = function Sort -> "sort" | Linear -> "linear" | Quad -> "quad"

let op_of_label = function
  | "sort" -> Some Sort
  | "linear" -> Some Linear
  | "quad" -> Some Quad
  | _ -> None

type mode = Auto | Force of op

let mode_label = function Auto -> "auto" | Force o -> op_label o

let mode_of_label s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" | "" -> Some Auto
  | s -> Option.map (fun o -> Force o) (op_of_label s)

let mode_of_env () =
  match Sys.getenv_opt "ORQ_JOIN" with
  | None -> Auto
  | Some s -> (
      match mode_of_label s with
      | Some m -> m
      | None ->
          Printf.eprintf
            "[orq] ignoring ORQ_JOIN=%S (want auto|sort|linear|quad)\n%!" s;
          Auto)

let profile_of_env () =
  match Sys.getenv_opt "ORQ_JOIN_PROFILE" with
  | Some "wan" -> Netsim.wan
  | Some "geo" -> Netsim.geo
  | Some "local" -> Netsim.local
  | _ -> Netsim.lan

let the_mode = ref (mode_of_env ())
let the_profile = ref (profile_of_env ())
let mode () = !the_mode
let set_mode m = the_mode := m
let profile () = !the_profile

let cache_tag () =
  Printf.sprintf "%s:%s" (mode_label !the_mode) !the_profile.Netsim.label

type variant = J_inner | J_semi | J_anti | J_outer

let variant_label = function
  | J_inner -> "inner"
  | J_semi -> "semi"
  | J_anti -> "anti"
  | J_outer -> "outer"

type shape = {
  j_n : int;
  j_m : int;
  j_key_w : int list;
  j_copy_w : int list;
  j_pay_w : int list;
  j_aggs : bool;
  j_bounded : bool;
  j_variant : variant;
}

(* ------------------------------------------------------------------ *)
(* Per-primitive lane costs (the metering layer's charges)             *)
(* ------------------------------------------------------------------ *)

let sum = List.fold_left ( + ) 0

let tally ~rounds ~bits ~messages =
  { Comm.t_rounds = rounds; t_bits = bits; t_messages = messages }

let ( ++ ) (a : Comm.tally) (b : Comm.tally) =
  {
    Comm.t_rounds = a.Comm.t_rounds + b.Comm.t_rounds;
    t_bits = a.Comm.t_bits + b.Comm.t_bits;
    t_messages = a.Comm.t_messages + b.Comm.t_messages;
  }

let scale k (a : Comm.tally) =
  {
    Comm.t_rounds = k * a.Comm.t_rounds;
    t_bits = k * a.Comm.t_bits;
    t_messages = k * a.Comm.t_messages;
  }

let hash_bits = 256 (* Mal-HM digest size, matches Mpc.hash_bits *)

(* One fused multiplication/AND round over n elements of w bits. *)
let mul_t kind ~w ~n =
  match kind with
  | Ctx.Sh_dm -> tally ~rounds:1 ~bits:(4 * w * n) ~messages:2
  | Ctx.Sh_hm -> tally ~rounds:1 ~bits:(3 * w * n) ~messages:3
  | Ctx.Mal_hm -> tally ~rounds:1 ~bits:(12 * w * n) ~messages:12

(* One opening round over n elements of w bits. *)
let open_t kind ~w ~n =
  match kind with
  | Ctx.Sh_dm -> tally ~rounds:1 ~bits:(2 * w * n) ~messages:2
  | Ctx.Sh_hm -> tally ~rounds:1 ~bits:(3 * w * n) ~messages:3
  | Ctx.Mal_hm ->
      tally ~rounds:1 ~bits:(4 * ((w * n) + hash_bits)) ~messages:8

(* One sharded-permutation application over n elements of w bits
   (Table 1 totals). *)
let shuffle_t kind ~w ~n =
  match kind with
  | Ctx.Sh_dm -> tally ~rounds:2 ~bits:(2 * w * n) ~messages:2
  | Ctx.Sh_hm -> tally ~rounds:3 ~bits:(6 * w * n) ~messages:6
  | Ctx.Mal_hm -> tally ~rounds:4 ~bits:(24 * w * n) ~messages:12

(* The equality ladder over w-bit keys: XOR locally then a logarithmic
   OR-fold — lg w rounds at halving stride widths (≈ w total bits). *)
let eq_t kind ~w ~n =
  let t = ref (tally ~rounds:0 ~bits:0 ~messages:0) in
  let s = ref (Ring.next_pow2 w / 2) in
  while !s > 0 do
    t := !t ++ mul_t kind ~w:(max 1 !s) ~n;
    s := !s / 2
  done;
  !t

(* ------------------------------------------------------------------ *)
(* Candidate operator estimates                                        *)
(* ------------------------------------------------------------------ *)

(* One TableSort pass over n rows keyed on kw bits carrying cw payload
   bits per row: the initial shuffle of keys + payload + index, the
   logarithmic partition levels (comparison ladder plus the opened
   post-shuffle comparison flags), and the two-pass elementwise
   permutation application that routes the payload (Protocol 5). *)
let sort_pass (ctx : Ctx.t) ~n ~kw ~cw =
  if n <= 1 then tally ~rounds:0 ~bits:0 ~messages:0
  else begin
    let kind = ctx.Ctx.kind in
    let ln = max 1 (Ring.log2_ceil n) in
    let lvl =
      (* a less-than ladder over the composite key plus the shuffled
         comparison-bit opening of one quicksort level *)
      mul_t kind ~w:kw ~n
      ++ scale (Ring.log2_ceil (max 2 kw)) (mul_t kind ~w:(max 1 (kw / 2)) ~n:(2 * n))
      ++ open_t kind ~w:1 ~n
    in
    shuffle_t kind ~w:(kw + cw + ctx.Ctx.perm_bits) ~n
    ++ scale ln lvl
    ++ scale 2 (shuffle_t kind ~w:(cw + ctx.Ctx.perm_bits) ~n)
    ++ open_t kind ~w:ctx.Ctx.perm_bits ~n
  end

(* Trimming heuristic, mirroring Joinagg.should_trim. *)
let trims (ctx : Ctx.t) ~n ~m =
  let omega = 2 * ctx.Ctx.ell in
  3 * ctx.Ctx.parties * m < n * Ring.log2_ceil n * Ring.log2_ceil omega

(* Modeled downstream surcharge: one oblivious sort-shaped pass (shuffle
   plus, per halving level, a full-width multiply and the comparison
   ladder) over the rows this operator hands to the rest of the plan —
   what the aggregation/ordering that follows a join actually costs to
   first order. Identical formula for every candidate — only the output
   cardinality differs; this is what makes the quadratic join's n·m
   output pay for the rows it forces every later operator to process. *)
let downstream (ctx : Ctx.t) ~rows ~width =
  if rows <= 0 then tally ~rounds:0 ~bits:0 ~messages:0
  else
    let kind = ctx.Ctx.kind in
    let ell = ctx.Ctx.ell in
    let ln = max 1 (Ring.log2_ceil rows) in
    shuffle_t kind ~w:width ~n:rows
    ++ scale ln
         (mul_t kind ~w:ell ~n:rows
         ++ scale (Ring.log2_ceil ell) (mul_t kind ~w:(ell / 2) ~n:(2 * rows)))

let out_width (s : shape) =
  sum s.j_key_w + sum s.j_copy_w + sum s.j_pay_w + 1

(* The sort-based join-aggregation (Protocol 3): TableSort over n+m rows
   on (V_LR, keys, Tid), the DISTINCT equality ladder, the per-variant
   validity AND, one aggregation network level per lg(n+m), and the
   optional single-bit trim sort. *)
let sort_estimate (ctx : Ctx.t) (s : shape) =
  let kind = ctx.Ctx.kind in
  let n = s.j_n + s.j_m in
  let wk = sum s.j_key_w in
  let cw = sum s.j_copy_w + sum s.j_pay_w + 1 in
  let ln = max 1 (Ring.log2_ceil n) in
  let net_level =
    (* one aggregation-network level: group-equality ladder plus the
       copy/valid multiplexes over the carried columns *)
    eq_t kind ~w:(wk + 1) ~n ++ mul_t kind ~w:(sum s.j_copy_w + 1) ~n
  in
  let base =
    sort_pass ctx ~n ~kw:(wk + 2) ~cw
    ++ eq_t kind ~w:(wk + 1) ~n (* DISTINCT bits *)
    ++ mul_t kind ~w:1 ~n (* validity rule *)
    ++ scale ln net_level
  in
  let trimmed = trims ctx ~n:s.j_n ~m:s.j_m in
  let base =
    if trimmed then base ++ sort_pass ctx ~n ~kw:1 ~cw:(out_width s) else base
  in
  let rows_out = if trimmed then s.j_m else n in
  base ++ downstream ctx ~rows:rows_out ~width:(out_width s)

(* The linear join: fused bit conversions, the keyed-fingerprint rounds,
   two independent table shuffles (rounds fused) and one fused opening of
   both fingerprint columns — mirrors Linjoin.join step by step. *)
let linear_estimate (ctx : Ctx.t) (s : shape) =
  let kind = ctx.Ctx.kind and ell = ctx.Ctx.ell in
  let n = s.j_n and m = s.j_m in
  let nm = n + m in
  let wk = max 1 (sum s.j_key_w) in
  let conv =
    (* b2a of the packed keys fused with bit_b2a of the validity bits *)
    let a = open_t kind ~w:1 ~n:(wk * nm) and b = open_t kind ~w:1 ~n:nm in
    tally ~rounds:1 ~bits:(a.Comm.t_bits + b.Comm.t_bits)
      ~messages:(a.Comm.t_messages + b.Comm.t_messages)
  in
  let fingerprint =
    (* one fused round of [x·r; t·u], then two keyed squarings *)
    mul_t kind ~w:ell ~n:(2 * nm) ++ scale 2 (mul_t kind ~w:ell ~n:nm)
  in
  (* each column moves at its width: the fingerprint at ell, validity at
     1, keys, copies and payload at their schema widths *)
  let build_w = ell + sum s.j_copy_w in
  let probe_w = ell + 1 + sum s.j_key_w + sum s.j_pay_w in
  let shuffles =
    let a = shuffle_t kind ~w:build_w ~n
    and b = shuffle_t kind ~w:probe_w ~n:m in
    (* independent permutations: traffic adds, rounds overlap *)
    tally ~rounds:a.Comm.t_rounds ~bits:(a.Comm.t_bits + b.Comm.t_bits)
      ~messages:(a.Comm.t_messages + b.Comm.t_messages)
  in
  let opening =
    let a = open_t kind ~w:ell ~n and b = open_t kind ~w:ell ~n:m in
    tally ~rounds:1 ~bits:(a.Comm.t_bits + b.Comm.t_bits)
      ~messages:(a.Comm.t_messages + b.Comm.t_messages)
  in
  conv ++ fingerprint ++ shuffles ++ opening
  ++ downstream ctx ~rows:m ~width:(out_width s)

(* The quadratic baseline: the composite-equality ladder over all n·m
   pairs plus the two validity ANDs — and an n·m-row output that every
   later operator pays for. *)
let quad_estimate (ctx : Ctx.t) (s : shape) =
  let kind = ctx.Ctx.kind in
  let p = max 1 (s.j_n * s.j_m) in
  let wk = max 1 (sum s.j_key_w) in
  eq_t kind ~w:wk ~n:p
  ++ scale 2 (mul_t kind ~w:1 ~n:p)
  ++ downstream ctx ~rows:p ~width:(out_width s)

let predict ctx (s : shape) = function
  | Sort -> sort_estimate ctx s
  | Linear -> linear_estimate ctx s
  | Quad -> quad_estimate ctx s

let seconds t = Netsim.network_time !the_profile t

(* ------------------------------------------------------------------ *)
(* Applicability and selection                                         *)
(* ------------------------------------------------------------------ *)

(* The quadratic operator materializes all n*m candidate pairs; past
   this many pairs the blowup is physically impractical (and cascades:
   its output inflates every downstream operator's input), so larger
   nodes are simply outside its applicability class. *)
let quad_cap = 1 lsl 18

let applicable (ctx : Ctx.t) (s : shape) = function
  | Sort -> true
  | Linear ->
      (* needs: a variant the operator implements, no fused aggregations,
         a composite key that packs into one ring word (the fingerprint
         domain), and nonempty sides (the shuffles need rows) *)
      (match s.j_variant with
      | J_inner | J_semi | J_anti -> true
      | J_outer -> false)
      && (not s.j_aggs)
      && sum s.j_key_w <= ctx.Ctx.ell - 1
      && s.j_n > 0 && s.j_m > 0
  | Quad ->
      s.j_variant = J_inner && (not s.j_aggs) && (not s.j_bounded)
      && s.j_n > 0 && s.j_m > 0
      && s.j_n * s.j_m <= quad_cap

let candidates ctx (s : shape) =
  List.filter_map
    (fun op ->
      if applicable ctx s op then
        let t = predict ctx s op in
        Some (op, t, seconds t)
      else None)
    [ Sort; Linear; Quad ]

let cheapest cands =
  match cands with
  | [] -> Sort
  | (op0, _, s0) :: rest ->
      let op, _ =
        List.fold_left
          (fun (bop, bs) (op, _, sec) ->
            if sec < bs then (op, sec) else (bop, bs))
          (op0, s0) rest
      in
      op

let choose ctx (s : shape) =
  match !the_mode with
  | Force op when applicable ctx s op -> op
  | Force _ -> Sort
  | Auto -> cheapest (candidates ctx s)

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
  let chosen =
    match !the_mode with
    | Force op when applicable ctx s op -> op
    | Force _ -> Sort
    | Auto -> cheapest cands
  in
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

let log_fallback ctx ~node (s : shape) =
  let t = quad_estimate ctx s in
  let r = Domain.DLS.get dls_log in
  r :=
    {
      jd_node = node;
      jd_shape = s;
      jd_chosen = Quad;
      jd_forced = true;
      jd_cands = [ (Quad, t, seconds t) ];
    }
    :: !r
