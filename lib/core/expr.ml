(** Expression combinators for filters and derived columns (§2.2).

    Users build logical predicates and arithmetic expressions over named
    columns with ORQ's secure primitives; the engine compiles them into
    oblivious circuit evaluations. Numeric subexpressions track their
    logical bit width *and signedness*: subtraction yields signed
    (two's-complement) values, conversions interpret signed columns with a
    negatively weighted top bit, and comparisons switch to the signed
    comparator (sign-extending narrower boolean operands locally). *)

open Orq_proto

type num =
  | Col of string
  | Const of int
  | Add of num * num
  | Sub of num * num
  | Mul of num * num
  | Div of num * num  (** private divisor: non-restoring circuit *)
  | Div_pub of num * int  (** public divisor *)
  | If of pred * num * num  (** oblivious CASE WHEN: multiplexed, §3 *)

and pred =
  | Cmp of [ `Eq | `Neq | `Lt | `Le | `Gt | `Ge ] * num * num
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | True

(* Convenience constructors *)
let col n = Col n
let const c = Const c
let ( +! ) a b = Add (a, b)
let ( -! ) a b = Sub (a, b)
let ( *! ) a b = Mul (a, b)
let ( /! ) a b = Div (a, b)
let ( ==. ) a b = Cmp (`Eq, a, b)
let ( <>. ) a b = Cmp (`Neq, a, b)
let ( <. ) a b = Cmp (`Lt, a, b)
let ( <=. ) a b = Cmp (`Le, a, b)
let ( >. ) a b = Cmp (`Gt, a, b)
let ( >=. ) a b = Cmp (`Ge, a, b)
let ( &&. ) a b = And (a, b)
let ( ||. ) a b = Or (a, b)
let not_ p = Not p

(* Evaluation produces a value with an encoding, width and signedness.
   Plain columns and constants stay in their stored (boolean) encoding so a
   filter like Col < Const costs only a comparison; genuine arithmetic is
   done on arithmetic shares. *)
type value = { data : Share.shared; width : int; signed : bool }

let cap_width w = min w (Orq_util.Ring.word_bits - 2)

let as_arith ctx (v : value) =
  match v.data.Share.enc with
  | Share.Arith -> v.data
  | Share.Bool ->
      Orq_circuits.Convert.b2a ~w:v.width ~signed:v.signed ctx v.data

(* Sign-extend a boolean sharing from [from_w] to [to_w] bits — local:
   replicate the top bit across the new high positions. *)
let sign_extend x ~from_w ~to_w =
  if from_w >= to_w then Mpc.and_mask x (Orq_util.Ring.mask to_w)
  else
    let sign = Mpc.and_mask (Mpc.rshift x (from_w - 1)) 1 in
    let hi =
      Orq_util.Ring.mask to_w land lnot (Orq_util.Ring.mask from_w)
    in
    Mpc.xor
      (Mpc.and_mask x (Orq_util.Ring.mask from_w))
      (Mpc.and_mask (Mpc.extend_bit sign) hi)

(* Boolean view of a value at a target width: arithmetic shares convert
   modulo 2^w (correct two's complement); narrower signed boolean operands
   are sign-extended. *)
let as_bool_at ctx (v : value) w =
  match v.data.Share.enc with
  | Share.Arith -> Orq_circuits.Convert.a2b ~w ctx v.data
  | Share.Bool ->
      if v.signed then sign_extend v.data ~from_w:v.width ~to_w:w
      else Mpc.and_mask v.data (Orq_util.Ring.mask w)

let rec eval_num (t : Table.t) (e : num) : value =
  let ctx = Table.ctx t in
  match e with
  | Col n ->
      let c = Table.find t n in
      { data = Column.data c; width = c.Column.width; signed = c.Column.signed }
  | Const c ->
      let w = max 1 (Orq_util.Ring.log2_ceil (abs c + 1) + 1) in
      {
        data = Share.public ctx Share.Bool (Table.nrows t) (c land Orq_util.Ring.mask w);
        width = w;
        signed = c < 0;
      }
  | Add (a, b) ->
      let va = eval_num t a and vb = eval_num t b in
      let w = cap_width (1 + max va.width vb.width) in
      {
        data = Mpc.add (as_arith ctx va) (as_arith ctx vb);
        width = w;
        signed = va.signed || vb.signed;
      }
  | Sub (a, b) ->
      let va = eval_num t a and vb = eval_num t b in
      let w = cap_width (1 + max va.width vb.width) in
      {
        data = Mpc.sub (as_arith ctx va) (as_arith ctx vb);
        width = w;
        signed = true;
      }
  | Mul (a, b) ->
      let va = eval_num t a and vb = eval_num t b in
      let w = cap_width (va.width + vb.width) in
      {
        data = Mpc.mul ~width:w ctx (as_arith ctx va) (as_arith ctx vb);
        width = w;
        signed = va.signed || vb.signed;
      }
  | Div (a, b) ->
      let va = eval_num t a and vb = eval_num t b in
      let w = cap_width (max va.width vb.width) in
      (* a signed divisor sign-extends to the full width *)
      let wd = if vb.signed then w else vb.width in
      let q, _ =
        Orq_circuits.Divide.udiv ctx ~w ~wd (as_bool_at ctx va w)
          (as_bool_at ctx vb w)
      in
      { data = q; width = w; signed = false }
  | Div_pub (a, d) ->
      let va = eval_num t a in
      let w = cap_width va.width in
      let q, _ = Orq_circuits.Divide.udiv_pub ctx ~w (as_bool_at ctx va w) d in
      { data = q; width = w; signed = false }
  | If (p, a, b) ->
      let bit = eval_pred t p in
      let va = eval_num t a and vb = eval_num t b in
      let signed = va.signed || vb.signed in
      let w = cap_width (max va.width vb.width) in
      {
        data =
          Orq_circuits.Mux.mux_b ~width:w ctx bit (as_bool_at ctx vb w)
            (as_bool_at ctx va w);
        width = w;
        signed;
      }

(* Predicate evaluation batches across comparison legs: all Cmp leaves of
   the And/Or tree are collected first, their arithmetic operands convert
   through one fused A2B, the equality legs share one fused OR-fold ladder
   and the ordering legs one fused less-than ladder (per-leg signedness is
   a local sign-bit flip), and the connective structure combines the leaf
   bits with log-depth fused AND/OR trees. A multi-conjunct filter such as
   Q6's thus costs one comparison-ladder depth instead of one per leg. *)
and eval_pred (t : Table.t) (p : pred) : Share.shared =
  let ctx = Table.ctx t in
  (* Pass 1: evaluate every leaf's operands, left to right. *)
  let leaves = ref [] in
  let nleaves = ref 0 in
  let rec skel p =
    match p with
    | True -> `T
    | Cmp (op, a, b) ->
        let va = eval_num t a in
        let vb = eval_num t b in
        let i = !nleaves in
        incr nleaves;
        leaves := (op, va, vb) :: !leaves;
        `L i
    | And (a, b) ->
        let sa = skel a in
        let sb = skel b in
        `And (sa, sb)
    | Or (a, b) ->
        let sa = skel a in
        let sb = skel b in
        `Or (sa, sb)
    | Not a -> `Not (skel a)
  in
  let sk = skel p in
  let leaves =
    Array.map
      (fun (op, va, vb) -> (op, va, vb, max va.width vb.width))
      (Array.of_list (List.rev !leaves))
  in
  (* Pass 2: every arithmetic operand's boolean view through one fused
     A2B; boolean operands convert locally. *)
  let a2b_lanes = ref [] in
  let na2b = ref 0 in
  let views =
    Array.map
      (fun (_, va, vb, w) ->
        let view v =
          match v.data.Share.enc with
          | Share.Arith ->
              let i = !na2b in
              incr na2b;
              a2b_lanes := (v.data, w) :: !a2b_lanes;
              `Conv i
          | Share.Bool -> `Local (as_bool_at ctx v w)
        in
        let xa = view va in
        let xb = view vb in
        (xa, xb))
      leaves
  in
  let converted =
    Orq_circuits.Convert.a2b_many ctx
      (Array.of_list (List.rev !a2b_lanes))
  in
  let resolve = function `Conv i -> converted.(i) | `Local s -> s in
  (* Pass 3: one fused equality pass and one fused less-than pass over all
     legs; Neq/Le/Ge are local negations, Gt/Le swap operands, and signed
     legs flip their sign bits locally before the unsigned ladder. *)
  let eq_lanes = ref [] and neq = ref 0 in
  let lt_lanes = ref [] and nlt = ref 0 in
  let plan =
    Array.mapi
      (fun i (op, va, vb, w) ->
        let xa = resolve (fst views.(i)) and xb = resolve (snd views.(i)) in
        let signed = va.signed || vb.signed in
        let flip v = if signed then Mpc.xor_pub v (1 lsl (w - 1)) else v in
        let push_eq a b neg =
          let j = !neq in
          incr neq;
          eq_lanes := (a, b, w) :: !eq_lanes;
          `Eq (j, neg)
        in
        let push_lt a b neg =
          let j = !nlt in
          incr nlt;
          lt_lanes := (flip a, flip b, w) :: !lt_lanes;
          `Lt (j, neg)
        in
        match op with
        | `Eq -> push_eq xa xb false
        | `Neq -> push_eq xa xb true
        | `Lt -> push_lt xa xb false
        | `Gt -> push_lt xb xa false
        | `Le -> push_lt xb xa true
        | `Ge -> push_lt xa xb true)
      leaves
  in
  let module C = Orq_circuits.Compare in
  let eqs = C.eq_many ctx (Array.of_list (List.rev !eq_lanes)) in
  let lts =
    if !nlt = 0 then [||]
    else C.lt_many ctx (Array.of_list (List.rev !lt_lanes))
  in
  let leaf_bit =
    Array.map
      (fun pl ->
        let b, neg =
          match pl with
          | `Eq (j, neg) -> (eqs.(j), neg)
          | `Lt (j, neg) -> (lts.(j), neg)
        in
        if neg then Mpc.xor_pub b 1 else b)
      plan
  in
  (* Pass 4: combine through the connective skeleton; associative And/Or
     chains flatten into log-depth fused trees. *)
  let rec tree : 'a. ('a array -> 'a array -> 'a array) -> 'a array -> 'a =
   fun f es ->
    let m = Array.length es in
    if m = 1 then es.(0)
    else
      let pn = m / 2 in
      let xs = Array.init pn (fun j -> es.(2 * j)) in
      let ys = Array.init pn (fun j -> es.((2 * j) + 1)) in
      let rs = f xs ys in
      tree f (if m mod 2 = 1 then Array.append rs [| es.(m - 1) |] else rs)
  in
  let rec flatten_and = function
    | `And (a, b) -> flatten_and a @ flatten_and b
    | s -> [ s ]
  and flatten_or = function
    | `Or (a, b) -> flatten_or a @ flatten_or b
    | s -> [ s ]
  in
  (* connective chains run over packed flag lanes: every leaf is a
     single-bit predicate, so each tree level is one packed fused round *)
  let rec combine = function
    | `T -> Share.public ctx Share.Bool (Table.nrows t) 1
    | `L i -> leaf_bit.(i)
    | `Not a -> Mpc.xor_pub (combine a) 1
    | `And _ as s ->
        let es =
          Array.of_list
            (List.map (fun a -> Share.pack_flags (combine a)) (flatten_and s))
        in
        Share.unpack_flags (tree (Mpc.band_f_many ctx) es)
    | `Or _ as s ->
        let es =
          Array.of_list
            (List.map (fun a -> Share.pack_flags (combine a)) (flatten_or s))
        in
        Share.unpack_flags (tree (Mpc.bor_f_many ctx) es)
  in
  combine sk

(** Evaluate a numeric expression into a fresh boolean-encoded column. *)
let eval_col (t : Table.t) (e : num) : Column.t =
  let v = eval_num t e in
  let ctx = Table.ctx t in
  let w = cap_width v.width in
  Column.of_shared ~signed:v.signed ~width:w (as_bool_at ctx v w)
