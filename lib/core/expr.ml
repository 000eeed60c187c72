(** Expression combinators for filters and derived columns (§2.2).

    Users build logical predicates and arithmetic expressions over named
    columns with ORQ's secure primitives; the engine compiles them into
    oblivious circuit evaluations. Numeric subexpressions carry their
    public domain ({!Dom}) by interval arithmetic, and their bit width and
    signedness follow from it: a subtraction that can go negative yields
    signed (two's-complement) values, conversions interpret signed columns
    with a negatively weighted top bit, and comparisons switch to the
    signed comparator (sign-extending narrower boolean operands locally).
    An expression whose bound exceeds the ring is refused ({!bound})
    before anything is evaluated. *)

open Orq_proto

type num =
  | Col of string
  | Const of int
  | Add of num * num
  | Sub of num * num
  | Mul of num * num
  | Div of num * num
      (** private divisor: non-restoring circuit; [k·x / y] with a
          {!Table.fact} [Le (x, y)] runs only [bitlen k] quotient bits *)
  | Div_pub of num * int
      (** public divisor: multiply-high on an unsigned arithmetic
          dividend, the boolean circuits otherwise *)
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
let ( ==. ) a b = Cmp (`Eq, a, b)
let ( <>. ) a b = Cmp (`Neq, a, b)
let ( <. ) a b = Cmp (`Lt, a, b)
let ( <=. ) a b = Cmp (`Le, a, b)
let ( >. ) a b = Cmp (`Gt, a, b)
let ( >=. ) a b = Cmp (`Ge, a, b)
let ( &&. ) a b = And (a, b)
let ( ||. ) a b = Or (a, b)

(* Evaluation produces a value with an encoding and a public domain, the
   interval its valid rows lie in; width and signedness follow from the
   domain. Plain columns and constants stay in their stored (boolean)
   encoding so a filter like Col < Const costs only a comparison; genuine
   arithmetic is done on arithmetic shares. *)
type value = { data : Share.shared; dom : Dom.t }

let width v = Dom.width v.dom
let signed v = Dom.signed v.dom

let as_arith ctx (v : value) =
  match v.data.Share.enc with
  | Share.Arith -> v.data
  | Share.Bool ->
      Orq_circuits.Convert.b2a ~w:(width v) ~signed:(signed v) ctx v.data

(* Sign-extend a boolean sharing from [from_w] to [to_w] bits — local:
   replicate the top bit across the new high positions. *)
let sign_extend x ~from_w ~to_w =
  if from_w >= to_w then Mpc.and_mask x (Orq_util.Ring.mask to_w)
  else
    let sign = Mpc.extract_bit_f x (from_w - 1) in
    let hi =
      Orq_util.Ring.mask to_w land lnot (Orq_util.Ring.mask from_w)
    in
    Mpc.xor
      (Mpc.and_mask x (Orq_util.Ring.mask from_w))
      (Mpc.and_mask (Share.extend_flags sign) hi)

(* Boolean view of a value at a target width: arithmetic shares convert
   modulo 2^w (correct two's complement); narrower signed boolean operands
   are sign-extended. *)
let as_bool_at ctx (v : value) w =
  match v.data.Share.enc with
  | Share.Arith -> Orq_circuits.Convert.a2b ~w ctx v.data
  | Share.Bool ->
      if signed v then sign_extend v.data ~from_w:(width v) ~to_w:w
      else Mpc.and_mask v.data (Orq_util.Ring.mask w)

(* Two operands read under one signedness: the width of their hull holds
   both (an unsigned operand under a signed reading gains its sign bit). *)
let joint (va : value) (vb : value) =
  let d = Dom.hull va.dom vb.dom in
  (Dom.width d, Dom.signed d)

(* Two data-independent steps as fused round tracks, run (and drawing
   their correlations) in the order given. *)
let fuse2 ctx f g =
  match Mpc.fuse_rounds ctx [| f; g |] with
  | [| x; y |] -> (x, y)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Public bounds                                                       *)
(* ------------------------------------------------------------------ *)

let rec to_string (e : num) =
  let bin op a b = Printf.sprintf "(%s %s %s)" (to_string a) op (to_string b) in
  match e with
  | Col n -> n
  | Const c -> string_of_int c
  | Add (a, b) -> bin "+" a b
  | Sub (a, b) -> bin "-" a b
  | Mul (a, b) -> bin "*" a b
  | Div (a, b) -> bin "/" a b
  | Div_pub (a, d) -> Printf.sprintf "(%s / %d)" (to_string a) d
  | If (_, a, b) -> Printf.sprintf "CASE(%s, %s)" (to_string a) (to_string b)

(* The division widths: the dividend and divisor are read at the wider
   operand's width [w] (a signed divisor sign-extends to it), and the
   quotient's domain is the interval quotient of unsigned operands,
   narrowed by the public fact [Le (x, y)] to at most [k] for k·x / y
   (y is zero only where x is, a division by zero, unspecified either
   way). A signed operand divides as its w-bit pattern. *)
let div_dom ~le a b (da : Dom.t) (db : Dom.t) =
  let w = max (Dom.width da) (Dom.width db) in
  if Dom.signed da || Dom.signed db then Dom.of_width w
  else
    let q = Dom.div da db in
    match (a, b) with
    | Mul (Col x, Const k), Col y when k >= 0 && le x y -> { q with hi = min q.hi k }
    | _ -> q

(* A public divisor's quotient: the interval quotient of an unsigned
   dividend; a signed one divides as its w-bit pattern. *)
let div_pub_dom (da : Dom.t) d =
  if Dom.signed da then Dom.of_width (Dom.width da) else Dom.div_pub da d

(** [bound ~col ~le e]: the public domain of [e] from its columns'
    domains [col] and the row-wise facts [le]. Every subexpression is
    checked against the ring.
    @raise Dom.Refused naming the first subexpression that does not fit. *)
let rec bound ~(col : string -> Dom.t) ~le (e : num) : Dom.t =
  let sub = bound ~col ~le in
  let d =
    match e with
    | Col n -> col n
    | Const c -> Dom.point c
    | Add (a, b) -> Dom.add (sub a) (sub b)
    | Sub (a, b) -> Dom.sub (sub a) (sub b)
    | Mul (a, b) -> Dom.mul (sub a) (sub b)
    | Div (a, b) -> div_dom ~le a b (sub a) (sub b)
    | Div_pub (a, d) -> div_pub_dom (sub a) d
    | If (p, a, b) ->
        bound_pred ~col ~le p;
        Dom.hull (sub a) (sub b)
  in
  Dom.check ~what:(to_string e) d

(** Check every comparison operand of [p] against the ring. *)
and bound_pred ~col ~le (p : pred) : unit =
  match p with
  | True -> ()
  | Cmp (_, a, b) ->
      ignore (bound ~col ~le a);
      ignore (bound ~col ~le b)
  | And (a, b) | Or (a, b) ->
      bound_pred ~col ~le a;
      bound_pred ~col ~le b
  | Not a -> bound_pred ~col ~le a

let table_bound (t : Table.t) = bound ~col:(fun n -> (Table.find t n).Column.dom) ~le:(Table.le t)

(* Operands and branches are data-independent, so they evaluate as fused
   tracks, and so do the operands' encoding conversions after them. The
   tracks keep the draw order of sequential evaluation: operands left to
   right, then the conversions in the order OCaml evaluated them as
   arguments, right to left ([b] before [a] for a binary op, the [a]
   branch before [b] for the mux, whose arguments are [b], [a]). Each
   node's domain comes from the same rules as {!bound}, which the entry
   points run first. *)
let rec eval_num (t : Table.t) (e : num) : value =
  let ctx = Table.ctx t in
  let operands a b = fuse2 ctx (fun () -> eval_num t a) (fun () -> eval_num t b) in
  let convert conv va vb =
    let xb, xa = fuse2 ctx (fun () -> conv vb) (fun () -> conv va) in
    (xa, xb)
  in
  match e with
  | Col n ->
      let c = Table.find t n in
      { data = Column.data c; dom = c.Column.dom }
  | Const c ->
      let dom = Dom.point c in
      {
        data =
          Share.public ctx Share.Bool (Table.nrows t)
            (c land Orq_util.Ring.mask (Dom.width dom));
        dom;
      }
  | Add (a, b) ->
      let va, vb = operands a b in
      let xa, xb = convert (as_arith ctx) va vb in
      { data = Mpc.add xa xb; dom = Dom.add va.dom vb.dom }
  | Sub (a, b) ->
      let va, vb = operands a b in
      let xa, xb = convert (as_arith ctx) va vb in
      { data = Mpc.sub xa xb; dom = Dom.sub va.dom vb.dom }
  | Mul (a, b) ->
      let va, vb = operands a b in
      let dom = Dom.mul va.dom vb.dom in
      let xa, xb = convert (as_arith ctx) va vb in
      { data = Mpc.mul ~width:(Dom.width dom) ctx xa xb; dom }
  | Div (a, b) ->
      let va, vb = operands a b in
      let w = max (width va) (width vb) in
      (* a signed divisor sign-extends to the full width *)
      let wd = if signed vb then w else width vb in
      let dom = div_dom ~le:(Table.le t) a b va.dom vb.dom in
      let xa, xb = convert (fun v -> as_bool_at ctx v w) va vb in
      { data = Orq_circuits.Divide.udiv ctx ~qw:(Dom.width dom) ~w ~wd xa xb; dom }
  | Div_pub (a, d) ->
      let va = eval_num t a in
      let w = width va in
      let dom = div_pub_dom va.dom d in
      (* an unsigned arithmetic dividend divides by multiply-high; a signed
         one divides as its w-bit pattern *)
      let x, hi =
        if signed va then (as_bool_at ctx va w, Orq_util.Ring.mask w)
        else (va.data, va.dom.Dom.hi)
      in
      let q = Orq_circuits.Divide.udiv_pub ctx ~hi ~w x d in
      { data = Mpc.and_mask q (Orq_util.Ring.mask (Dom.width dom)); dom }
  | If (p, a, b) ->
      let bit, va, vb =
        match
          Mpc.fuse_rounds ctx
            [|
              (fun () -> Either.Left (eval_pred_unchecked t p));
              (fun () -> Either.Right (eval_num t a));
              (fun () -> Either.Right (eval_num t b));
            |]
        with
        | [| Left bit; Right va; Right vb |] -> (bit, va, vb)
        | _ -> assert false
      in
      let dom = Dom.hull va.dom vb.dom in
      let w = Dom.width dom in
      let xa, xb = fuse2 ctx (fun () -> as_bool_at ctx va w) (fun () -> as_bool_at ctx vb w) in
      { data = Orq_circuits.Mux.mux_b ~width:w ctx bit xb xa; dom }

(* Predicate evaluation batches across comparison legs: all Cmp leaves of
   the And/Or tree are collected first, their arithmetic operands convert
   through one fused A2B, the equality legs share one fused OR-fold ladder
   and the ordering legs one fused less-than ladder (per-leg signedness is
   a local sign-bit flip), and the connective structure combines the leaf
   flags with log-depth fused AND/OR trees over packed words. A
   multi-conjunct filter such as Q6's thus costs one comparison-ladder
   depth instead of one per leg. *)
and eval_pred_unchecked (t : Table.t) (p : pred) : Share.flags =
  let ctx = Table.ctx t in
  (* Pass 1: every leaf's operands, left to right, as fused tracks. *)
  let leaves = ref [] in
  let nleaves = ref 0 in
  let rec skel p =
    match p with
    | True -> `T
    | Cmp (op, a, b) ->
        let i = !nleaves in
        incr nleaves;
        leaves := (op, a, b) :: !leaves;
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
  let leaves = Array.of_list (List.rev !leaves) in
  let vals =
    Mpc.fuse_rounds ctx
      (Array.init (2 * !nleaves) (fun k ->
           let _, a, b = leaves.(k / 2) in
           let e = if k land 1 = 0 then a else b in
           fun () -> eval_num t e))
  in
  let leaves =
    Array.mapi
      (fun i (op, _, _) ->
        let va = vals.(2 * i) and vb = vals.((2 * i) + 1) in
        (op, va, vb, fst (joint va vb)))
      leaves
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
        let signed = snd (joint va vb) in
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
        if neg then Mpc.bnot_f b else b)
      plan
  in
  (* Pass 4: combine through the connective skeleton; associative And/Or
     chains flatten into log-depth fused trees. *)
  let rec tree f es =
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
  (* every tree level is one packed fused round *)
  let rec combine = function
    | `T -> Share.pack_flags (Share.public ctx Share.Bool (Table.nrows t) 1)
    | `L i -> leaf_bit.(i)
    | `Not a -> Mpc.bnot_f (combine a)
    | `And _ as s ->
        tree (Mpc.band_f_many ctx)
          (Array.of_list (List.map combine (flatten_and s)))
    | `Or _ as s ->
        tree (Mpc.bor_f_many ctx)
          (Array.of_list (List.map combine (flatten_or s)))
  in
  combine sk

(** The predicate per row, as packed flags; refuses a comparison operand
    whose bound exceeds the ring before any share moves. *)
let eval_pred (t : Table.t) (p : pred) : Share.flags =
  bound_pred ~col:(fun n -> (Table.find t n).Column.dom) ~le:(Table.le t) p;
  eval_pred_unchecked t p

(** Evaluate a numeric expression into a fresh boolean-encoded column at
    the width of its domain; refuses an expression whose bound exceeds
    the ring before any share moves. *)
let eval_col (t : Table.t) (e : num) : Column.t =
  ignore (table_bound t e);
  let v = eval_num t e in
  Column.of_shared ~dom:v.dom (as_bool_at (Table.ctx t) v (width v))
