(** Oblivious comparisons on boolean-shared, bit-packed values.

    Equality is an XOR followed by a logarithmic OR-fold; less-than is the
    classic divide-and-conquer (lt, eq) block-combination circuit. Both take
    [O(log w)] AND rounds for [w]-bit values — the costs the paper's sorting
    analysis (§B) assumes for secure comparisons.

    Every circuit here is written over *lanes*: the [_many] entry points
    run k independent comparisons (possibly of different widths) in
    lockstep, issuing each ladder level for all still-active lanes as one
    {!Mpc.band_many}/{!Mpc.bor_many} call, so the fused round count is the
    maximum lane depth rather than the sum. The single-pair functions are
    the one-lane special case. A useful byproduct: the less-than ladder's
    block-equality word terminates holding full-word equality in bit 0, so
    {!lt_core_many} returns both bits for the price of the lt ladder — which
    is what lets {!lt_lex} drop the separate equality circuits the
    unbatched version paid for. Where only lt is read (one column, or the
    last merge of several), the last AND forms the lt product alone
    ({!lt_last_many}, {!lt_lex_last}). Single-bit results leave the
    word-based ladders as packed flags. *)

open Orq_proto

(** Bit mask with ones at positions [0, s, 2s, ...] below the word size,
    selecting the summary flag of each combined block at stride [s]. *)
let stride_mask s =
  let m = ref 0 in
  let i = ref 0 in
  while !i < Orq_util.Ring.word_bits do
    m := !m lor (1 lsl !i);
    i := !i + s
  done;
  !m

(* Indices of lanes still active under [pred], as an array. *)
let active_lanes k pred =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if pred i then i :: acc else acc) in
  Array.of_list (go (k - 1) [])

(** [eq_many ctx lanes] runs k independent equality tests (lanes are
    (x, y, w) triples) in lockstep: ⌈log₂ w⌉ fused OR-fold rounds for the
    widest lane; narrower lanes drop out as their strides reach zero. *)
let eq_many (ctx : Ctx.t) (lanes : (Share.shared * Share.shared * int) array) :
    Share.flags array =
  let k = Array.length lanes in
  let z =
    Array.map
      (fun (x, y, w) -> Mpc.and_mask (Mpc.xor x y) (Orq_util.Ring.mask w))
      lanes
  in
  let s = Array.map (fun (_, _, w) -> Orq_util.Ring.next_pow2 w / 2) lanes in
  let rec loop () =
    let active = active_lanes k (fun i -> s.(i) > 0) in
    if Array.length active > 0 then begin
      let xs = Array.map (fun i -> z.(i)) active in
      let ys = Array.map (fun i -> Mpc.rshift z.(i) s.(i)) active in
      let ws = Array.map (fun i -> max 1 s.(i)) active in
      let rs = Mpc.bor_many ~widths:ws ctx xs ys in
      Array.iteri
        (fun j i ->
          z.(i) <- rs.(j);
          s.(i) <- s.(i) / 2)
        active;
      loop ()
    end
  in
  loop ();
  Array.map (fun zi -> Mpc.bnot_f (Mpc.extract_bit_f zi 0)) z

(** [eq ctx ~w x y] returns the packed flags of [x = y] over the low [w]
    bits. [log2 w] AND rounds. *)
let eq (ctx : Ctx.t) ~w x y = (eq_many ctx [| (x, y, w) |]).(0)

(* Core of less-than, over lanes: each lane maintains per-block (lt, eq)
   summary flags packed in its word and merges adjacent blocks level by
   level:
     lt' = lt_hi xor (eq_hi and lt_lo)   (xor = or: the terms are disjoint)
     eq' = eq_hi and eq_lo
   Both ANDs of a lane's level are packed in its word (the append trick),
   and all active lanes share the level's single fused round. [lt_init]
   is the initial AND round: the block words at block size 1. *)
let lt_init (ctx : Ctx.t) (lanes : (Share.shared * Share.shared * int) array)
    =
  let ltb =
    Mpc.band_many
      ~widths:(Array.map (fun (_, _, w) -> w) lanes)
      ctx
      (Array.map
         (fun (x, _, w) ->
           let mw = Orq_util.Ring.mask w in
           Mpc.and_mask (Mpc.bnot (Mpc.and_mask x mw)) mw)
         lanes)
      (Array.map
         (fun (_, y, w) -> Mpc.and_mask y (Orq_util.Ring.mask w))
         lanes)
  in
  (* bits at positions >= w xor to zero, so eqb is 1 there: padding blocks
     behave as (lt = 0, eq = 1) and vanish in the combination *)
  let eqb =
    Array.map
      (fun (x, y, w) ->
        let mw = Orq_util.Ring.mask w in
        Mpc.bnot (Mpc.xor (Mpc.and_mask x mw) (Mpc.and_mask y mw)))
      lanes
  in
  (ltb, eqb)

(* The ladder levels, in place: lane i merges blocks of size d.(i) while
   [more i d.(i)] holds. A lane whose caller reads only lt ([lt_only i])
   never reads its lowest block's eq, so its eq products skip that block
   and ride shifted down by d into the free positions of the lt products'
   word: one lane metered at its live positions, w/(2d) lt products and
   one eq product fewer. Other lanes append the eq half. *)
let lt_levels (ctx : Ctx.t) (lanes : (Share.shared * Share.shared * int) array)
    ltb eqb d ~more ~lt_only =
  let k = Array.length lanes in
  let width_of i =
    let _, _, w = lanes.(i) in
    w
  in
  let rec loop () =
    let active = active_lanes k (fun i -> more i d.(i)) in
    if Array.length active > 0 then begin
      let lane i =
        let dd = d.(i) in
        let m = stride_mask (2 * dd) in
        let top =
          Orq_util.Ring.ones
          lsl (Orq_util.Ring.word_bits - dd)
          land Orq_util.Ring.ones
        in
        let eq_hi = Mpc.and_mask (Mpc.xor_pub (Mpc.rshift eqb.(i) dd) top) m in
        let lt_lo = Mpc.and_mask ltb.(i) m and eq_lo = Mpc.and_mask eqb.(i) m in
        let ws = max 1 (width_of i / (2 * dd)) in
        if lt_only i then
          let down v = Mpc.rshift (Mpc.and_mask v (m land lnot 1)) dd in
          (Mpc.xor eq_hi (down eq_hi), Mpc.xor lt_lo (down eq_lo), (2 * ws) - 1)
        else (Share.append eq_hi eq_hi, Share.append lt_lo eq_lo, ws)
      in
      let ls = Array.map lane active in
      let both =
        Mpc.band_many
          ~widths:(Array.map (fun (_, _, w) -> w) ls)
          ctx
          (Array.map (fun (x, _, _) -> x) ls)
          (Array.map (fun (_, y, _) -> y) ls)
      in
      Array.iteri
        (fun j i ->
          let dd = d.(i) in
          let m = stride_mask (2 * dd) in
          let lt_hi = Mpc.and_mask (Mpc.rshift ltb.(i) dd) m in
          let a, b =
            if lt_only i then
              (Mpc.and_mask both.(j) m, Mpc.and_mask (Mpc.lshift both.(j) dd) m)
            else Share.split2 both.(j) (Share.length ltb.(i))
          in
          ltb.(i) <- Mpc.xor lt_hi a;
          eqb.(i) <- b;
          d.(i) <- 2 * dd)
        active;
      loop ()
    end
  in
  loop ()

(* The (x < y, x = y) flag pair of each lane, over [w]-bit naturals, from
   the full fused ladder: ⌈log₂ w⌉ + 1 rounds at the widest lane (eq is
   free: the ladder computes it anyway). The lexicographic merge reads
   both, except the least significant column's eq, which [lt_only] lanes
   skip (their eq is [None]). *)
let lt_core_many (ctx : Ctx.t)
    (lanes : (Share.shared * Share.shared * int) array) ~lt_only :
    (Share.flags * Share.flags option) array =
  let ltb, eqb = lt_init ctx lanes in
  let d = Array.make (Array.length lanes) 1 in
  lt_levels ctx lanes ltb eqb d ~lt_only ~more:(fun i dd ->
      let _, _, w = lanes.(i) in
      dd < w);
  Array.mapi
    (fun i (l, e) ->
      (Mpc.extract_bit_f l 0, if lt_only i then None else Some (Mpc.extract_bit_f e 0)))
    (Array.combine ltb eqb)

(* Less-than short of its last AND, over lanes: packed flags (x, y, tail)
   with lt = (x ∧ y) ⊕ tail. A lane's ladder stops before the level whose
   blocks span the word; bit 0 of that level is lt_hi ⊕ (eq_hi ∧ lt_lo)
   over the block words, so the level's eq product and its other blocks
   are never formed. A 1-bit lane runs no ladder: its initial AND is the
   last one. *)
let lt_last_many (ctx : Ctx.t)
    (lanes : (Share.shared * Share.shared * int) array) =
  let wide =
    active_lanes (Array.length lanes) (fun i ->
        let _, _, w = lanes.(i) in
        w >= 2)
  in
  let wl = Array.map (fun i -> lanes.(i)) wide in
  let ltb, eqb = lt_init ctx wl in
  let d = Array.make (Array.length wl) 1 in
  lt_levels ctx wl ltb eqb d ~lt_only:(fun _ -> true) ~more:(fun t dd ->
      let _, _, w = wl.(t) in
      2 * dd < w);
  let next = ref 0 in
  Array.map
    (fun (x, y, w) ->
      if w < 2 then
        (Mpc.bnot_f (Mpc.extract_bit_f x 0), Mpc.extract_bit_f y 0, None)
      else begin
        let t = !next in
        incr next;
        let at v = Mpc.extract_bit_f v d.(t) in
        (at eqb.(t), Mpc.extract_bit_f ltb.(t) 0, Some (at ltb.(t)))
      end)
    lanes

(* (x ∧ y) ⊕ tail for k lanes, in one fused round. *)
let last_and_many (ctx : Ctx.t) ls =
  let rs =
    Mpc.band_f_many ctx
      (Array.map (fun (x, _, _) -> x) ls)
      (Array.map (fun (_, y, _) -> y) ls)
  in
  Array.map2
    (fun r (_, _, tail) ->
      match tail with None -> r | Some t -> Mpc.xor_f r t)
    rs ls

(** [lt_many ctx lanes]: k independent less-than tests in max-lane-depth
    fused rounds, ⌈log₂ w⌉ + 1 at the widest lane. *)
let lt_many (ctx : Ctx.t) (lanes : (Share.shared * Share.shared * int) array)
    : Share.flags array =
  last_and_many ctx (lt_last_many ctx lanes)

(** [lt ctx ~w x y]: packed flags of [x < y] over [w]-bit naturals. *)
let lt (ctx : Ctx.t) ~w x y = (lt_many ctx [| (x, y, w) |]).(0)

let gt ctx ~w x y = lt ctx ~w y x
let le ctx ~w x y = Mpc.bnot_f (lt ctx ~w y x)
let ge ctx ~w x y = Mpc.bnot_f (lt ctx ~w x y)

(* Log-depth merge of per-column (lt, eq) pairs under the associative
   lexicographic combination (hi = more significant column):
     (lt_hi, eq_hi) ⊗ (lt_lo, eq_lo) = (lt_hi ⊕ eq_hi∧lt_lo, eq_hi∧eq_lo)
   Each level issues the single-bit ANDs of every adjacent pair as one
   fused round, over packed flag lanes ({!Mpc.band_f_many}): randomness and
   local work are per word, element-level traffic unchanged. The least
   significant group's eq is never read ([None]), so its pair forms the
   lt product alone. Merges until at most two pairs remain: the last
   merge needs only its lt product. *)
let rec lex_merge (ctx : Ctx.t) (ps : (Share.flags * Share.flags option) array) =
  let m = Array.length ps in
  if m <= 2 then ps
  else begin
    let pn = m / 2 in
    let eq_hi j = Option.get (snd ps.(2 * j)) in
    let lo j = ps.((2 * j) + 1) in
    let ands =
      List.concat
        (List.init pn (fun j ->
             (eq_hi j, fst (lo j))
             :: Option.fold ~none:[] ~some:(fun e -> [ (eq_hi j, e) ]) (snd (lo j))))
    in
    let rs =
      Mpc.band_f_many ctx
        (Array.of_list (List.map fst ands))
        (Array.of_list (List.map snd ands))
    in
    let next = ref 0 in
    let take () =
      let r = rs.(!next) in
      incr next;
      r
    in
    let merged =
      Array.init pn (fun j ->
          let lt = Mpc.xor_f (fst ps.(2 * j)) (take ()) in
          (lt, Option.map (fun _ -> take ()) (snd (lo j))))
    in
    let merged =
      if m mod 2 = 1 then Array.append merged [| ps.(m - 1) |] else merged
    in
    lex_merge ctx merged
  end

(* The lexicographic less-than short of its last AND, as packed flags
   (x, y, tail) with lt = (x ∧ y) ⊕ tail. One column: its ladder short of
   the last AND ({!lt_last_many}). Several columns: every column's full
   ladder in one fused pass (the last column's lt alone), then the merge
   down to two pairs. *)
let lt_lex_last (ctx : Ctx.t) = function
  | [] -> invalid_arg "lt_lex: empty key list"
  | [ c ] -> (lt_last_many ctx [| c |]).(0)
  | cols -> (
      let k = List.length cols in
      match
        lex_merge ctx (lt_core_many ctx (Array.of_list cols) ~lt_only:(fun i -> i = k - 1))
      with
      | [| (l0, Some e0); (l1, _) |] -> (e0, l1, Some l0)
      | _ -> assert false)

(** Lexicographic less-than over a list of (x, y, width) column pairs,
    as packed flags — the composite-key comparator used by TableSort and
    the sorting wrapper (the (key, index) 128-bit padding construction of
    §B.2): lt = lt_1 or (eq_1 and (lt_2 or (eq_2 and ...))). All
    columns' (lt, eq) ladders run in one fused lockstep pass and a
    log-depth packed merge combines the columns; the last AND forms only
    the lt product. *)
let lt_lex (ctx : Ctx.t) cols = (last_and_many ctx [| lt_lex_last ctx cols |]).(0)

(** {!lt_lex} opened. Under SH-HM the last AND opens in its own round
    ({!Mpc.band_open_f}): one round fewer than {!lt_lex} then
    {!Mpc.open_f}. Under SH-DM and Mal-HM it is exactly {!lt_lex} then
    {!Mpc.open_f}. *)
let lt_lex_open (ctx : Ctx.t) cols =
  match ctx.kind with
  | Ctx.Sh_dm | Ctx.Mal_hm -> Mpc.open_f ctx (lt_lex ctx cols)
  | Ctx.Sh_hm ->
      let x, y, tail = lt_lex_last ctx cols in
      Mpc.band_open_f ctx ?tail x y

(** Conjunctions of per-column equality over composite keys, one per
    group of columns, as packed flags: one fused (word-based) equality
    pass over every group's columns, then lockstep log-depth packed AND
    trees (k - 1 single-bit ANDs per group, same traffic as the
    sequential fold). *)
let eq_composite_many (ctx : Ctx.t)
    (groups : (Share.shared * Share.shared * int) list array) :
    Share.flags array =
  if Array.length groups = 0 then [||]
  else begin
    Array.iter
      (fun g -> if g = [] then invalid_arg "eq_composite: empty key list")
      groups;
    (* one fused per-column equality pass over every group's columns *)
    let lanes = Array.of_list (List.concat (Array.to_list groups)) in
    let eqs = eq_many ctx lanes in
    let state = Array.make (Array.length groups) [||] in
    let off = ref 0 in
    Array.iteri
      (fun gi g ->
        let k = List.length g in
        state.(gi) <- Array.sub eqs !off k;
        off := !off + k)
      groups;
    (* lockstep log-depth AND tree: each level fuses the adjacent pairs of
       every still-unreduced group into one round; a group with an odd
       element carries it to the next level unchanged *)
    let live = ref (Array.exists (fun es -> Array.length es > 1) state) in
    while !live do
      let xs = ref [] and ys = ref [] in
      Array.iter
        (fun es ->
          for j = 0 to (Array.length es / 2) - 1 do
            xs := es.(2 * j) :: !xs;
            ys := es.((2 * j) + 1) :: !ys
          done)
        state;
      let xs = Array.of_list (List.rev !xs)
      and ys = Array.of_list (List.rev !ys) in
      let rs = Mpc.band_f_many ctx xs ys in
      let pos = ref 0 in
      Array.iteri
        (fun gi es ->
          let m = Array.length es in
          let pn = m / 2 in
          let merged = Array.sub rs !pos pn in
          pos := !pos + pn;
          state.(gi) <-
            (if m mod 2 = 1 then Array.append merged [| es.(m - 1) |]
             else merged))
        state;
      live := Array.exists (fun es -> Array.length es > 1) state
    done;
    Array.map (fun es -> es.(0)) state
  end

let eq_composite (ctx : Ctx.t) cols = (eq_composite_many ctx [| cols |]).(0)
