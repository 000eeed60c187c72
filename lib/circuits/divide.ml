(** Oblivious integer division.

    The paper implements fully private averages with a non-restoring
    division circuit "inspired by the hardware literature" (§5.1, citing
    Lu). Both entry points share that loop: each iteration shifts the
    partial remainder, shifts in the next dividend bit, and adds +D or -D
    depending on the (secret) sign of the running remainder, with a final
    remainder fix-up. The invariant is

      X_consumed = Q·D + R + D·[R < 0],   R in [-D, D)

    so the quotient bits q_i = [R_new >= 0] need no digit correction; only a
    negative final remainder gets +D. Because |R| < D and the shifted
    remainder stays inside [-2D, 2D), the remainder is carried at the
    divisor's width plus two bits, not the dividend's.

    {b Secret divisor} ([udiv]): w iterations, each a [wd + 2]-bit
    Kogge–Stone adder behind a ±D multiplexer, where [wd] bounds the
    divisor's width.

    {b Public divisor} ([udiv_pub]): powers of two (and [d >= 2^w]) are
    local shifts and masks. Otherwise two exact circuits are priced from
    the public [(w, d)] by their closed-form round counts and the cheaper
    one runs:
    - the {i narrow loop}: the top [bitlen d - 1] dividend bits are below
      [d], so they seed the remainder and only [w - bitlen d + 1]
      iterations run, each at [bitlen d + 2] bits with a local ±d select;
    - the {i digit split}: with [L = bitlen d], x = d·A + S where
      A = Σ_{i>=L} x_i·⌊2^i/d⌋ and
      S = (x mod 2^L) + Σ_{i>=L} x_i·(2^i mod d).
      Every term is a secret bit times a public constant (local). A and S
      reduce through lockstep 3:2 carry-save levels (one fused AND round
      per level for both trees) and one fused adder; the narrow loop then
      divides the short S, and q = A + ⌊S/d⌋, r = S mod d (the last adder
      fused with the remainder fix-up).

    Inputs are unsigned [w]-bit boolean sharings. Division by zero yields
    unspecified output for a secret divisor and is rejected for a public
    one. *)

open Orq_proto
open Orq_util

let check_width w =
  if w < 1 || w > Ring.word_bits - 2 then
    invalid_arg "Divide: width must be in [1, word_bits - 2]"

(* Bits needed to hold the non-negative [v]. *)
let bitlen v = Ring.log2_ceil (v + 1)

(* Online rounds of one (possibly fused) Kogge–Stone addition whose widest
   lane has width [w]: the generate round plus the prefix ladder. *)
let adder_rounds w = 1 + Ring.log2_ceil w

(* Sign flag (bit wr - 1) of a wr-bit two's-complement sharing, as an LSB
   single-bit share. *)
let msb x ~wr = Mpc.extract_bit x (wr - 1)

(* Shared skeleton of the non-restoring loop: consumes bits [bits-1 .. 0]
   of [x] into the wr-bit partial remainder [r0] (0 <= r0 < D).
   [select_addend sign] must return the wr-bit boolean sharing of -D
   (sign = 0) or +D (sign = 1). Returns the quotient bits and the
   unfixed remainder R in [-D, D); its sign flags the +D fix-up. *)
let nonrestoring (ctx : Ctx.t) ~wr ~bits ~x ~r0 ~select_addend =
  let r = ref r0 in
  let qbits = ref (Share.public ctx Share.Bool (Share.length x) 0) in
  for i = bits - 1 downto 0 do
    (* 2R + x_i : the shifted-in low bit is zero so xor inserts x_i *)
    let shifted = Mpc.xor (Mpc.lshift !r 1) (Mpc.extract_bit x i) in
    let r2 = Mpc.and_mask shifted (Ring.mask wr) in
    r := Adder.add ctx ~w:wr r2 (select_addend (msb !r ~wr));
    (* quotient bit is 1 iff the new remainder is non-negative *)
    qbits := Mpc.xor !qbits (Mpc.lshift (Mpc.xor_pub (msb !r ~wr) 1) i)
  done;
  (!qbits, !r)

(** [udiv ctx ~w ~wd x d] returns boolean sharings of the quotient and
    remainder of unsigned [w]-bit division by a secret divisor of at most
    [wd] bits. *)
let udiv (ctx : Ctx.t) ~w ~wd x d : Share.shared * Share.shared =
  check_width w;
  let wd = max 1 (min wd w) in
  let wr = wd + 2 in
  let d = Mpc.and_mask d (Ring.mask wd) in
  let neg_d = Adder.neg ctx ~w:wr d in
  let select_addend s = Mux.mux_b ~width:wr ctx s neg_d d in
  let r0 = Share.public ctx Share.Bool (Share.length x) 0 in
  let q, r = nonrestoring ctx ~wr ~bits:w ~x ~r0 ~select_addend in
  let cond_d = Mpc.band ~width:wr ctx (Mpc.extend_bit (msb r ~wr)) d in
  (q, Mpc.and_mask (Adder.add ctx ~w:wr r cond_d) (Ring.mask wd))

(* ------------------------------------------------------------------ *)
(* Public divisor                                                      *)
(* ------------------------------------------------------------------ *)

(* The narrow loop dividing the [w]-bit [x] by a public [d] < 2^w that
   is not a power of two: returns the quotient, the unfixed remainder and its
   (bitlen d + 2)-bit width. *)
let narrow_loop (ctx : Ctx.t) ~w x d =
  let l = bitlen d in
  let wr = l + 2 in
  let bits = w - l + 1 in
  let neg_d = -d land Ring.mask wr in
  let diff = d lxor neg_d in
  (* (-d) xor (ext(s) and (d xor -d)) : +d when s = 1 *)
  let select_addend s =
    Mpc.xor_pub (Mpc.and_mask (Mpc.extend_bit s) diff) neg_d
  in
  (* the top l - 1 bits are below d: they are the starting remainder *)
  let r0 = Mpc.rshift x bits in
  let q, r = nonrestoring ctx ~wr ~bits ~x ~r0 ~select_addend in
  (q, r, wr)

(* The +d fix-up addend for an unfixed wr-bit remainder. *)
let fixup_addend r ~wr d = Mpc.and_mask (Mpc.extend_bit (msb r ~wr)) d

(* Lockstep 3:2 carry-save reduction. Each tree is a list of (operand,
   width) pairs whose values are below 2^width, plus the width [t] of
   its total. Every level compresses each tree's operands in triples,
   widest first, with a + b + c = (a ⊕ b ⊕ c) + 2·maj(a, b, c) and
   maj = ((a ⊕ c) ∧ (b ⊕ c)) ⊕ c; maj vanishes above the second-widest
   operand, so the AND runs at that width. All compressors of a level
   share one fused AND round. Stops when every tree has at most two
   operands. *)
let rec carry_save (ctx : Ctx.t) trees =
  if Array.for_all (fun (ops, _) -> List.length ops <= 2) trees then trees
  else begin
    let rec triples = function
      | a :: b :: c :: rest ->
          let ts, left = triples rest in
          ((a, b, c) :: ts, left)
      | left -> ([], left)
    in
    let levels =
      Array.map
        (fun (ops, t) ->
          let ts, left =
            triples (List.stable_sort (fun (_, u) (_, v) -> compare v u) ops)
          in
          (Array.of_list ts, left, t))
        trees
    in
    let lanes =
      Array.concat (Array.to_list (Array.map (fun (ts, _, _) -> ts) levels))
    in
    let masked u (_, (_, wb), (c, _)) =
      Mpc.and_mask (Mpc.xor u c) (Ring.mask wb)
    in
    let ands =
      Mpc.band_many
        ~widths:(Array.map (fun (_, (_, wb), _) -> wb) lanes)
        ctx
        (Array.map (fun (((a, _), _, _) as t) -> masked a t) lanes)
        (Array.map (fun ((_, (b, _), _) as t) -> masked b t) lanes)
    in
    let base = ref 0 in
    let next =
      Array.map
        (fun (ts, left, t) ->
          let b0 = !base in
          base := b0 + Array.length ts;
          let outs =
            Array.mapi
              (fun j ((a, wa), (b, wb), (c, _)) ->
                let maj = Mpc.xor ands.(b0 + j) c in
                [
                  (Mpc.xor (Mpc.xor a b) c, min t wa);
                  (Mpc.lshift maj 1, min t (wb + 1));
                ])
              ts
          in
          (List.concat (Array.to_list outs) @ left, t))
        levels
    in
    carry_save ctx next
  end

(* Levels [carry_save] needs to take k operands down to two. *)
let rec csa_levels k = if k <= 2 then 0 else 1 + csa_levels (k - (k / 3))

(* Public shape of the digit split of a [w]-bit dividend by [d]: the
   widths of A's and S's totals and of the quotient. *)
let split_widths ~w d =
  let l = bitlen d in
  let hi = List.init (w - l) (fun j -> 1 lsl (l + j)) in
  let max_a = List.fold_left (fun acc p -> acc + (p / d)) 0 hi in
  let max_s = List.fold_left (fun acc p -> acc + (p mod d)) (Ring.mask l) hi in
  (bitlen max_a, bitlen max_s, bitlen (Ring.mask w / d))

let narrow_rounds ~w d =
  let l = bitlen d in
  (* w - l + 1 iterations plus the fix-up, all at l + 2 bits *)
  (w - l + 2) * adder_rounds (l + 2)

let split_rounds ~w d =
  let l = bitlen d in
  let m = w - l in
  let wa, ws, wq = split_widths ~w d in
  let tree_add = if m >= 2 then max wa ws else ws in
  csa_levels (m + 1)
  + adder_rounds tree_add
  + ((ws - l + 1) * adder_rounds (l + 2))
  + adder_rounds (max (l + 2) wq)

(* The split pays off only with high dividend bits to split off. *)
let use_split ~w d = w > bitlen d && split_rounds ~w d < narrow_rounds ~w d

let pub_rounds ~w d =
  check_width w;
  if d < 1 then invalid_arg "Divide.pub_rounds: divisor must be positive";
  if Ring.is_pow2 d || d > Ring.mask w then 0
  else if use_split ~w d then split_rounds ~w d
  else narrow_rounds ~w d

let digit_split (ctx : Ctx.t) ~w x d =
  let l = bitlen d in
  let wa, ws, wq = split_widths ~w d in
  (* high bit x_{l+j}, replicated across the word *)
  let high =
    Array.init (w - l) (fun j -> Mpc.extend_bit (Mpc.extract_bit x (l + j)))
  in
  let terms f =
    List.init (w - l) (fun j ->
        let c = f (1 lsl (l + j)) in
        (Mpc.and_mask high.(j) c, bitlen c))
  in
  let low = (Mpc.and_mask x (Ring.mask l), l) in
  let trees =
    carry_save ctx
      [| (terms (fun p -> p / d), wa); (low :: terms (fun p -> p mod d), ws) |]
  in
  (* S always keeps two operands; A keeps one when w = bitlen d + 1 *)
  let a, s =
    match trees with
    | [| ([ (a, _) ], _); ([ (s1, _); (s2, _) ], ts) |] ->
        (a, Adder.add ctx ~w:ts s1 s2)
    | [| ([ (a1, _); (a2, _) ], ta); ([ (s1, _); (s2, _) ], ts) |] ->
        let sums = Adder.add_many ctx [| (a1, a2, ta); (s1, s2, ts) |] in
        (sums.(0), sums.(1))
    | _ -> assert false
  in
  let q_s, r, wr = narrow_loop ctx ~w:ws s d in
  let fixed =
    Adder.add_many ctx [| (r, fixup_addend r ~wr d, wr); (a, q_s, wq) |]
  in
  (fixed.(1), fixed.(0))

(** [udiv_pub ctx ~w x d] divides by the public constant [d >= 1]. *)
let udiv_pub (ctx : Ctx.t) ~w x d : Share.shared * Share.shared =
  check_width w;
  if d < 1 then invalid_arg "Divide.udiv_pub: divisor must be positive";
  let x = Mpc.and_mask x (Ring.mask w) in
  if d > Ring.mask w then (Share.public ctx Share.Bool (Share.length x) 0, x)
  else if Ring.is_pow2 d then
    (Mpc.rshift x (Ring.log2_ceil d), Mpc.and_mask x (d - 1))
  else
    let q, r =
      if use_split ~w d then digit_split ctx ~w x d
      else
        let q, r, wr = narrow_loop ctx ~w x d in
        (q, Adder.add ctx ~w:wr r (fixup_addend r ~wr d))
    in
    (q, Mpc.and_mask r (Ring.mask (bitlen d)))
