(** Oblivious integer division, quotient only (no caller reads a
    remainder).

    The paper implements fully private averages with a non-restoring
    division circuit "inspired by the hardware literature" (§5.1, citing
    Lu). Both boolean entry points share that loop: each iteration shifts
    the partial remainder, shifts in the next dividend bit, and adds +D
    or -D depending on the (secret) sign of the running remainder. The
    invariant is

      X_consumed = Q·D + R + D·[R < 0],   R in [-D, D)

    so the quotient bits q_i = [R_new >= 0] need no digit correction, and
    the final remainder is dropped. Because |R| < D and the shifted
    remainder stays inside [-2D, 2D), the remainder is carried at the
    divisor's width plus two bits, not the dividend's. The ±D step needs
    no multiplexer: with t = [R >= 0] (the previous quotient bit), -D is
    ~D plus a carry-in of 1 and +D is D with none, so the addend is
    D ⊕ ext(t) and the carry-in is t, both local; the adder folds the
    shared carry-in into the generate AND it already runs.

    {b Secret divisor} ([udiv]): one [wd + 2]-bit adder per quotient
    bit, where [wd] bounds the divisor's width. With no bound that is w
    iterations. A caller that knows the quotient is below [2^qw] (a
    public fact of the plan: an average fits its source's width, a share
    of a total is at most 100) passes [?qw]: then x >> qw < D, so the top
    [w - qw] bits seed the partial remainder, as in the narrow loop
    below, and only qw iterations run.

    {b Public divisor, arithmetic dividend} ([udiv_pub] on an [Arith]
    sharing of x in [0, hi]): division by an invariant integer through
    multiply-high (Granlund & Montgomery, PLDI 1994). With the smallest
    s >= ⌈log₂ d⌉ for which m = ⌈2^s/d⌉ satisfies hi·(m·d − 2^s) < 2^s,
    ⌊x/d⌋ = (x·m) >> s for every x in [0, hi]: x·m is local, exact when
    W = bitlen(hi·m) fits the ring, and one A2B at W bits (the conversion
    the dividend pays anyway, its one opening masked by an edaBit) and a
    local shift finish. A product too wide for the ring converts at
    bitlen hi and takes the boolean path. Only rows inside [0, hi] get
    their exact quotient.

    {b Public divisor, boolean dividend} ([udiv_pub] on a [Bool]
    sharing): powers of two (and [d >= 2^w]) are local shifts.
    Otherwise two exact circuits are priced from the public [(w, d)] by
    their closed-form round counts and the cheaper one runs:
    - the {i narrow loop}: the top [bitlen d - 1] dividend bits are below
      [d], so they seed the remainder and only [w - bitlen d + 1]
      iterations run, each at [bitlen d + 2] bits;
    - the {i digit split}: with [L = bitlen d], x = d·A + S where
      A = Σ_{i>=L} x_i·⌊2^i/d⌋ and
      S = (x mod 2^L) + Σ_{i>=L} x_i·(2^i mod d).
      Every term is a secret bit times a public constant (local). A and S
      reduce through lockstep 3:2 carry-save levels (one fused AND round
      per level for both trees) and one fused adder; the narrow loop then
      divides the short S, and q = A + ⌊S/d⌋.

    Every choice reads public shape only. Division by zero yields
    unspecified output for a secret divisor and is rejected for a public
    one. *)

open Orq_proto
open Orq_util

let check_width w =
  if w < 1 || w > Ring.word_bits - 2 then
    invalid_arg "Divide: width must be in [1, word_bits - 2]"

(* Bits needed to hold the non-negative [v]. *)
let bitlen v = Ring.log2_ceil (v + 1)

(* Online rounds of one (possibly fused) addition of two shared operands
   whose widest lane has width [w], from the price list. *)
let adder_rounds w = Array.length (Primcost.add Ctx.Sh_hm ~w ~n:1)

(* Sign flag (bit wr - 1) of a wr-bit two's-complement sharing, as packed
   flags. *)
let msb x ~wr = Mpc.extract_bit_f x (wr - 1)

(* The non-restoring loop: consumes bits [bits-1 .. 0] of [x] into the
   wr-bit partial remainder [r0] (0 <= r0 < D) and returns the quotient
   bits. [addend t] must return the wr-bit sharing of D ⊕ ext(t): with
   carry-in t that adds -D when t = 1 (remainder non-negative) and +D
   when t = 0. The first iteration's remainder is r0, so its t is 1. *)
let nonrestoring (ctx : Ctx.t) ~wr ~bits ~x ~r0 ~addend =
  let n = Share.length x in
  let r = ref r0 in
  let t = ref (Mpc.extract_bit_f (Share.public ctx Share.Bool n 1) 0) in
  let qbits = ref (Share.public ctx Share.Bool n 0) in
  for i = bits - 1 downto 0 do
    (* 2R + x_i : the shifted-in low bit is zero so xor inserts x_i *)
    let shifted =
      Mpc.xor (Mpc.lshift !r 1) (Share.unpack_flags (Mpc.extract_bit_f x i))
    in
    let r2 = Mpc.and_mask shifted (Ring.mask wr) in
    r := Adder.add_carry ctx ~w:wr r2 (addend !t) !t;
    (* quotient bit is 1 iff the new remainder is non-negative *)
    t := Mpc.bnot_f (msb !r ~wr);
    qbits := Mpc.xor !qbits (Mpc.lshift (Share.unpack_flags !t) i)
  done;
  !qbits

(* ext(t) at wr bits. *)
let ext t ~wr = Mpc.and_mask (Share.extend_flags t) (Ring.mask wr)

(* The clamped divisor width, the remainder width and the iteration
   count of [udiv] for the public (w, wd, qw). *)
let secret_shape ~w ~wd qw =
  check_width w;
  let wd = max 1 (min wd w) in
  (wd, wd + 2, match qw with None -> w | Some q -> max 1 (min q w))

(** [udiv ctx ?qw ~w ~wd x d] returns the boolean sharing of the quotient
    of unsigned [w]-bit division by a secret divisor of at most [wd]
    bits, the quotient known to be below [2^qw] (default [w]). *)
let udiv (ctx : Ctx.t) ?qw ~w ~wd x d : Share.shared =
  let wd, wr, qw = secret_shape ~w ~wd qw in
  let d = Mpc.and_mask d (Ring.mask wd) in
  (* q < 2^qw means x >> qw < d: the top w - qw bits are the starting
     remainder (zero when qw = w) *)
  let r0 =
    Mpc.and_mask (Mpc.rshift (Mpc.and_mask x (Ring.mask w)) qw) (Ring.mask wr)
  in
  nonrestoring ctx ~wr ~bits:qw ~x ~r0 ~addend:(fun t -> Mpc.xor d (ext t ~wr))

let udiv_rounds ~w ~wd ?qw () =
  let _, wr, qw = secret_shape ~w ~wd qw in
  (* qw iterations, each one wr-bit adder *)
  qw * adder_rounds wr

(* ------------------------------------------------------------------ *)
(* Public divisor                                                      *)
(* ------------------------------------------------------------------ *)

(* The narrow loop dividing the [w]-bit [x] by a public [d] < 2^w that
   is not a power of two: returns the quotient. *)
let narrow_loop (ctx : Ctx.t) ~w x d =
  let l = bitlen d in
  let wr = l + 2 in
  let bits = w - l + 1 in
  (* the top l - 1 bits are below d: they are the starting remainder *)
  let r0 = Mpc.rshift x bits in
  nonrestoring ctx ~wr ~bits ~x ~r0 ~addend:(fun t -> Mpc.xor_pub (ext t ~wr) d)

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
  (* w - l + 1 iterations, all at l + 2 bits *)
  (w - l + 1) * adder_rounds (l + 2)

let split_rounds ~w d =
  let l = bitlen d in
  let m = w - l in
  let wa, ws, wq = split_widths ~w d in
  let tree_add = if m >= 2 then max wa ws else ws in
  csa_levels (m + 1)
  + adder_rounds tree_add
  + ((ws - l + 1) * adder_rounds (l + 2))
  + adder_rounds wq

(* The split pays off only with high dividend bits to split off. *)
let use_split ~w d = w > bitlen d && split_rounds ~w d < narrow_rounds ~w d

(* Rounds of the boolean circuits for a [w]-bit dividend. *)
let bool_rounds ~w d =
  if Ring.is_pow2 d || d > Ring.mask w then 0
  else if use_split ~w d then split_rounds ~w d
  else narrow_rounds ~w d

(* Multiply-high parameters for dividends in [0, hi] and a divisor d <= hi:
   the smallest s >= ⌈log₂ d⌉ with hi·e < 2^s, where m = ⌈2^s/d⌉ and
   e = m·d − 2^s < d, and the width W = bitlen(hi·m) of the largest
   product; [None] when that product does not fit [Ring.word_bits - 2]
   bits. Then x·m/2^s = x/d + x·e/(d·2^s) with x·e/2^s < 1, so the floor
   is ⌊x/d⌋. m grows with s, so the search stops at the first s whose
   product is too wide. *)
let mulhi_params ~hi d =
  let limit = Ring.mask (Ring.word_bits - 2) in
  let rec go s =
    let p = 1 lsl s in
    let m = (p + d - 1) / d in
    if hi > limit / m then None
    else
      let e = (m * d) - p in
      if e = 0 || hi <= (p - 1) / e then Some (s, m, bitlen (hi * m))
      else go (s + 1)
  in
  go (Ring.log2_ceil d)

(* Online rounds of an A2B at [w] bits. *)
let a2b_rounds w =
  Array.length (Primcost.a2b Ctx.Sh_hm ~ell:Ring.word_bits ~w ~n:1)

(* The path of an arithmetic dividend in [0, hi] ([hi] clamped to
   2^w - 1): a zero quotient when d > hi, multiply-high when the product
   fits, else an A2B at w bits and the boolean circuits. *)
let arith_path ?hi ~w d =
  let hi = min (Option.value hi ~default:(Ring.mask w)) (Ring.mask w) in
  if d > hi then `Zero
  else match mulhi_params ~hi d with Some p -> `Mulhi p | None -> `Convert

let pub_rounds ?hi ~enc ~w d =
  check_width w;
  if d < 1 then invalid_arg "Divide.pub_rounds: divisor must be positive";
  match (enc : Share.enc) with
  | Bool -> bool_rounds ~w d
  | Arith -> (
      match arith_path ?hi ~w d with
      | `Zero -> 0
      | `Mulhi (_, _, wide) -> a2b_rounds wide
      | `Convert -> a2b_rounds w + bool_rounds ~w d)

let digit_split (ctx : Ctx.t) ~w x d =
  let l = bitlen d in
  let wa, ws, wq = split_widths ~w d in
  (* high bit x_{l+j}, replicated across the word *)
  let high =
    Array.init (w - l) (fun j ->
        Share.extend_flags (Mpc.extract_bit_f x (l + j)))
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
  Adder.add ctx ~w:wq a (narrow_loop ctx ~w:ws s d)

(* Quotient of the boolean [w]-bit [x] by [d]. *)
let udiv_pub_bool (ctx : Ctx.t) ~w x d =
  let x = Mpc.and_mask x (Ring.mask w) in
  if d > Ring.mask w then Share.public ctx Share.Bool (Share.length x) 0
  else if Ring.is_pow2 d then Mpc.rshift x (Ring.log2_ceil d)
  else if use_split ~w d then digit_split ctx ~w x d
  else narrow_loop ctx ~w x d

(** [udiv_pub ctx ?hi ~w x d] divides by the public constant [d >= 1]. *)
let udiv_pub (ctx : Ctx.t) ?hi ~w x d : Share.shared =
  check_width w;
  if d < 1 then invalid_arg "Divide.udiv_pub: divisor must be positive";
  match x.Share.enc with
  | Bool -> udiv_pub_bool ctx ~w x d
  | Arith -> (
      match arith_path ?hi ~w d with
      | `Zero -> Share.public ctx Share.Bool (Share.length x) 0
      | `Mulhi (s, m, wide) ->
          Mpc.rshift (Convert.a2b ~w:wide ctx (Mpc.mul_pub x m)) s
      | `Convert -> udiv_pub_bool ctx ~w (Convert.a2b ~w ctx x) d)
