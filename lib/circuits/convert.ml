(** Conversions between arithmetic and boolean sharings (§2.3: "ORQ provides
    efficient MPC primitives to convert between the two representations
    without relying on data owners").

    Both directions are protocol-agnostic, consuming dealer correlations
    (daBits / edaBits) plus generic openings and adder circuits, so they work
    unchanged under all three protocols. *)

open Orq_proto
open Orq_util

(** Batched single-bit boolean-to-arithmetic conversion over packed flag
    lanes — the one B2A core: each lane masks with its own daBits (drawn
    per word and per lane in lane order), the [b xor r] masking is a bulk
    word xor, and all openings share one fused round at width 1 —
    unpacking to 0/1 only at the final local recombination
    [c + [r]_A * (1 - 2c)], where the result must become arithmetic words
    anyway. *)
let bit_b2a_many (ctx : Ctx.t) (bs : Share.flags array) :
    Share.shared array =
  if Array.length bs = 0 then [||]
  else begin
    let das = Array.map (fun b -> Dealer.dabits ctx (Share.flags_length b)) bs in
    let masked = Array.mapi (fun i b -> Mpc.xor_f b das.(i).Dealer.da_bool) bs in
    let cs = Mpc.open_f_many ctx masked in
    Array.mapi
      (fun i cbits ->
        let c = Bits.unpack cbits in
        let coeff = Vec.map (fun ci -> 1 - (2 * ci)) c in
        Mpc.add_pub_vec (Mpc.mul_pub_vec das.(i).Dealer.da_arith coeff) c)
      cs
  end

(** Convert packed flags to an arithmetic 0/1 sharing: a one-lane
    {!bit_b2a_many}. One opening round:
    c = open(b xor r);  [b]_A = c + [r]_A * (1 - 2c). *)
let bit_b2a (ctx : Ctx.t) (b : Share.flags) : Share.shared =
  (bit_b2a_many ctx [| b |]).(0)

(** Full-width boolean-to-arithmetic conversion over packed bit planes:
    the [w] planes are extracted as packed flags and concatenated into one
    lane of [w * n] flags, so the conversion is one {!bit_b2a_many}
    lane — one daBit draw and one width-1 opening round — then recombined
    locally as sum_i 2^i [b_i]_A. The [w]-bit value is interpreted as two's
    complement when [~signed:true] (the top bit weighs -2^(w-1)), so signed
    intermediates (e.g. profit columns) convert correctly; the default is
    raw unsigned recombination. Values below 2^(w-1) are unaffected either
    way. *)
let b2a ?w ?(signed = false) (ctx : Ctx.t) (x : Share.shared) : Share.shared =
  let w = Option.value w ~default:ctx.Ctx.ell in
  let w = min w Ring.word_bits in
  let n = Share.length x in
  let planes =
    Share.flags_concat_many (Array.init w (fun i -> Mpc.extract_bit_f x i))
  in
  let bits_a = bit_b2a ctx planes in
  let acc = ref (Share.public ctx Share.Arith n 0) in
  for i = 0 to w - 1 do
    let bi = Share.sub_range bits_a (i * n) n in
    let weight =
      if signed && i = w - 1 && w < Ring.word_bits then -(1 lsl i)
      else 1 lsl i
    in
    acc := Mpc.add !acc (Mpc.mul_pub bi weight)
  done;
  !acc

(** Batched arithmetic-to-boolean conversion over (x, w) lanes: each lane
    masks with its own doubly shared random value (edaBits, drawn per lane
    in lane order so the dealer stream matches the unbatched sequence),
    all [x + r] openings share one fused round, and the subtractions run
    through the lockstep boolean adder — one opening round plus a
    max-lane-depth adder for any number of conversions. *)
let a2b_many (ctx : Ctx.t) (lanes : (Share.shared * int) array) :
    Share.shared array =
  if Array.length lanes = 0 then [||]
  else begin
    let eds = Array.map (fun (x, _) -> Dealer.edabits ctx (Share.length x)) lanes in
    let masked =
      Array.mapi (fun i (x, _) -> Mpc.add x eds.(i).Dealer.ed_arith) lanes
    in
    let cs = Mpc.open_many ctx masked in
    Adder.sub_pub_minuend_many ctx
      (Array.mapi
         (fun i (_, w) ->
           (cs.(i), eds.(i).Dealer.ed_bool, min w Ring.word_bits))
         lanes)
  end

(** Arithmetic-to-boolean conversion: mask with a doubly shared random
    [r] (edaBits), open [x + r], and subtract [r] inside a boolean adder:
    [x]_B = (x + r) - [r]_B. One opening round plus one adder. *)
let a2b ?w (ctx : Ctx.t) (x : Share.shared) : Share.shared =
  let w = Option.value w ~default:(min ctx.Ctx.ell Ring.word_bits) in
  (a2b_many ctx [| (x, w) |]).(0)
