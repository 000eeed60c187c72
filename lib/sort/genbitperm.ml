(** [genBitPerm] (Asharov et al., used by both radixsort variants),
    generalised to L-bit digits: given a secret digit vector, compute the
    elementwise sharing of its *stable* sorting permutation — rows ordered
    by digit value, original order preserved within each value.

    With the one-hot digit e_0..e_{2^L-1}, the running counts
    s_d = prefix_sum e_d, the class offsets C_d = N_0 + ... + N_{d-1}
    (N_d the total count of digit d) and t_d = C_d + s_d, the destination
    of element i is

      dest_i = t_0,i + sum_{d >= 1} e_d,i * (t_d,i - t_0,i) - 1.

    Prefix sums and offsets are linear (local on additive shares). The
    interactive steps are one fused bit conversion of the L bits, for
    L = 2 one product a_0 * a_1 forming the one-hot digit, and one fused
    (2^L - 1)-lane multiplication: 2 rounds for a bit, 3 for a 2-bit
    digit. At L = 1 this is genBitPerm exactly,
    dest_i = (s0_i - 1) + b_i * (Z + s1_i - s0_i). *)

open Orq_proto

(* Broadcast the last element of a sharing to every position (linear). *)
let broadcast_last (s : Share.shared) =
  Share.map_vectors
    (fun vk -> Array.make (Array.length vk) vk.(Array.length vk - 1))
    s

(** [gen_digit_of ctx bits] is {!gen_digit} from the digit's bits already
    converted to 0/1 arithmetic sharings ([bits], least significant
    first): the one-hot product (2-bit digits) and the fused ranking
    multiplication, so a caller that needs the converted bit elsewhere
    pays its conversion once. *)
let gen_digit_of (ctx : Ctx.t) (bits : Share.shared array) : Share.shared =
  (* The ranking multiplications run modulo 2^k, k = index_bits n. The
     formula is a polynomial in the one-hot lanes, and reduction modulo
     2^k is a ring homomorphism, so the result is dest_i mod 2^k — exactly
     dest_i, which lies in [0, n - 1] with n <= 2^k. Intermediate values
     (a difference t_d - t_0 may be negative) need not fit. *)
  let k_bits =
    match bits with
    | [| b |] | [| b; _ |] -> Orq_util.Ring.index_bits (Share.length b)
    | _ -> invalid_arg "Genbitperm.gen_digit: digits are 1 or 2 bits"
  in
  let one_hot =
    match bits with
    | [| a |] -> [| Mpc.add_pub (Mpc.neg a) 1; a |]
    | [| a0; a1 |] ->
        let p = Mpc.mul ~width:k_bits ctx a0 a1 in
        let e1 = Mpc.sub a0 p and e2 = Mpc.sub a1 p in
        [| Mpc.add_pub (Mpc.neg (Mpc.add (Mpc.add e1 e2) p)) 1; e1; e2; p |]
    | _ -> assert false
  in
  let k = Array.length one_hot - 1 in
  let s = Array.map Mpc.prefix_sum one_hot in
  (* class offsets C_1..C_k: running totals of the class counts *)
  let c = Array.make k (broadcast_last s.(0)) in
  for d = 2 to k do
    c.(d - 1) <- Mpc.add c.(d - 2) (broadcast_last s.(d - 1))
  done;
  (* t_d - t_0 = C_d + s_d - s_0, fused into one pass per share vector *)
  let diffs =
    Array.init k (fun j ->
        Share.map3_vectors Orq_util.Vec.add_sub c.(j) s.(j + 1) s.(0))
  in
  let prods =
    Mpc.mul_many ~widths:(Array.make k k_bits) ctx
      (Array.sub one_hot 1 k) diffs
  in
  Mpc.add_pub (Array.fold_left Mpc.add s.(0) prods) (-1)

(** [gen_digit ctx flags] returns the arithmetic elementwise stable sorting
    permutation of the digit whose bits, least significant first, are the
    packed flag vectors [flags] (one or two of them). The bit conversion
    consumes the packed lanes directly; everything after it is arithmetic
    and stays word-based. *)
let gen_digit (ctx : Ctx.t) (flags : Share.flags array) : Share.shared =
  gen_digit_of ctx (Orq_circuits.Convert.bit_b2a_many ctx flags)
