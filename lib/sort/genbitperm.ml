(** [genBitPerm] (Asharov et al., used by both radixsort variants),
    generalised to L-bit digits: given a secret digit vector, compute the
    elementwise sharing of its *stable* sorting permutation — rows ordered
    by digit value, original order preserved within each value.

    With the one-hot digit e_0..e_{2^L-1}, the running counts
    s_d = prefix_sum e_d, the class offsets C_d = N_0 + ... + N_{d-1}
    (N_d the total count of digit d) and t_d = C_d + s_d, the destination
    of element i is

      dest_i = t_0,i + sum_{d >= 1} e_d,i * (t_d,i - t_0,i) - 1.

    Prefix sums and offsets are linear (local on additive shares): t_d
    is the running sum of e_d started from C_d, the last element of
    t_(d-1), so each offset is one scalar per share vector. The
    interactive steps are one fused bit conversion of the L bits, the
    one-hot digit's monomials of degree 2 .. L (one round per degree), and
    the sum as one inner product ({!Mpc.dot}): 2 rounds for a bit, 3 for
    a 2-bit digit, 4 for a 3-bit one. At L = 1 this is genBitPerm
    exactly, dest_i = (s0_i - 1) + b_i * (Z + s1_i - s0_i). *)

open Orq_proto

(* Broadcast the last element of a sharing to every position (linear);
   an empty sharing stays empty. *)
let broadcast_last (s : Share.shared) =
  Share.map_vectors
    (fun vk ->
      let n = Array.length vk in
      if n = 0 then vk else Array.make n vk.(n - 1))
    s

(* The one-hot digit e_0 .. e_{2^L - 1} of the 0/1 bits [a] (least
   significant first), every product at [width] bits. The monomials
   m_u = prod_{i in u} a_i come one fused round per degree 2 .. L, each
   m_u = m_{u - top} * a_top; then e_v = sum_{u >= v} (-1)^{|u - v|} m_u,
   the Möbius transform over supersets: L 2^{L-1} local subtractions,
   in place on the monomials the transform made (the constant and the
   products; a bit [a_i] is copied by its first subtraction). *)
let one_hot (ctx : Ctx.t) ~width (a : Share.shared array) : Share.shared array =
  let l = Array.length a in
  let m = Array.make (1 lsl l) (Share.public ctx Share.Arith (Share.length a.(0)) 1) in
  let owned = Array.init (1 lsl l) (fun u -> Orq_util.Ring.popcount u <> 1) in
  Array.iteri (fun i ai -> m.(1 lsl i) <- ai) a;
  (* the highest set bit of u >= 1 *)
  let top_bit u = Orq_util.Ring.log2_ceil (u + 1) - 1 in
  for deg = 2 to l do
    let us =
      Array.of_list
        (List.filter (fun u -> Orq_util.Ring.popcount u = deg) (List.init (1 lsl l) Fun.id))
    in
    let prods =
      Mpc.mul_many ~widths:(Array.map (fun _ -> width) us) ctx
        (Array.map (fun u -> m.(u lxor (1 lsl top_bit u))) us)
        (Array.map (fun u -> a.(top_bit u)) us)
    in
    Array.iteri (fun k u -> m.(u) <- prods.(k)) us
  done;
  for i = 0 to l - 1 do
    for v = 0 to (1 lsl l) - 1 do
      if v land (1 lsl i) = 0 then begin
        let sup = m.(v lor (1 lsl i)) in
        if owned.(v) then
          Array.iter2 Orq_util.Vec.sub_into m.(v).Share.v sup.Share.v
        else begin
          m.(v) <- Mpc.sub m.(v) sup;
          owned.(v) <- true
        end
      end
    done
  done;
  m

let check_width l =
  if l < 1 || l > 3 then
    invalid_arg "Genbitperm.gen_digit: digits are 1, 2 or 3 bits"

(** [gen_digit_of ctx bits] is {!gen_digit} from the digit's bits already
    converted to 0/1 arithmetic sharings ([bits], least significant
    first): the one-hot products and the ranking inner product, so a
    caller that needs the converted bit elsewhere pays its conversion
    once. *)
let gen_digit_of (ctx : Ctx.t) (bits : Share.shared array) : Share.shared =
  check_width (Array.length bits);
  (* The ranking multiplications run modulo 2^k, k = index_bits n. The
     formula is a polynomial in the digit's bits, and reduction modulo
     2^k is a ring homomorphism, so the result is dest_i mod 2^k — exactly
     dest_i, which lies in [0, n - 1] with n <= 2^k. Intermediate values
     (a difference t_d - t_0 may be negative) need not fit. *)
  let k_bits = Orq_util.Ring.index_bits (Share.length bits.(0)) in
  let e = one_hot ctx ~width:k_bits bits in
  let k = Array.length e - 1 in
  (* t_d = C_d + s_d: the running sum of e_d from C_d, which is the last
     element of t_(d-1) (C_0 = 0), one scalar per share vector *)
  let t = Array.make (k + 1) (Mpc.prefix_sum e.(0)) in
  for d = 1 to k do
    t.(d) <-
      Share.map2_vectors
        (fun prev ed ->
          let n = Array.length prev in
          Orq_util.Vec.prefix_sum ~init:(if n = 0 then 0 else prev.(n - 1)) ed)
        t.(d - 1) e.(d)
  done;
  (* t_d - t_0, in place *)
  for d = 1 to k do
    Array.iter2 Orq_util.Vec.sub_into t.(d).Share.v t.(0).Share.v
  done;
  Mpc.add_pub
    (Mpc.add t.(0) (Mpc.dot ~width:k_bits ctx (Array.sub e 1 k) (Array.sub t 1 k)))
    (-1)

(** [gen_digit ctx flags] returns the arithmetic elementwise stable sorting
    permutation of the digit whose bits, least significant first, are the
    packed flag vectors [flags] (one to three of them). The bits convert
    as one lane of their concatenated flags (one opening, and under
    Mal-HM one set of digests, for the whole digit); everything after it
    is arithmetic and stays word-based. *)
let gen_digit (ctx : Ctx.t) (flags : Share.flags array) : Share.shared =
  let l = Array.length flags in
  check_width l;
  Array.iter (Share.check_same_flags_len flags.(0)) flags;
  let n = Share.flags_length flags.(0) in
  let a = Orq_circuits.Convert.bit_b2a ctx (Share.flags_concat_many flags) in
  gen_digit_of ctx (Array.init l (fun j -> Share.sub_range a (j * n) n))
