(** Non-vectorized radixsort baseline, standing in for MP-SPDZ's radixsort
    (Figure 7, Table 11) and SecretFlow's SBK / SBK_valid sorts (Figure 6,
    Table 10).

    The paper attributes its 8.5x-189x speedups over MP-SPDZ to
    data-parallelism: "although MP-SPDZ supports parallelism and advanced
    vectorization, it does not parallelize sorting", and likewise
    "SecretFlow cannot leverage parallelism" (§5.3). This baseline runs the
    same genBitPerm + eager-application algorithm but issues its secure
    operations row by row, so every element conversion and multiplication
    is its own communication round and its own tiny message — exactly the
    execution profile of a non-vectorized engine. [overhead_bits] models
    the per-message framing of a general-purpose VM (MP-SPDZ sends many
    small messages; contributes the bandwidth gap of Table 11). *)

open Orq_proto
module Permops = Orq_shuffle.Permops

let overhead_bits = 128 (* per-message protocol framing *)

(* Per-element bit-to-arithmetic conversion: one opening round per element
   (no batching), plus framing overhead. *)
let bit_b2a_rowwise (ctx : Ctx.t) (b : Share.shared) : Share.shared =
  let n = Share.length b in
  let parts =
    List.init n (fun i ->
        let bi = Share.pack_flags (Share.sub_range b i 1) in
        let r = Orq_circuits.Convert.bit_b2a ctx bi in
        Orq_net.Comm.traffic ctx.comm ~bits:(ctx.parties * overhead_bits)
          ~messages:ctx.parties;
        r)
  in
  Share.concat parts

(* Row-wise genBitPerm: prefix sums stay local, but the destination
   multiplication happens element by element. *)
let gen_bit_perm_rowwise (ctx : Ctx.t) (bit : Share.shared) : Share.shared =
  let b_a = bit_b2a_rowwise ctx bit in
  let f0 = Mpc.add_pub (Mpc.neg b_a) 1 in
  let s0 = Mpc.prefix_sum f0 in
  let s1 = Mpc.prefix_sum b_a in
  let z = Orq_sort.Genbitperm.broadcast_last s0 in
  let t = Share.map3_vectors Orq_util.Vec.add_sub z s1 s0 in
  let n = Share.length bit in
  let iw = Orq_util.Ring.index_bits n in
  let prods =
    List.init n (fun i ->
        let p =
          Mpc.mul ~width:iw ctx (Share.sub_range b_a i 1)
            (Share.sub_range t i 1)
        in
        Orq_net.Comm.traffic ctx.comm ~bits:(ctx.parties * overhead_bits)
          ~messages:ctx.parties;
        p)
  in
  Mpc.add_pub (Mpc.add s0 (Share.concat prods)) (-1)

(** Row-wise hybrid radixsort: same algorithm as {!Orq_sort.Radixsort} with
    per-element round structure. *)
let sort (ctx : Ctx.t) ~bits (key : Share.shared)
    (carry : Share.shared list) : Share.shared * Share.shared list =
  Share.check_enc Bool key;
  let y = ref key and rest = ref carry in
  for i = 0 to bits - 1 do
    let b = Mpc.and_mask (Mpc.rshift !y i) 1 in
    let sigma = gen_bit_perm_rowwise ctx b in
    let cols = List.map (fun c -> (Share.wrap c, ctx.ell)) (!y :: !rest) in
    match
      List.map Share.unpark (Permops.apply_elementwise_table ctx cols sigma)
    with
    | y' :: rest' ->
        y := y';
        rest := rest'
    | [] -> assert false
  done;
  (!y, !rest)
