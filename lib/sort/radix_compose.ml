(** The compose-based radixsort of Asharov et al. (CCS'22), reimplemented as
    in the paper's Appendix B.3 comparison (their codebase is proprietary;
    the paper benchmarks its own reimplementation, as do we).

    Instead of eagerly permuting the working table after every bit, the
    running sorting permutation is kept as an elementwise sharing: each key
    bit is routed through the current permutation, its bit-sorting
    permutation is generated ({!Genbitperm.gen_digit} on one bit), and
    the two are composed. The data moves only once, at the end. This costs
    [composePerms] per bit — fewer bytes for very wide elements, but more
    rounds: under SH-HM [11 l - 6] against the hybrid's 7 per 3 key bits
    with its 3-bit digits ({!Radixsort}). *)

open Orq_proto
module Permops = Orq_shuffle.Permops

(** [sort ctx ~bits ?skip key carry]: same contract as
    {!Radixsort.sort}. Also returns the composed sorting permutation. *)
let sort_with_perm (ctx : Ctx.t) ~bits ?(skip = 0)
    (key : Share.shared) (carry : Share.shared list) :
    (Share.shared * Share.shared list) * Share.shared =
  Share.check_enc Bool key;
  let sigma = ref None in
  for i = skip to skip + bits - 1 do
    let b = Mpc.extract_bit_f key i in
    let b =
      match !sigma with
      | None -> b
      | Some s -> (
          (* the bit travels as a 0/1 column at width 1 *)
          let col = (Share.wrap (Share.unpack_flags b), 1) in
          match Permops.apply_elementwise_table ctx [ col ] s with
          | [ c ] -> Share.pack_flags (Share.unpark c)
          | _ -> assert false)
    in
    let si = Genbitperm.gen_digit ctx [| b |] in
    sigma :=
      Some
        (match !sigma with
        | None -> si
        | Some s -> Permops.compose ctx s si)
  done;
  match !sigma with
  | None -> ((key, carry), Share.public_vec ctx Share.Arith (Orq_shuffle.Localperm.identity (Share.length key)))
  | Some s -> (
      let cols = List.map (fun c -> (Share.wrap c, ctx.ell)) (key :: carry) in
      match
        List.map Share.unpark (Permops.apply_elementwise_table ctx cols s)
      with
      | y :: rest -> ((y, rest), s)
      | [] -> assert false)

let sort ctx ~bits ?skip key carry =
  fst (sort_with_perm ctx ~bits ?skip key carry)
