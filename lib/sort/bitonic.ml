(** Oblivious bitonic sorting network — the O(n log^2 n) approach used by
    Secrecy and the TEE systems the paper compares against (§6). Kept as a
    baseline: every compare-exchange is a secure comparison plus a
    multiplexed swap, all pairs of a stage batched into one round. Requires
    a power-of-two row count (callers pad with validity-0 rows). Handles
    duplicate keys (sorting networks are comparison-oblivious), but is not
    stable. Keys sort ascending; a caller complements a descending key. *)

open Orq_proto
module Compare = Orq_circuits.Compare
module Mux = Orq_circuits.Mux

(* The first [k] elements of [l] and the rest. *)
let split_at k l = (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)

(** [sort ctx ~keys carry] sorts rows by the composite key of the
    [(column, width)] keys; n must be a power of two. *)
let sort (ctx : Ctx.t) ~(keys : (Share.shared * int) list)
    (carry : Share.shared list) : Share.shared list * Share.shared list =
  let n = Share.length (fst (List.hd keys)) in
  if not (Orq_util.Ring.is_pow2 n) then
    invalid_arg "Bitonic.sort: size must be a power of two";
  let nk = List.length keys in
  let cols = ref (List.map fst keys @ carry) in
  let k = ref 2 in
  while !k <= n do
    let j = ref (!k / 2) in
    while !j >= 1 do
      (* all pairs (i, i lor j) of this stage in one round *)
      let idx_a = ref [] and idx_b = ref [] and flip = ref [] in
      for i = n - 1 downto 0 do
        if i land !j = 0 && i lor !j < n then begin
          idx_a := i :: !idx_a;
          idx_b := (i lor !j) :: !idx_b;
          flip := (if i land !k <> 0 then 1 else 0) :: !flip
        end
      done;
      let idx_a = Array.of_list !idx_a and idx_b = Array.of_list !idx_b in
      let flip = Array.of_list !flip in
      let rows_a = List.map (fun c -> Share.gather c idx_a) !cols in
      let rows_b = List.map (fun c -> Share.gather c idx_b) !cols in
      (* out of order (for an ascending segment) iff b < a under the
         lexicographic comparator *)
      let cmp_operands =
        List.map2
          (fun (_, w) (a, b) -> (b, a, w))
          keys
          (List.combine (fst (split_at nk rows_a)) (fst (split_at nk rows_b)))
      in
      let out_of_order = Compare.lt_lex ctx cmp_operands in
      let swap =
        Mpc.xor_f out_of_order
          (Share.pack_flags (Share.public_vec ctx Share.Bool flip))
      in
      let muxed =
        Mux.mux_b_many ctx swap
          (List.map2 (fun a b -> (a, b)) rows_a rows_b
          @ List.map2 (fun a b -> (a, b)) rows_b rows_a)
      in
      let new_a, new_b = split_at (List.length !cols) muxed in
      cols :=
        List.mapi
          (fun ci c ->
            let c = Share.update_rows c idx_a (List.nth new_a ci) in
            Share.update_rows c idx_b (List.nth new_b ci))
          !cols;
      j := !j / 2
    done;
    k := !k * 2
  done;
  split_at nk !cols
