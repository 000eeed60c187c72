(** Dense vectors of ring words ([int array]) with the bulk operations the
    vectorized MPC layer is built from. All functions allocate fresh outputs
    unless suffixed [_into] or documented as in-place.

    Elementwise kernels are written as direct loops over preallocated
    outputs — no per-element closure call — and dispatch to the persistent
    domain pool ({!Parallel}) when the input clears the chunk threshold.
    The fused kernels ([beaver_arith], [rep3_arith_into], [mul_add_into],
    …) cover exactly the compositions the MPC hot path executes, so a
    secure multiplication performs O(1) allocations per share vector
    instead of one per intermediate. *)

type t = int array

let length = Array.length
let make n x : t = Array.make n x
let zeros n : t = Array.make n 0
let copy = Array.copy

let check2 (a : t) (b : t) =
  if Array.length b <> Array.length a then
    invalid_arg "Vec: length mismatch"

let check3 (a : t) (b : t) (c : t) =
  let n = Array.length a in
  if Array.length b <> n || Array.length c <> n then
    invalid_arg "Vec: length mismatch"

(* Generic maps (parallel over spans). Hot paths prefer the specialized
   kernels below, which avoid the per-element closure call. *)
let map f (a : t) : t =
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (f (Array.unsafe_get a i))
      done);
  out

(* Ring (mod 2^63) elementwise operations — specialized loops. *)

let add (a : t) (b : t) : t =
  check2 a b;
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (Array.unsafe_get a i + Array.unsafe_get b i)
      done);
  out

let sub (a : t) (b : t) : t =
  check2 a b;
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (Array.unsafe_get a i - Array.unsafe_get b i)
      done);
  out

let mul (a : t) (b : t) : t =
  check2 a b;
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (Array.unsafe_get a i * Array.unsafe_get b i)
      done);
  out

let neg (a : t) : t =
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (-Array.unsafe_get a i)
      done);
  out

let add_scalar (a : t) (s : int) : t =
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (Array.unsafe_get a i + s)
      done);
  out

let mul_scalar (a : t) (s : int) : t =
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (Array.unsafe_get a i * s)
      done);
  out

(* Bitwise elementwise operations. *)

let xor (a : t) (b : t) : t =
  check2 a b;
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get a i lxor Array.unsafe_get b i)
      done);
  out

let band (a : t) (b : t) : t =
  check2 a b;
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get a i land Array.unsafe_get b i)
      done);
  out

let bnot (a : t) : t =
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (lnot (Array.unsafe_get a i))
      done);
  out

let xor_scalar (a : t) (s : int) : t =
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (Array.unsafe_get a i lxor s)
      done);
  out

let and_scalar (a : t) (s : int) : t =
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (Array.unsafe_get a i land s)
      done);
  out

let shift_left (a : t) k : t =
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i (Array.unsafe_get a i lsl k)
      done);
  out

(* logical right shift within the 63-bit word *)
let shift_right (a : t) k : t =
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i ((Array.unsafe_get a i land Ring.ones) lsr k)
      done);
  out

(** [spread a ~src ~span]: every bit of [a] at a [src] position copied
    to the [span] positions above it, all else cleared — the Sklansky
    block-top broadcast. [src] positions must be at least [2·span] apart,
    so one multiplication by 2 + 4 + … + 2^span makes every copy without
    a carry (GF(2)-linear: it applies share by share). Copies past the
    top of the word are dropped. *)
let spread (a : t) ~src ~span : t =
  let m = (1 lsl (span + 1)) - 2 in
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i ((Array.unsafe_get a i land src) * m)
      done);
  out

(* ------------------------------------------------------------------ *)
(* In-place / accumulating kernels                                     *)
(* ------------------------------------------------------------------ *)

let add_into (dst : t) (a : t) =
  check2 dst a;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set dst i (Array.unsafe_get dst i + Array.unsafe_get a i)
      done)

let sub_into (dst : t) (a : t) =
  check2 dst a;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set dst i (Array.unsafe_get dst i - Array.unsafe_get a i)
      done)

let xor_into (dst : t) (a : t) =
  check2 dst a;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set dst i
          (Array.unsafe_get dst i lxor Array.unsafe_get a i)
      done)

(** [xor_mask_into dst a m]: dst <- (dst ^ a) land m, one pass. *)
let xor_mask_into (dst : t) (a : t) m =
  check2 dst a;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set dst i
          ((Array.unsafe_get dst i lxor Array.unsafe_get a i) land m)
      done)

(** [mul_add_into dst a b]: dst += a * b, one pass, no allocation. *)
let mul_add_into (dst : t) (a : t) (b : t) =
  check3 dst a b;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set dst i
          (Array.unsafe_get dst i
          + (Array.unsafe_get a i * Array.unsafe_get b i))
      done)

(** [xor_band_into dst a b]: dst ^= a ∧ b — the GF(2) twin of
    {!mul_add_into}. *)
let xor_band_into (dst : t) (a : t) (b : t) =
  check3 dst a b;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set dst i
          (Array.unsafe_get dst i
          lxor (Array.unsafe_get a i land Array.unsafe_get b i))
      done)

(** [sub_acc_into dst a b]: dst += a - b. Folds one share vector of an
    opened difference (Beaver's d = x - a) into the accumulator in a
    single pass. *)
let sub_acc_into (dst : t) (a : t) (b : t) =
  check3 dst a b;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set dst i
          (Array.unsafe_get dst i + Array.unsafe_get a i
          - Array.unsafe_get b i)
      done)

(** [xor_acc_into dst a b]: dst ^= a ^ b. *)
let xor_acc_into (dst : t) (a : t) (b : t) =
  check3 dst a b;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set dst i
          (Array.unsafe_get dst i lxor Array.unsafe_get a i
          lxor Array.unsafe_get b i)
      done)

(* ------------------------------------------------------------------ *)
(* Fused protocol kernels                                              *)
(* ------------------------------------------------------------------ *)

(** [xor3 a b c] = a ⊕ b ⊕ c in one pass (the local recombination of
    [bor]: x ⊕ y ⊕ (x ∧ y)). *)
let xor3 (a : t) (b : t) (c : t) : t =
  check3 a b c;
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get a i lxor Array.unsafe_get b i
          lxor Array.unsafe_get c i)
      done);
  out

(** [add_sub a b c] = a + b - c in one pass (genBitPerm's Z + s1 - s0). *)
let add_sub (a : t) (b : t) (c : t) : t =
  check3 a b c;
  let n = Array.length a in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get a i + Array.unsafe_get b i - Array.unsafe_get c i)
      done);
  out

(** Fused Beaver recombination, arithmetic:
    out = tc + d·tb + e·ta (+ d·e when [with_de]) — one pass, one
    allocation, versus four to six intermediates in the unfused chain. *)
let beaver_arith ~(tc : t) ~(d : t) ~(tb : t) ~(e : t) ~(ta : t) ~with_de : t =
  check3 tc d tb;
  check3 tc e ta;
  let n = Array.length tc in
  let out = Array.make n 0 in
  if with_de then
    Parallel.run_spans n (fun pos len ->
        for i = pos to pos + len - 1 do
          let di = Array.unsafe_get d i and ei = Array.unsafe_get e i in
          Array.unsafe_set out i
            (Array.unsafe_get tc i
            + (di * Array.unsafe_get tb i)
            + (ei * Array.unsafe_get ta i)
            + (di * ei))
        done)
  else
    Parallel.run_spans n (fun pos len ->
        for i = pos to pos + len - 1 do
          Array.unsafe_set out i
            (Array.unsafe_get tc i
            + (Array.unsafe_get d i * Array.unsafe_get tb i)
            + (Array.unsafe_get e i * Array.unsafe_get ta i))
        done);
  out

(** Fused Beaver recombination over GF(2):
    out = tc ⊕ (d ∧ tb) ⊕ (e ∧ ta) (⊕ d ∧ e when [with_de]). *)
let beaver_bool ~(tc : t) ~(d : t) ~(tb : t) ~(e : t) ~(ta : t) ~with_de : t =
  check3 tc d tb;
  check3 tc e ta;
  let n = Array.length tc in
  let out = Array.make n 0 in
  if with_de then
    Parallel.run_spans n (fun pos len ->
        for i = pos to pos + len - 1 do
          let di = Array.unsafe_get d i and ei = Array.unsafe_get e i in
          Array.unsafe_set out i
            (Array.unsafe_get tc i
            lxor (di land Array.unsafe_get tb i)
            lxor (ei land Array.unsafe_get ta i)
            lxor (di land ei))
        done)
  else
    Parallel.run_spans n (fun pos len ->
        for i = pos to pos + len - 1 do
          Array.unsafe_set out i
            (Array.unsafe_get tc i
            lxor (Array.unsafe_get d i land Array.unsafe_get tb i)
            lxor (Array.unsafe_get e i land Array.unsafe_get ta i))
        done);
  out

(** Fused replicated-3PC cross-term accumulation, arithmetic:
    dst += xi·yi + xi·yj + xj·yi — the whole local work of Araki et al.
    multiplication for one party, one pass, zero allocations. *)
let rep3_arith_into (dst : t) ~(xi : t) ~(yi : t) ~(xj : t) ~(yj : t) =
  check3 dst xi yi;
  check3 dst xj yj;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        let x = Array.unsafe_get xi i
        and x' = Array.unsafe_get xj i
        and y = Array.unsafe_get yi i
        and y' = Array.unsafe_get yj i in
        Array.unsafe_set dst i
          (Array.unsafe_get dst i + (x * (y + y')) + (x' * y))
      done)

(** GF(2) twin: dst ^= (xi ∧ yi) ⊕ (xi ∧ yj) ⊕ (xj ∧ yi). *)
let rep3_bool_into (dst : t) ~(xi : t) ~(yi : t) ~(xj : t) ~(yj : t) =
  check3 dst xi yi;
  check3 dst xj yj;
  Parallel.run_spans (Array.length dst) (fun pos len ->
      for i = pos to pos + len - 1 do
        let x = Array.unsafe_get xi i
        and x' = Array.unsafe_get xj i
        and y = Array.unsafe_get yi i
        and y' = Array.unsafe_get yj i in
        Array.unsafe_set dst i
          (Array.unsafe_get dst i lxor (x land (y lxor y')) lxor (x' land y))
      done)

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)
(* ------------------------------------------------------------------ *)

let sum (a : t) =
  let n = Array.length a in
  let d = Parallel.get_num_domains () in
  let mc = Parallel.get_min_chunk () in
  if d <= 1 || n < d * mc then Array.fold_left ( + ) 0 a
  else begin
    let spans = Array.of_list (Parallel.chunks n d) in
    let partial = Array.make (Array.length spans) 0 in
    Parallel.run_tasks (Array.length spans) (fun t ->
        let pos, len = spans.(t) in
        let acc = ref 0 in
        for i = pos to pos + len - 1 do
          acc := !acc + Array.unsafe_get a i
        done;
        partial.(t) <- !acc);
    Array.fold_left ( + ) 0 partial
  end

(** In-place running (inclusive) prefix sum in the ring; linear local work.
    Additive secret sharing commutes with prefix sums, which is what makes
    the paper's [genBitPerm] destinations computable locally. Parallel via
    a blocked two-pass scan (local scans, sequential span-total scan, then
    offset add) — ring addition wraps associatively so the blocked result
    is bit-identical to the sequential one. *)
let prefix_sum_inplace (a : t) =
  let n = Array.length a in
  let d = Parallel.get_num_domains () in
  let mc = Parallel.get_min_chunk () in
  if d <= 1 || n < d * mc then
    for i = 1 to n - 1 do
      a.(i) <- a.(i) + a.(i - 1)
    done
  else begin
    let spans = Array.of_list (Parallel.chunks n d) in
    let k = Array.length spans in
    Parallel.run_tasks k (fun t ->
        let pos, len = spans.(t) in
        for i = pos + 1 to pos + len - 1 do
          Array.unsafe_set a i (Array.unsafe_get a i + Array.unsafe_get a (i - 1))
        done);
    let offset = Array.make k 0 in
    for t = 1 to k - 1 do
      let pos, len = spans.(t - 1) in
      offset.(t) <- offset.(t - 1) + a.(pos + len - 1)
    done;
    Parallel.run_tasks k (fun t ->
        let off = offset.(t) in
        if off <> 0 then begin
          let pos, len = spans.(t) in
          for i = pos to pos + len - 1 do
            Array.unsafe_set a i (Array.unsafe_get a i + off)
          done
        end)
  end

let prefix_sum (a : t) : t =
  let b = copy a in
  prefix_sum_inplace b;
  b

(** [concat2 a b] serves the batched-round pattern: two independent
    secure operations are packed into one vector so they cost a single
    communication round. *)
let concat2 (a : t) (b : t) : t = Array.append a b

(** n-way generalization of {!concat2}: one offset-table pass, one output
    allocation, per-lane blits dispatched to the domain pool (each lane
    writes a disjoint output range). *)
let concat_many (vs : t array) : t =
  let k = Array.length vs in
  if k = 0 then [||]
  else if k = 1 then Array.copy vs.(0)
  else begin
    let offs = Array.make k 0 in
    let total = ref 0 in
    for i = 0 to k - 1 do
      offs.(i) <- !total;
      total := !total + Array.length vs.(i)
    done;
    let out = Array.make !total 0 in
    Parallel.run_tasks k (fun i ->
        Array.blit vs.(i) 0 out offs.(i) (Array.length vs.(i)));
    out
  end

(** [gather a idx] builds [|a.(idx.(0)); a.(idx.(1)); ...|]; reads may
    repeat, so each worker only needs read access plus its disjoint output
    span. *)
let gather (a : t) (idx : int array) : t =
  if Debug.enabled () then
    Debug.validate_indices ~op:"Vec.gather" idx (Array.length a);
  let n = Array.length idx in
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        Array.unsafe_set out i a.(Array.unsafe_get idx i)
      done);
  out

(** [scatter a idx] places [a.(i)] at position [idx.(i)] of the result;
    [idx] must be a permutation (validated when {!Debug.set_checks} is on —
    a duplicated destination otherwise drops an element silently). Workers
    get full write access to the output: a permutation writes every slot
    exactly once (Appendix A.2). *)
let scatter (a : t) (idx : int array) : t =
  let n = Array.length a in
  if Debug.enabled () then Debug.validate_perm ~op:"Vec.scatter" idx n;
  let out = Array.make n 0 in
  Parallel.run_spans n (fun pos len ->
      for i = pos to pos + len - 1 do
        out.(Array.unsafe_get idx i) <- Array.unsafe_get a i
      done);
  out

let sub_range (a : t) pos len : t = Array.sub a pos len
