(** Packed single-bit vectors: one flag per bit, {!Ring.word_bits} (= 63)
    flags per ring word.

    ORQ's operators are dominated by single-bit secret shares — comparison
    outputs, mux select bits, partition bits, radix digits, group-boundary
    bits, join validity flags — which {!Vec} stores one per 63-bit word.
    This module stores them one per *bit*, so bulk GF(2) operations
    ([land]/[lxor]/[lnot]) touch 63 flags per word op and randomness for
    packed protocol lanes is drawn per word rather than per element (the
    classic bitslicing trick of boolean-circuit MPC engines).

    Canonical form: bits at positions [>= n] in the last word are zero.
    Every constructor and operation here preserves that invariant (AND/XOR
    of canonical inputs are canonical; NOT and random fills re-mask the
    tail), so {!popcount} and word-level equality are exact. The word array
    is exposed ({!words}) precisely so the MPC layer can run the fused
    {!Vec} protocol kernels — Beaver recombination, replicated cross terms
    — directly over packed words. *)

type t = { n : int; w : int array }

(** Flags per word. The title trick is "64 flags per word"; on OCaml the
    native ring word has 63 usable bits, so packing is 63-to-1. *)
let bpw = Ring.word_bits

let words_for n = (n + bpw - 1) / bpw

let length t = t.n
let words t = t.w

let create n =
  if n < 0 then invalid_arg "Bits.create: negative length";
  { n; w = Array.make (words_for n) 0 }

(* Re-establish the canonical zero tail after an operation that may set
   bits at positions >= n (NOT, raw word injection, random fill). *)
let mask_tail t =
  let r = t.n mod bpw in
  if r <> 0 then begin
    let last = Array.length t.w - 1 in
    t.w.(last) <- t.w.(last) land Ring.mask r
  end;
  t

(** Wrap a raw word array as an [n]-bit vector (takes ownership; the tail
    of the last word is masked to canonical form). *)
let of_words n w =
  if Array.length w <> words_for n then invalid_arg "Bits.of_words: length";
  mask_tail { n; w }

let copy t = { t with w = Array.copy t.w }
let equal a b = a.n = b.n && a.w = b.w

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Bits.get: index out of range";
  (t.w.(i / bpw) lsr (i mod bpw)) land 1

let set t i b =
  if i < 0 || i >= t.n then invalid_arg "Bits.set: index out of range";
  let wi = i / bpw and m = 1 lsl (i mod bpw) in
  if b land 1 = 0 then t.w.(wi) <- t.w.(wi) land lnot m
  else t.w.(wi) <- t.w.(wi) lor m

(* ------------------------------------------------------------------ *)
(* Pack / unpack                                                       *)
(* ------------------------------------------------------------------ *)

(** Pack the LSB of each element of a word vector. *)
let pack (v : int array) : t =
  let n = Array.length v in
  let t = create n in
  let nw = Array.length t.w in
  for wi = 0 to nw - 1 do
    let base = wi * bpw in
    let hi = min bpw (n - base) in
    let acc = ref 0 in
    for b = 0 to hi - 1 do
      acc := !acc lor ((Array.unsafe_get v (base + b) land 1) lsl b)
    done;
    t.w.(wi) <- !acc
  done;
  t

(** Pack bit [k] of each element — the fused radix-digit extraction
    straight into packed form. *)
let pack_bit (v : int array) k =
  if k < 0 || k >= bpw then invalid_arg "Bits.pack_bit: bit index";
  let n = Array.length v in
  let t = create n in
  let nw = Array.length t.w in
  for wi = 0 to nw - 1 do
    let base = wi * bpw in
    let hi = min bpw (n - base) in
    let acc = ref 0 in
    for b = 0 to hi - 1 do
      acc := !acc lor (((Array.unsafe_get v (base + b) lsr k) land 1) lsl b)
    done;
    t.w.(wi) <- !acc
  done;
  t

(** Unpack to a 0/1 word vector (one element per flag). *)
let unpack t : int array =
  let v = Array.make t.n 0 in
  let nw = Array.length t.w in
  for wi = 0 to nw - 1 do
    let base = wi * bpw in
    let hi = min bpw (t.n - base) in
    let word = Array.unsafe_get t.w wi in
    for b = 0 to hi - 1 do
      Array.unsafe_set v (base + b) ((word lsr b) land 1)
    done
  done;
  v

(** Unpack each flag to a full-word mask (0 or all-ones) — the packed form
    of {!Vec} LSB extension, building mux masks without an intermediate 0/1
    vector. *)
let extend t : int array =
  let v = Array.make t.n 0 in
  let nw = Array.length t.w in
  for wi = 0 to nw - 1 do
    let base = wi * bpw in
    let hi = min bpw (t.n - base) in
    let word = Array.unsafe_get t.w wi in
    for b = 0 to hi - 1 do
      Array.unsafe_set v (base + b) (-((word lsr b) land 1))
    done
  done;
  v

(* ------------------------------------------------------------------ *)
(* Bulk GF(2) operations (63 flags per word op)                        *)
(* ------------------------------------------------------------------ *)

let check_len op a b =
  if a.n <> b.n then
    invalid_arg
      (Printf.sprintf "Bits.%s: length mismatch: %d vs %d" op a.n b.n)

let xor a b =
  check_len "xor" a b;
  { a with w = Vec.xor a.w b.w }

let band a b =
  check_len "band" a b;
  { a with w = Vec.band a.w b.w }

let bor a b =
  check_len "bor" a b;
  { a with w = Vec.bor a.w b.w }

let bnot a = mask_tail { a with w = Vec.bnot a.w }

let xor_into dst src =
  check_len "xor_into" dst src;
  Vec.xor_into dst.w src.w

(** a ⊕ b ⊕ c in one pass. *)
let xor3 a b c =
  check_len "xor3" a b;
  check_len "xor3" a c;
  { a with w = Vec.xor3 a.w b.w c.w }

let popcount t = Array.fold_left (fun acc x -> acc + Ring.popcount x) 0 t.w

(* ------------------------------------------------------------------ *)
(* Randomness (per word: 63 flags per PRG call)                        *)
(* ------------------------------------------------------------------ *)

(** [random prg n]: n uniform flags from [words_for n] PRG draws — the
    63x-fewer-calls lever behind packed protocol randomness. *)
let random prg n =
  let t = { n; w = Array.init (words_for n) (fun _ -> Prg.word prg) } in
  mask_tail t

(* ------------------------------------------------------------------ *)
(* Structural operations (bit-granular; not on the word-op hot path)   *)
(* ------------------------------------------------------------------ *)

let blit_bits src dst ~at =
  for i = 0 to src.n - 1 do
    if (src.w.(i / bpw) lsr (i mod bpw)) land 1 = 1 then set dst (at + i) 1
  done

let append a b =
  let t = create (a.n + b.n) in
  blit_bits a t ~at:0;
  blit_bits b t ~at:a.n;
  t

let concat_many (ts : t array) =
  let total = Array.fold_left (fun acc t -> acc + t.n) 0 ts in
  let out = create total in
  let off = ref 0 in
  Array.iter
    (fun t ->
      blit_bits t out ~at:!off;
      off := !off + t.n)
    ts;
  out

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.n then
    invalid_arg "Bits.sub: range out of bounds";
  let out = create len in
  for i = 0 to len - 1 do
    if (t.w.((pos + i) / bpw) lsr ((pos + i) mod bpw)) land 1 = 1 then
      set out i 1
  done;
  out

(** [gather t idx]: flag [i] of the result is flag [idx.(i)] of [t]. *)
let gather t (idx : int array) =
  if Debug.enabled () then Debug.validate_indices ~op:"Bits.gather" idx t.n;
  let out = create (Array.length idx) in
  Array.iteri
    (fun i j ->
      if (t.w.(j / bpw) lsr (j mod bpw)) land 1 = 1 then set out i 1)
    idx;
  out

(** [scatter t idx]: flag [i] of [t] lands at position [idx.(i)]; [idx]
    must be a permutation (same contract as {!Vec.scatter}). *)
let scatter t (idx : int array) =
  if Debug.enabled () then Debug.validate_perm ~op:"Bits.scatter" idx t.n;
  if Array.length idx <> t.n then invalid_arg "Bits.scatter: length";
  let out = create t.n in
  for i = 0 to t.n - 1 do
    if (t.w.(i / bpw) lsr (i mod bpw)) land 1 = 1 then set out idx.(i) 1
  done;
  out
