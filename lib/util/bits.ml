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
    tail), so word-level equality and bit counts are exact. The word array
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
let get t i =
  if i < 0 || i >= t.n then invalid_arg "Bits.get: index out of range";
  (t.w.(i / bpw) lsr (i mod bpw)) land 1

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

let bnot a = mask_tail { a with w = Vec.bnot a.w }

let xor_into dst src =
  check_len "xor_into" dst src;
  Vec.xor_into dst.w src.w

(** a ⊕ b ⊕ c in one pass. *)
let xor3 a b c =
  check_len "xor3" a b;
  check_len "xor3" a c;
  { a with w = Vec.xor3 a.w b.w c.w }

(* ------------------------------------------------------------------ *)
(* Randomness (per word: 63 flags per PRG call)                        *)
(* ------------------------------------------------------------------ *)

(** [random prg n]: n uniform flags from [words_for n] PRG draws — the
    63x-fewer-calls lever behind packed protocol randomness. *)
let random prg n =
  let t = { n; w = Array.init (words_for n) (fun _ -> Prg.word prg) } in
  mask_tail t

(* ------------------------------------------------------------------ *)
(* Concatenation (word-granular: each source word lands in at most two  *)
(* destination words)                                                  *)
(* ------------------------------------------------------------------ *)

(* Or [src]'s flags into [dst] from flag [at] on; the range must be zero
   in [dst]. [src]'s tail is canonical, so the bits shifted past its last
   flag are zero. *)
let blit_bits src dst ~at =
  let base = at / bpw and s = at mod bpw in
  let last = Array.length dst.w - 1 in
  Array.iteri
    (fun wi x ->
      let d = base + wi in
      dst.w.(d) <- dst.w.(d) lor (x lsl s);
      if s > 0 && d < last then
        dst.w.(d + 1) <- dst.w.(d + 1) lor (x lsr (bpw - s)))
    src.w

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
