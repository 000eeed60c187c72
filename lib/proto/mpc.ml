(** Black-box MPC functionalities (§2.4): vectorized [+], [-], [×], [⊕],
    [∧], constants, and metered opening, instantiated for the three
    supported protocols. Everything above this module — circuits, shuffling,
    sorting, relational operators — uses only these functions, which is what
    makes ORQ protocol-agnostic.

    Metering conventions: [bits] counts traffic summed over all parties;
    every interactive primitive takes an optional [?width] (default
    [ctx.ell]) giving the logical bit width of the elements involved, so
    that e.g. an AND of single-bit validity flags is charged 1 bit per
    element rather than a full word. *)

open Orq_util
module Comm = Orq_net.Comm

type shared = Share.shared

(* Per-lane metering of a fused round: lane 0 opens the round, the other
   lanes piggyback their traffic on it, so bits/messages equal the sum of
   the per-lane charges of separate rounds exactly. *)
let meter_lane (ctx : Ctx.t) i ~bits ~messages =
  if i = 0 then Comm.round ctx.comm ~bits ~messages
  else Comm.traffic ctx.comm ~bits ~messages

(* ------------------------------------------------------------------ *)
(* Parallel round tracks                                               *)
(* ------------------------------------------------------------------ *)

(** Parallel tracks with their online rounds merged ({!Orq_net.Comm.fuse}):
    the caller asserts no thunk reads another's result. *)
let fuse_rounds (ctx : Ctx.t) thunks = Comm.fuse ctx.Ctx.comm thunks

(* ------------------------------------------------------------------ *)
(* Input / constants (data-owner side; unmetered)                      *)
(* ------------------------------------------------------------------ *)

let share_a ctx x = Share.share ctx Arith x
let share_b ctx x = Share.share ctx Bool x

(* ------------------------------------------------------------------ *)
(* Local linear operations                                             *)
(* ------------------------------------------------------------------ *)

let add a b =
  Share.check_enc Arith a;
  Share.map2_vectors Vec.add a b

let sub a b =
  Share.check_enc Arith a;
  Share.map2_vectors Vec.sub a b

let neg a =
  Share.check_enc Arith a;
  Share.map_vectors Vec.neg a

(** Add a public constant: affects a single share vector so the sum moves
    by exactly the constant. *)
let add_pub a c =
  Share.check_enc Arith a;
  { a with Share.v = Array.mapi (fun k vk -> if k = 0 then Vec.add_scalar vk c else Vec.copy vk) a.Share.v }

let add_pub_vec a (c : Vec.t) =
  Share.check_enc Arith a;
  { a with Share.v = Array.mapi (fun k vk -> if k = 0 then Vec.add vk c else Vec.copy vk) a.Share.v }

(** Multiply by a public constant: scales every share vector (linear). *)
let mul_pub a c =
  Share.check_enc Arith a;
  Share.map_vectors (fun vk -> Vec.mul_scalar vk c) a

let mul_pub_vec a (c : Vec.t) =
  Share.check_enc Arith a;
  Share.map_vectors (fun vk -> Vec.mul vk c) a

let xor a b =
  Share.check_enc Bool a;
  Share.map2_vectors Vec.xor a b

let xor_pub a c =
  Share.check_enc Bool a;
  { a with Share.v = Array.mapi (fun k vk -> if k = 0 then Vec.xor_scalar vk c else Vec.copy vk) a.Share.v }

let xor_pub_vec a (c : Vec.t) =
  Share.check_enc Bool a;
  { a with Share.v = Array.mapi (fun k vk -> if k = 0 then Vec.xor vk c else Vec.copy vk) a.Share.v }

(** Bitwise AND with a public mask (linear over GF(2)). *)
let and_mask a m =
  Share.check_enc Bool a;
  Share.map_vectors (fun vk -> Vec.and_scalar vk m) a

let and_mask_vec a (m : Vec.t) =
  Share.check_enc Bool a;
  Share.map_vectors (fun vk -> Vec.band vk m) a

let lshift a k =
  Share.check_enc Bool a;
  Share.map_vectors (fun vk -> Vec.shift_left vk k) a

let rshift a k =
  Share.check_enc Bool a;
  Share.map_vectors (fun vk -> Vec.shift_right vk k) a

(** Bitwise NOT over the full word (circuits mask to their logical width). *)
let bnot a = xor_pub a Ring.ones

(* ------------------------------------------------------------------ *)
(* Opening (reveal to all computing parties)                           *)
(* ------------------------------------------------------------------ *)

(* One lane's opening charge: value traffic per protocol, plus (Mal-HM)
   one [Primcost.hash_bits]-bit digest per reconstructed vector and the
   redundant-delivery check: a tampering sender is caught because the
   verifier party's digest of the true share vector cannot match. *)
let meter_open_lane (ctx : Ctx.t) i ~w ~n =
  match ctx.kind with
  | Sh_dm -> meter_lane ctx i ~bits:(2 * w * n) ~messages:2
  | Sh_hm -> meter_lane ctx i ~bits:(3 * w * n) ~messages:3
  | Mal_hm ->
      meter_lane ctx i ~bits:(4 * ((w * n) + Primcost.hash_bits)) ~messages:8;
      for p = 0 to ctx.parties - 1 do
        if Ctx.tamper_delta ctx ~party:p ~op:"open" <> 0 then
          raise (Ctx.Abort "open: share/hash mismatch detected")
      done

(* Each lane of a fused call is metered at an explicit (width, element
   count): a word lane at its declared width over its length, a packed
   flag lane ({!flag_lane}) at width 1 over its flag count. *)
let word_lanes ?widths w0 (xs : shared array) =
  Array.mapi
    (fun i x ->
      ((match widths with Some ws -> ws.(i) | None -> w0), Share.length x))
    xs

(* The one opening core: reconstruct every lane, then meter them as one
   fused round. *)
let open_lanes (ctx : Ctx.t) lanes (ss : shared array) : Vec.t array =
  let outs = Array.map Share.reconstruct ss in
  Array.iteri (fun i (w, n) -> meter_open_lane ctx i ~w ~n) lanes;
  outs

(** Open several independent shared vectors in one fused round (each lane
    keeps its own width charge). Under [Mal_hm] every reconstructed vector
    is delivered redundantly (value + digest from distinct parties); an
    injected corruption of a sender therefore raises {!Ctx.Abort}. *)
let open_many ?widths (ctx : Ctx.t) (ss : shared array) : Vec.t array =
  (match widths with
  | Some ws when Array.length ws <> Array.length ss ->
      invalid_arg "Mpc.open_many: widths length"
  | _ -> ());
  open_lanes ctx (word_lanes ?widths ctx.ell ss) ss

(** Open a shared vector to all parties: a one-lane {!open_many}. *)
let open_ ?width (ctx : Ctx.t) (s : shared) : Vec.t =
  let w = Option.value width ~default:ctx.ell in
  (open_lanes ctx [| (w, Share.length s) |] [| s |]).(0)

(* ------------------------------------------------------------------ *)
(* Multiplication / AND                                                *)
(*                                                                     *)
(* One core per protocol runs k independent multiplications as one      *)
(* metered round; the single-operand entry points are its one-lane      *)
(* calls. Dealer correlations (and zero-sharing randomness) are drawn   *)
(* per lane in lane order — exactly the stream k separate calls         *)
(* consume. The honest-majority cores accumulate each lane into its own *)
(* fresh zero sharing, so no lane is copied; 2PC Beaver packs the lanes *)
(* with {!Share.concat_many} to open one masked difference (a lone lane *)
(* is not copied). Metering is per lane ({!meter_lane}) at the lane's   *)
(* (width, element count), so bits and messages are the sum of the      *)
(* per-lane charges and the round count is one.                         *)
(* ------------------------------------------------------------------ *)

(* Zero sharing: alpha_k = r_k (-|xor) r_{k+1 mod nvec}, so the alphas sum
   (or xor) to zero. In the real protocols these come from pairwise PRG
   seeds; the lockstep simulation draws them from the session PRG — in the
   same order as before the in-place rewrite, so PRG streams are unchanged.
   The combination is computed in place over the PRG vectors (plus one
   saved copy of r_0 for the wrap-around term): nvec + 1 allocations
   instead of 2·nvec. *)
let zero_sharing (ctx : Ctx.t) (enc : Share.enc) n =
  let r = Array.init ctx.nvec (fun _ -> Prg.words ctx.prg n) in
  let r0 = Vec.copy r.(0) in
  for k = 0 to ctx.nvec - 1 do
    let r' = if k = ctx.nvec - 1 then r0 else r.(k + 1) in
    match enc with
    | Arith -> Vec.sub_into r.(k) r'
    | Bool -> Vec.xor_into r.(k) r'
  done;
  r

(* Opened difference d = x - t (Arith) or x ⊕ t (Bool) without
   materializing the intermediate sharing — in Beaver the masked
   difference is only ever reconstructed, so fold the per-vector
   differences straight into the opened accumulator: one allocation
   instead of nvec + 1. *)
let open_diff (enc : Share.enc) (x : shared) (t : shared) : Vec.t =
  let n = Share.length x in
  let out = Vec.zeros n in
  for k = 0 to Array.length x.Share.v - 1 do
    match enc with
    | Arith -> Vec.sub_acc_into out x.Share.v.(k) t.Share.v.(k)
    | Bool -> Vec.xor_acc_into out x.Share.v.(k) t.Share.v.(k)
  done;
  out

(* Cut the packed result back into lanes of the operands' lengths; a lone
   lane is returned as is. *)
let split_lanes (s : shared) (xs : shared array) =
  if Array.length xs = 1 then [| s |]
  else Share.split_many s (Array.map Share.length xs)

(* 2PC Beaver multiplication: open d = x - a and e = y - b (one batched
   round), then z = c + d*b + e*a + d*e with the public d*e folded into one
   share vector. The boolean case is identical over GF(2). Recombination is
   the fused one-pass {!Vec.beaver_arith}/{!Vec.beaver_bool} kernel: the
   whole multiplication allocates d, e and the nvec result vectors. *)
let beaver_lanes (ctx : Ctx.t) enc lanes (xs : shared array)
    (ys : shared array) : shared array =
  let triples =
    Array.mapi
      (fun i x -> Dealer.beaver ctx enc ~elems:(snd lanes.(i)) (Share.length x))
      xs
  in
  (* both openings batched: each party sends both its shares *)
  Array.iteri
    (fun i (w, n) -> meter_lane ctx i ~bits:(2 * 2 * w * n) ~messages:2)
    lanes;
  let ta = Share.concat_many (Array.map (fun t -> t.Dealer.ta) triples) in
  let tb = Share.concat_many (Array.map (fun t -> t.Dealer.tb) triples) in
  let tc = Share.concat_many (Array.map (fun t -> t.Dealer.tc) triples) in
  let d = open_diff enc (Share.concat_many xs) ta
  and e = open_diff enc (Share.concat_many ys) tb in
  let v =
    Array.init ctx.nvec (fun k ->
        let with_de = k = 0 in
        match (enc : Share.enc) with
        | Arith ->
            Vec.beaver_arith ~tc:tc.Share.v.(k) ~d ~tb:tb.Share.v.(k) ~e
              ~ta:ta.Share.v.(k) ~with_de
        | Bool ->
            Vec.beaver_bool ~tc:tc.Share.v.(k) ~d ~tb:tb.Share.v.(k) ~e
              ~ta:ta.Share.v.(k) ~with_de)
  in
  split_lanes { Share.enc; v } xs

(* 3PC replicated multiplication (Araki et al.): party i computes
   z_i = x_i y_i + x_i y_{i+1} + x_{i+1} y_i + alpha_i and sends it to its
   neighbour to restore replication: one round, one ring element per party.
   Each [(alpha, x, y)] of [terms] accumulates its cross terms directly
   into its (freshly generated) alpha vectors by the fused
   {!Vec.rep3_arith_into} kernel — no per-term intermediates. Terms that
   share one alpha are summed before the one reshare ({!dot}). *)
let rep3_into enc terms =
  Array.iter
    (fun ((alpha : Vec.t array), (xv : Vec.t array), (yv : Vec.t array)) ->
      for i = 0 to 2 do
        let j = (i + 1) mod 3 in
        match (enc : Share.enc) with
        | Arith ->
            Vec.rep3_arith_into alpha.(i) ~xi:xv.(i) ~yi:yv.(i) ~xj:xv.(j)
              ~yj:yv.(j)
        | Bool ->
            Vec.rep3_bool_into alpha.(i) ~xi:xv.(i) ~yi:yv.(i) ~xj:xv.(j)
              ~yj:yv.(j)
      done)
    terms

(* 4PC Fantastic-Four-style multiplication. Each cross term x_i y_j is
   computable by the >= 2 parties holding both shares (everyone except
   parties i and j); the lowest-index eligible party contributes it and
   the next one verifies it (value vs digest), so a corrupted contribution
   aborts. Every [(alpha, x, y)] of [terms] accumulates its contribution
   straight into the assignee's vector of its fresh zero sharing via the
   fused multiply-accumulate kernels: no per-term intermediates, one
   verification per cross term whatever the number of terms. *)
let rep4_into (ctx : Ctx.t) enc terms =
  for i = 0 to 3 do
    for j = 0 to 3 do
      let eligible = List.filter (fun p -> p <> i && p <> j) [ 0; 1; 2; 3 ] in
      match eligible with
      | assignee :: _verifier :: _ ->
          if Ctx.tamper_delta ctx ~party:assignee ~op:"mul" <> 0 then
            raise (Ctx.Abort "mul: cross-term verification failed");
          Array.iter
            (fun ((alpha : Vec.t array), (xv : Vec.t array), (yv : Vec.t array)) ->
              match (enc : Share.enc) with
              | Arith -> Vec.mul_add_into alpha.(assignee) xv.(i) yv.(j)
              | Bool -> Vec.xor_band_into alpha.(assignee) xv.(i) yv.(j))
            terms
      | _ -> assert false
    done
  done

(* An honest-majority multiplication: the cross terms of every
   [(alpha, x, y)] in [terms] summed into its alpha before the one
   reshare, then each lane metered at its (width, element count): 3PC
   sends each z_i to one neighbour, 4PC 3 ring elements per party per
   multiplication (consistent with the paper's Table 7 Mal-HM/SH-HM
   bandwidth ratio). *)
let hm_product (ctx : Ctx.t) enc terms lanes =
  let per_bit, messages =
    match ctx.kind with
    | Ctx.Sh_hm ->
        rep3_into enc terms;
        (3, 3)
    | Ctx.Mal_hm ->
        rep4_into ctx enc terms;
        (4 * 3, 12)
    | Ctx.Sh_dm -> invalid_arg "Mpc.hm_product: SH-DM"
  in
  Array.iteri
    (fun i (w, n) -> meter_lane ctx i ~bits:(per_bit * w * n) ~messages)
    lanes

(* The protocol's core over lanes metered at [lanes]; no lanes, no round. *)
let mul_lanes (ctx : Ctx.t) enc lanes (xs : shared array) (ys : shared array) =
  if Array.length xs = 0 then [||]
  else
    match ctx.kind with
    | Ctx.Sh_dm -> beaver_lanes ctx enc lanes xs ys
    | Ctx.Sh_hm | Ctx.Mal_hm ->
        let alphas = Array.map (fun x -> zero_sharing ctx enc (Share.length x)) xs in
        hm_product ctx enc
          (Array.mapi (fun i a -> (a, xs.(i).Share.v, ys.(i).Share.v)) alphas)
          lanes;
        Array.map (fun v -> { Share.enc; v }) alphas

(* Debug-mode width-sanity check: an interactive primitive whose width
   defaulted to ell while both operands reconstruct to single-bit vectors
   almost certainly means a missing [?width] at the call site — the
   modeled traffic would be overcharged ~64x. Requires n >= 8 and at
   least one set bit on each side so small or degenerate vectors (e.g. an
   all-invalid mask ANDed with data) cannot trip it. Reconstruction makes
   this O(nvec * n), so it runs only under {!Debug.set_checks}. *)
let check_width_sane op (xs : shared array) (ys : shared array) =
  let single_bit s =
    let v = Share.reconstruct s in
    Vec.length v >= 8
    &&
    let all01 = ref true and any1 = ref false in
    Array.iter
      (fun e -> if e = 1 then any1 := true else if e <> 0 then all01 := false)
      v;
    !all01 && !any1
  in
  Array.iteri
    (fun i x ->
      if single_bit x && single_bit ys.(i) then
        invalid_arg
          (op
         ^ ": width defaulted to ell but both operands are single-bit \
            vectors — missing ?width:1 at the call site?"))
    xs

(* The one multiplication entry: lane checks, then the protocol's core.
   [width] is a one-lane call's width, [widths] a batched call's. *)
let mul_checked name enc ?width ?widths (ctx : Ctx.t) (xs : shared array)
    (ys : shared array) : shared array =
  let k = Array.length xs in
  if Array.length ys <> k then invalid_arg (name ^ ": operand arrays differ");
  (match widths with
  | Some ws when Array.length ws <> k -> invalid_arg (name ^ ": widths length")
  | _ -> ());
  for i = 0 to k - 1 do
    Share.check_enc enc xs.(i);
    Share.check_enc enc ys.(i);
    Share.check_same_len xs.(i) ys.(i)
  done;
  if Debug.enabled () && width = None && widths = None then
    check_width_sane name xs ys;
  let w0 = Option.value width ~default:ctx.ell in
  mul_lanes ctx enc (word_lanes ?widths w0 xs) xs ys

(** [mul_many ctx xs ys] multiplies k independent lane pairs (possibly of
    different lengths and widths) in one metered round. *)
let mul_many ?widths (ctx : Ctx.t) (xs : shared array) (ys : shared array) :
    shared array =
  mul_checked "Mpc.mul_many" Arith ?widths ctx xs ys

(** [band_many ctx xs ys]: k independent ANDs in one metered round. *)
let band_many ?widths (ctx : Ctx.t) (xs : shared array) (ys : shared array) :
    shared array =
  mul_checked "Mpc.band_many" Bool ?widths ctx xs ys

(** [dot ?width ctx xs ys] is the elementwise inner product
    sum_i xs.(i) · ys.(i) of k arithmetic term pairs of one length.
    Under honest majority each party sums its local cross terms of every
    term into one zero sharing before the single reshare, so the whole
    sum is metered as one multiplication lane; SH-DM runs one Beaver
    lane per term (exactly {!mul_many}'s) and sums locally. One round. *)
let dot ?width (ctx : Ctx.t) (xs : shared array) (ys : shared array) : shared =
  let k = Array.length xs in
  if k = 0 || Array.length ys <> k then invalid_arg "Mpc.dot: operand arrays";
  for i = 0 to k - 1 do
    Share.check_enc Arith xs.(i);
    Share.check_enc Arith ys.(i);
    Share.check_same_len xs.(0) xs.(i);
    Share.check_same_len xs.(i) ys.(i)
  done;
  let w = Option.value width ~default:ctx.ell and n = Share.length xs.(0) in
  match ctx.kind with
  | Ctx.Sh_dm ->
      let zs = beaver_lanes ctx Arith (Array.make k (w, n)) xs ys in
      Array.fold_left add zs.(0) (Array.sub zs 1 (k - 1))
  | Ctx.Sh_hm | Ctx.Mal_hm ->
      let alpha = zero_sharing ctx Arith n in
      hm_product ctx Arith
        (Array.map2 (fun (x : shared) (y : shared) -> (alpha, x.v, y.v)) xs ys)
        [| (w, n) |];
      { Share.enc = Arith; v = alpha }

(** Secure elementwise multiplication of arithmetic shares (one lane). *)
let mul ?width (ctx : Ctx.t) (x : shared) (y : shared) : shared =
  (mul_checked "Mpc.mul" Arith ?width ctx [| x |] [| y |]).(0)

(** Secure elementwise bitwise AND of boolean shares (one lane). *)
let band ?width (ctx : Ctx.t) (x : shared) (y : shared) : shared =
  (mul_checked "Mpc.band" Bool ?width ctx [| x |] [| y |]).(0)

(** k independent ORs in one metered round via De Morgan /
    inclusion–exclusion, x ∨ y = x ⊕ y ⊕ (x ∧ y): one fused AND plus the
    two local xors fused into one {!Vec.xor3} pass per share vector. *)
let bor_many ?widths (ctx : Ctx.t) (xs : shared array) (ys : shared array) :
    shared array =
  let zs = band_many ?widths ctx xs ys in
  Array.mapi (fun i z -> Share.map3_vectors Vec.xor3 xs.(i) ys.(i) z) zs

(* ------------------------------------------------------------------ *)
(* Packed single-bit flag lanes                                        *)
(*                                                                     *)
(* A {!Share.flags} is a boolean sharing of its packed words, so the    *)
(* interactive flag primitives run the word cores above over the word   *)
(* arrays ({!word_view}, no copy): Beaver triples, zero sharings and    *)
(* the local GF(2) kernels work per 63-flag word — 63x fewer PRG calls  *)
(* and correlation material — while each lane is metered per *element* *)
(* at width 1 ({!flag_lane}), byte-identical to the word primitives at  *)
(* [~width:1]. Results are rebuilt with {!Bits.of_words}, which clears  *)
(* the bits past the last flag.                                         *)
(* ------------------------------------------------------------------ *)

(** Lanewise xor of packed flag sharings (local, linear). *)
let xor_f (a : Share.flags) (b : Share.flags) : Share.flags =
  Share.check_same_flags_len a b;
  {
    Share.fv =
      Array.init (Share.flags_nvec a) (fun k ->
          Bits.xor a.Share.fv.(k) b.Share.fv.(k));
  }

(** Flip every flag (xor with public all-ones: one lane's bits invert). *)
let bnot_f (a : Share.flags) : Share.flags =
  {
    Share.fv =
      Array.mapi
        (fun k bk -> if k = 0 then Bits.bnot bk else Bits.copy bk)
        a.Share.fv;
  }

(** Extract bit [k] of each element of a boolean sharing straight into
    packed flag lanes — the fused radix-digit extraction ([and_mask
    (rshift a k) 1] composed with {!Share.pack_flags}, one pass, no 0/1
    intermediate; linear over GF(2), so per share vector). *)
let extract_bit_f (a : shared) k : Share.flags =
  Share.check_enc Bool a;
  { Share.fv = Array.map (fun vk -> Bits.pack_bit vk k) a.Share.v }

(* Packed flags as the boolean sharing of their words, and its metering. *)
let word_view (f : Share.flags) : shared =
  { Share.enc = Bool; v = Array.map Bits.words f.Share.fv }

let flag_lane (f : Share.flags) = (1, Share.flags_length f)

(** k independent packed ANDs in one fused round. *)
let band_f_many (ctx : Ctx.t) (xs : Share.flags array)
    (ys : Share.flags array) : Share.flags array =
  if Array.length ys <> Array.length xs then
    invalid_arg "Mpc.band_f_many: operand arrays differ";
  Array.iteri (fun i x -> Share.check_same_flags_len x ys.(i)) xs;
  let lanes = Array.map flag_lane xs in
  mul_lanes ctx Bool lanes (Array.map word_view xs) (Array.map word_view ys)
  |> Array.mapi (fun i (z : shared) ->
         { Share.fv = Array.map (Bits.of_words (snd lanes.(i))) z.Share.v })

(** Secure AND of packed flag sharings — one round, width-1 charges. *)
let band_f (ctx : Ctx.t) (x : Share.flags) (y : Share.flags) : Share.flags =
  (band_f_many ctx [| x |] [| y |]).(0)

(** k independent packed ORs in one fused round: x ⊕ y ⊕ (x ∧ y), one
    fused packed AND plus a lanewise xor3 over the words. *)
let bor_f_many (ctx : Ctx.t) (xs : Share.flags array) (ys : Share.flags array)
    : Share.flags array =
  let zs = band_f_many ctx xs ys in
  Array.mapi
    (fun i z ->
      {
        Share.fv =
          Array.init (Share.flags_nvec z) (fun k ->
              Bits.xor3 xs.(i).Share.fv.(k) ys.(i).Share.fv.(k) z.Share.fv.(k));
      })
    zs

(** Open several packed flag sharings in one fused round; each lane is
    metered exactly like [open_ ~width:1]. *)
let open_f_many (ctx : Ctx.t) (fs : Share.flags array) : Bits.t array =
  let lanes = Array.map flag_lane fs in
  Array.map2
    (fun (_, n) v -> Bits.of_words n v)
    lanes
    (open_lanes ctx lanes (Array.map word_view fs))

(** Open a packed flag sharing: a one-lane {!open_f_many}. *)
let open_f (ctx : Ctx.t) (f : Share.flags) : Bits.t = (open_f_many ctx [| f |]).(0)

(** The AND of two packed flag sharings, xored with the optional [tail]
    (a linear term of the same circuit), opened in the AND's own round:
    each party broadcasts its zero-shared 3-of-3 additive output, xored
    with its share of [tail], to both peers instead of passing it to one
    neighbour — one round and 6 bits per flag, where {!band_f} then
    {!open_f} take two rounds for the same bits. Replicated 3PC only: the
    2PC and 4PC multiplications cannot open their output in their own
    round (DESIGN.md), so any other protocol raises [Invalid_argument]. *)
let band_open_f (ctx : Ctx.t) ?tail (x : Share.flags) (y : Share.flags) :
    Bits.t =
  if ctx.kind <> Ctx.Sh_hm then invalid_arg "Mpc.band_open_f: SH-HM only";
  Share.check_same_flags_len x y;
  let n = Share.flags_length x in
  let xw = word_view x in
  let alpha = zero_sharing ctx Bool (Share.length xw) in
  rep3_into Bool [| (alpha, xw.Share.v, (word_view y).Share.v) |];
  let z = { Share.enc = Bool; v = alpha } in
  let z =
    match tail with
    | None -> z
    | Some t ->
        Share.check_same_flags_len x t;
        xor z (word_view t)
  in
  meter_lane ctx 0 ~bits:(6 * n) ~messages:6;
  Bits.of_words n (Share.reconstruct z)

(* ------------------------------------------------------------------ *)
(* Resharing (used by the shuffle stack)                               *)
(* ------------------------------------------------------------------ *)

(** Rerandomize a sharing without changing the secret; traffic is metered by
    the caller (the shuffle protocols account whole-protocol totals per the
    paper's Table 1). The input's share vectors are folded into the fresh
    zero-sharing vectors in place, so no further allocation happens. A
    boolean sharing keeps only the share bits under [mask] — the w-bit
    shares a receiving party gets off a w-bit wire; masking is GF(2)-linear,
    so the secret is masked alike. An arithmetic sharing takes
    [Ring.ones] only: its shares cannot be reduced in place. *)
let reshare_unmetered (ctx : Ctx.t) ~mask (s : shared) : shared =
  let n = Share.length s in
  let alpha = zero_sharing ctx s.Share.enc n in
  for k = 0 to ctx.nvec - 1 do
    match s.Share.enc with
    | Arith ->
        if mask = Ring.ones then Vec.add_into alpha.(k) s.Share.v.(k)
        else Vec.add_mask_into alpha.(k) s.Share.v.(k) mask
    | Bool -> Vec.xor_mask_into alpha.(k) s.Share.v.(k) mask
  done;
  { s with Share.v = alpha }

(** The last resharing of a permute-and-reshare pass under SH-HM, sent
    in the clear: the pass's two senders hold a fresh 2-of-2 split of the
    permuted vector and send both halves to both other parties, so every
    party reconstructs it in the pass's own round. The resharing
    randomness is drawn chunk by chunk exactly as {!reshare_unmetered}
    draws it in the pass, so the PRG stream does not depend on which
    lanes open. Like {!reshare_unmetered}, the traffic is metered by the
    permutation protocol that runs the pass ([Shardedperm.apply_open]);
    the leakage lint admits no other caller. Any other protocol raises
    [Invalid_argument]. *)
let reshare_open_unmetered (ctx : Ctx.t) ~mask (c : Share.chunked) : Vec.t =
  if ctx.kind <> Ctx.Sh_hm then
    invalid_arg "Mpc.reshare_open_unmetered: SH-HM only";
  let reshared = Share.map_chunks (reshare_unmetered ctx ~mask) c in
  let v = Share.reconstruct_c reshared in
  Share.dispose_c reshared;
  v

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)
(* ------------------------------------------------------------------ *)

(** Sum all elements of an arithmetic sharing into a 1-element sharing
    (local: addition is linear). *)
let sum_all (s : shared) : shared =
  Share.check_enc Arith s;
  { s with Share.v = Array.map (fun vk -> [| Vec.sum vk |]) s.Share.v }

(** Local prefix sums on an arithmetic sharing. *)
let prefix_sum (s : shared) : shared =
  Share.check_enc Arith s;
  Share.map_vectors Vec.prefix_sum s
