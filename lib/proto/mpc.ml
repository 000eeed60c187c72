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

(* ------------------------------------------------------------------ *)
(* Cross-lane round fusion toggle                                      *)
(* ------------------------------------------------------------------ *)

(* When enabled (the default), the [_many] primitives below execute all
   their lanes as one metered communication round; when disabled (env
   ORQ_NO_FUSION=1, or {!set_fusion}), they loop lane by lane, paying one
   round per lane. Gating lives at this level only: the circuits above
   call the [_many] entry points unconditionally, so the two modes tally
   *identical* bits and messages — and, because fused execution draws its
   dealer correlations per lane in lane order, identical PRG streams and
   opened values — differing only in rounds. *)
let fusion =
  ref
    (match Sys.getenv_opt "ORQ_NO_FUSION" with
    | Some ("1" | "true" | "yes" | "on") -> false
    | _ -> true)

let set_fusion b = fusion := b
let fusion_enabled () = !fusion

(* ------------------------------------------------------------------ *)
(* Bit-packing toggle                                                  *)
(* ------------------------------------------------------------------ *)

(* When enabled (the default), the flag primitives below ([band_f] etc.)
   run over packed single-bit lanes ({!Share.flags}): local work and
   randomness per 63-flag word instead of per element. When disabled (env
   ORQ_NO_BITPACK=1, or {!set_bitpack}), they unpack, run the ordinary
   word-per-flag primitives at width 1, and repack. Both modes charge
   byte-identical traffic (width-1 metering either way) and produce
   identical opened values — only the simulation's local compute and PRG
   draw differ. *)
let bitpack =
  ref
    (match Sys.getenv_opt "ORQ_NO_BITPACK" with
    | Some ("1" | "true" | "yes" | "on") -> false
    | _ -> true)

let set_bitpack b = bitpack := b
let bitpack_enabled () = !bitpack

(* Per-lane metering of a fused round: lane 0 opens the round, the other
   lanes piggyback their traffic on it, so bits/messages equal the sum of
   the unfused per-lane charges exactly. *)
let meter_lane (ctx : Ctx.t) i ~bits ~messages =
  if i = 0 then Comm.round ctx.comm ~bits ~messages
  else Comm.traffic ctx.comm ~bits ~messages

(* ------------------------------------------------------------------ *)
(* Parallel round tracks                                               *)
(* ------------------------------------------------------------------ *)

(** [fuse_rounds ctx thunks] runs the thunks in order (so the lockstep
    simulation, dealer draws and opened values are exactly those of the
    sequential execution) and then — when fusion is enabled — re-meters
    their online rounds as if the tracks had run concurrently: total
    rounds charged is the *maximum* track depth rather than the sum, while
    bits and messages keep their exact sequential tallies. The caller
    asserts the tracks are data-independent (no thunk reads another's
    result); under that assumption a real deployment interleaves their
    messages in shared network rounds. Nests freely. *)
let fuse_rounds (ctx : Ctx.t) (thunks : (unit -> 'a) array) : 'a array =
  if (not !fusion) || Array.length thunks <= 1 then
    Array.map (fun f -> f ()) thunks
  else begin
    let total = ref 0 and deepest = ref 0 in
    let res =
      Array.map
        (fun f ->
          let before = ctx.Ctx.comm.Comm.rounds in
          let r = f () in
          let d = ctx.Ctx.comm.Comm.rounds - before in
          total := !total + d;
          if d > !deepest then deepest := d;
          r)
        thunks
    in
    Comm.refund_rounds ctx.comm (!total - !deepest);
    res
  end

(* ------------------------------------------------------------------ *)
(* Input / constants (data-owner side; unmetered)                      *)
(* ------------------------------------------------------------------ *)

let share_a ctx x = Share.share ctx Arith x
let share_b ctx x = Share.share ctx Bool x
let public_a ctx n c = Share.public ctx Arith n c

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

(** Isolate bit [k] of each element into the LSB — the fused form of
    [and_mask (rshift a k) 1], one pass per share vector (linear over
    GF(2): both shift and mask are). Radixsort's bit extraction. *)
let extract_bit a k =
  Share.check_enc Bool a;
  Share.map_vectors (fun vk -> Vec.bit_extract vk k) a

(** Replicate the LSB of each element across the whole word — a linear
    operation per share vector (each output bit equals the input LSB), used
    to turn a single-bit condition into a mux mask. *)
let extend_bit a =
  Share.check_enc Bool a;
  Share.map_vectors (fun vk -> Vec.map (fun x -> -(x land 1)) vk) a

(* ------------------------------------------------------------------ *)
(* Opening (reveal to all computing parties)                           *)
(* ------------------------------------------------------------------ *)

let hash_bits = 256 (* digest size for Mal-HM redundant delivery *)

(* One lane's opening charge: value traffic per protocol, plus (Mal-HM)
   one digest per reconstructed vector and the redundant-delivery check: a
   tampering sender is caught because the verifier party's digest of the
   true share vector cannot match. *)
let meter_open_lane (ctx : Ctx.t) i ~w ~n =
  match ctx.kind with
  | Sh_dm -> meter_lane ctx i ~bits:(2 * w * n) ~messages:2
  | Sh_hm -> meter_lane ctx i ~bits:(3 * w * n) ~messages:3
  | Mal_hm ->
      meter_lane ctx i ~bits:(4 * ((w * n) + hash_bits)) ~messages:8;
      for p = 0 to ctx.parties - 1 do
        if Ctx.tamper_delta ctx ~party:p ~op:"open" <> 0 then
          raise (Ctx.Abort "open: share/hash mismatch detected")
      done

(** Open a shared vector to all parties. Under [Mal_hm] every reconstructed
    vector is delivered redundantly (value + digest from distinct parties);
    an injected corruption of the sender therefore raises {!Ctx.Abort}. *)
let open_ ?width (ctx : Ctx.t) (s : shared) : Vec.t =
  let w = Option.value width ~default:ctx.ell in
  let x = Share.reconstruct s in
  meter_open_lane ctx 0 ~w ~n:(Share.length s);
  x

(** Open several independent shared vectors in one fused round (each lane
    keeps its own width charge; under [ORQ_NO_FUSION] the lanes open one
    round apiece, with identical bits/messages). *)
let open_many ?widths (ctx : Ctx.t) (ss : shared array) : Vec.t array =
  let k = Array.length ss in
  let ws =
    match widths with
    | None -> Array.make k ctx.ell
    | Some ws ->
        if Array.length ws <> k then invalid_arg "Mpc.open_many: widths length";
        ws
  in
  if k <= 1 || not !fusion then
    Array.mapi (fun i s -> open_ ~width:ws.(i) ctx s) ss
  else begin
    let outs = Array.map Share.reconstruct ss in
    Array.iteri (fun i s -> meter_open_lane ctx i ~w:ws.(i) ~n:(Share.length s)) ss;
    outs
  end

(* ------------------------------------------------------------------ *)
(* Multiplication / AND                                                *)
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

(* 2PC Beaver multiplication: open d = x - a and e = y - b (one batched
   round), then z = c + d*b + e*a + d*e with the public d*e folded into one
   share vector. The boolean case is identical over GF(2). Recombination is
   the fused one-pass {!Vec.beaver_arith}/{!Vec.beaver_bool} kernel: the
   whole multiplication allocates d, e and the nvec result vectors. *)
let beaver_mul (ctx : Ctx.t) enc w (x : shared) (y : shared) : shared =
  let n = Share.length x in
  let { Dealer.ta; tb; tc } = Dealer.beaver ctx enc n in
  (* both openings batched: one round, each party sends both its shares *)
  Comm.round ctx.comm ~bits:(2 * 2 * w * n) ~messages:2;
  let d = open_diff enc x ta and e = open_diff enc y tb in
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
  { Share.enc; v }

(* 3PC replicated multiplication (Araki et al.): party i computes
   z_i = x_i y_i + x_i y_{i+1} + x_{i+1} y_i + alpha_i and sends it to its
   neighbour to restore replication: one round, one ring element per party.
   The cross terms are accumulated directly into the (freshly generated)
   alpha vectors by the fused {!Vec.rep3_arith_into} kernel — no
   per-term intermediates. *)
let rep3_mul (ctx : Ctx.t) enc w (x : shared) (y : shared) : shared =
  let n = Share.length x in
  let alpha = zero_sharing ctx enc n in
  let xv = x.Share.v and yv = y.Share.v in
  for i = 0 to 2 do
    let j = (i + 1) mod 3 in
    match (enc : Share.enc) with
    | Arith ->
        Vec.rep3_arith_into alpha.(i) ~xi:xv.(i) ~yi:yv.(i) ~xj:xv.(j)
          ~yj:yv.(j)
    | Bool ->
        Vec.rep3_bool_into alpha.(i) ~xi:xv.(i) ~yi:yv.(i) ~xj:xv.(j)
          ~yj:yv.(j)
  done;
  Comm.round ctx.comm ~bits:(3 * w * n) ~messages:3;
  { Share.enc; v = alpha }

(* 4PC Fantastic-Four-style multiplication. Each cross term x_i y_j is
   computable by the >= 2 parties holding both shares; the lowest-index
   eligible party contributes it and the next one verifies it (value vs
   digest), so a corrupted contribution aborts. Contributions are
   rerandomized into a fresh 4-vector sharing. Metered at 3 ring elements
   per party per multiplication (consistent with the paper's Table 7
   Mal-HM/SH-HM bandwidth ratio). *)
let rep4_mul (ctx : Ctx.t) enc w (x : shared) (y : shared) : shared =
  let n = Share.length x in
  let xv = x.Share.v and yv = y.Share.v in
  (* contributions accumulate straight into the fresh alpha vectors via the
     fused multiply-accumulate kernels: zero-sharing noise plus cross terms
     in nvec + 1 allocations total, no per-term intermediates *)
  let alpha = zero_sharing ctx enc n in
  for i = 0 to 3 do
    for j = 0 to 3 do
      (* parties eligible for term (i, j): those holding x_i and y_j,
         i.e. everyone except parties i and j *)
      let eligible =
        List.filter (fun p -> p <> i && p <> j) [ 0; 1; 2; 3 ]
      in
      match eligible with
      | assignee :: verifier :: _ ->
          let delta = Ctx.tamper_delta ctx ~party:assignee ~op:"mul" in
          if delta <> 0 then
            (* the verifier recomputes the same term from its own copies of
               x_i and y_j; any additive corruption mismatches *)
            raise (Ctx.Abort "mul: cross-term verification failed");
          ignore verifier;
          (match (enc : Share.enc) with
          | Arith -> Vec.mul_add_into alpha.(assignee) xv.(i) yv.(j)
          | Bool -> Vec.xor_band_into alpha.(assignee) xv.(i) yv.(j))
      | _ -> assert false
    done
  done;
  Comm.round ctx.comm ~bits:(4 * 3 * w * n) ~messages:12;
  { Share.enc; v = alpha }

(* ------------------------------------------------------------------ *)
(* Fused multi-lane multiplication                                     *)
(*                                                                     *)
(* Each [_many] core runs k independent multiplications as one metered  *)
(* round. Dealer correlations (and zero-sharing randomness) are drawn   *)
(* per lane in lane order — exactly the stream k separate calls would   *)
(* consume — then the lanes are packed with {!Share.concat_many} so the *)
(* local recombination kernels make one pass over one long vector.      *)
(* Metering is per lane ({!meter_lane}), so bits and messages equal the *)
(* unfused totals and only the round count drops to one.                *)
(* ------------------------------------------------------------------ *)

let lane_lengths (lanes : (shared * shared * int) array) =
  Array.map (fun (x, _, _) -> Share.length x) lanes

let beaver_mul_many (ctx : Ctx.t) enc (lanes : (shared * shared * int) array) :
    shared array =
  let ns = lane_lengths lanes in
  let triples =
    Array.mapi (fun i (_, _, _) -> Dealer.beaver ctx enc ns.(i)) lanes
  in
  Array.iteri
    (fun i (_, _, w) -> meter_lane ctx i ~bits:(2 * 2 * w * ns.(i)) ~messages:2)
    lanes;
  let bx = Share.concat_many (Array.map (fun (x, _, _) -> x) lanes) in
  let by = Share.concat_many (Array.map (fun (_, y, _) -> y) lanes) in
  let ta = Share.concat_many (Array.map (fun t -> t.Dealer.ta) triples) in
  let tb = Share.concat_many (Array.map (fun t -> t.Dealer.tb) triples) in
  let tc = Share.concat_many (Array.map (fun t -> t.Dealer.tc) triples) in
  let d = open_diff enc bx ta and e = open_diff enc by tb in
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
  Share.split_many { Share.enc; v } ns

let rep3_mul_many (ctx : Ctx.t) enc (lanes : (shared * shared * int) array) :
    shared array =
  let ns = lane_lengths lanes in
  let alphas = Array.map (fun n -> zero_sharing ctx enc n) ns in
  let alpha =
    Array.init ctx.nvec (fun k ->
        Vec.concat_many (Array.map (fun a -> a.(k)) alphas))
  in
  let bx = Share.concat_many (Array.map (fun (x, _, _) -> x) lanes) in
  let by = Share.concat_many (Array.map (fun (_, y, _) -> y) lanes) in
  let xv = bx.Share.v and yv = by.Share.v in
  for i = 0 to 2 do
    let j = (i + 1) mod 3 in
    match (enc : Share.enc) with
    | Arith ->
        Vec.rep3_arith_into alpha.(i) ~xi:xv.(i) ~yi:yv.(i) ~xj:xv.(j)
          ~yj:yv.(j)
    | Bool ->
        Vec.rep3_bool_into alpha.(i) ~xi:xv.(i) ~yi:yv.(i) ~xj:xv.(j)
          ~yj:yv.(j)
  done;
  Array.iteri
    (fun i (_, _, w) -> meter_lane ctx i ~bits:(3 * w * ns.(i)) ~messages:3)
    lanes;
  Share.split_many { Share.enc; v = alpha } ns

let rep4_mul_many (ctx : Ctx.t) enc (lanes : (shared * shared * int) array) :
    shared array =
  let ns = lane_lengths lanes in
  let alphas = Array.map (fun n -> zero_sharing ctx enc n) ns in
  let alpha =
    Array.init ctx.nvec (fun k ->
        Vec.concat_many (Array.map (fun a -> a.(k)) alphas))
  in
  let bx = Share.concat_many (Array.map (fun (x, _, _) -> x) lanes) in
  let by = Share.concat_many (Array.map (fun (_, y, _) -> y) lanes) in
  let xv = bx.Share.v and yv = by.Share.v in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let eligible = List.filter (fun p -> p <> i && p <> j) [ 0; 1; 2; 3 ] in
      match eligible with
      | assignee :: verifier :: _ ->
          let delta = Ctx.tamper_delta ctx ~party:assignee ~op:"mul" in
          if delta <> 0 then
            raise (Ctx.Abort "mul: cross-term verification failed");
          ignore verifier;
          (match (enc : Share.enc) with
          | Arith -> Vec.mul_add_into alpha.(assignee) xv.(i) yv.(j)
          | Bool -> Vec.xor_band_into alpha.(assignee) xv.(i) yv.(j))
      | _ -> assert false
    done
  done;
  Array.iteri
    (fun i (_, _, w) -> meter_lane ctx i ~bits:(4 * 3 * w * ns.(i)) ~messages:12)
    lanes;
  Share.split_many { Share.enc; v = alpha } ns

let mul_core (ctx : Ctx.t) enc w x y =
  match ctx.kind with
  | Ctx.Sh_dm -> beaver_mul ctx enc w x y
  | Ctx.Sh_hm -> rep3_mul ctx enc w x y
  | Ctx.Mal_hm -> rep4_mul ctx enc w x y

let mul_core_many (ctx : Ctx.t) enc (lanes : (shared * shared * int) array) :
    shared array =
  if Array.length lanes <= 1 || not !fusion then
    Array.map (fun (x, y, w) -> mul_core ctx enc w x y) lanes
  else
    match ctx.kind with
    | Ctx.Sh_dm -> beaver_mul_many ctx enc lanes
    | Ctx.Sh_hm -> rep3_mul_many ctx enc lanes
    | Ctx.Mal_hm -> rep4_mul_many ctx enc lanes

let check_lanes name enc (xs : shared array) (ys : shared array) widths =
  let k = Array.length xs in
  if Array.length ys <> k then invalid_arg (name ^ ": operand arrays differ");
  (match widths with
  | Some ws when Array.length ws <> k -> invalid_arg (name ^ ": widths length")
  | _ -> ());
  Array.iteri
    (fun i x ->
      Share.check_enc enc x;
      Share.check_enc enc ys.(i);
      Share.check_same_len x ys.(i))
    xs

let make_lanes (ctx : Ctx.t) xs ys widths =
  Array.mapi
    (fun i x ->
      (x, ys.(i), match widths with Some ws -> ws.(i) | None -> ctx.ell))
    xs

(* Debug-mode width-sanity check: an interactive primitive whose width
   defaulted to ell while both operands reconstruct to single-bit vectors
   almost certainly means a missing [?width] at the call site — the
   modeled traffic would be overcharged ~64x. Requires n >= 8 and at
   least one set bit on each side so small or degenerate vectors (e.g. an
   all-invalid mask ANDed with data) cannot trip it. Reconstruction makes
   this O(nvec * n), so it runs only under {!Debug.set_checks}. *)
let check_width_sane op width (x : shared) (y : shared) =
  if width = None && Debug.enabled () then begin
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
    if single_bit x && single_bit y then
      invalid_arg
        (op
       ^ ": width defaulted to ell but both operands are single-bit vectors \
          — missing ?width:1 at the call site?")
  end

let check_width_sane_many op widths (xs : shared array) (ys : shared array) =
  if widths = None && Debug.enabled () then
    Array.iteri (fun i x -> check_width_sane op None x ys.(i)) xs

(** Secure elementwise multiplication of arithmetic shares. *)
let mul ?width (ctx : Ctx.t) (x : shared) (y : shared) : shared =
  Share.check_enc Arith x;
  Share.check_enc Arith y;
  Share.check_same_len x y;
  check_width_sane "Mpc.mul" width x y;
  let w = Option.value width ~default:ctx.ell in
  mul_core ctx Arith w x y

(** Secure elementwise bitwise AND of boolean shares. *)
let band ?width (ctx : Ctx.t) (x : shared) (y : shared) : shared =
  Share.check_enc Bool x;
  Share.check_enc Bool y;
  Share.check_same_len x y;
  check_width_sane "Mpc.band" width x y;
  let w = Option.value width ~default:ctx.ell in
  mul_core ctx Bool w x y

(** [mul_many ctx xs ys] multiplies k independent lane pairs (possibly of
    different lengths and widths) in one metered round. *)
let mul_many ?widths (ctx : Ctx.t) (xs : shared array) (ys : shared array) :
    shared array =
  check_lanes "Mpc.mul_many" Arith xs ys widths;
  check_width_sane_many "Mpc.mul_many" widths xs ys;
  mul_core_many ctx Arith (make_lanes ctx xs ys widths)

(** [band_many ctx xs ys]: k independent ANDs in one metered round. *)
let band_many ?widths (ctx : Ctx.t) (xs : shared array) (ys : shared array) :
    shared array =
  check_lanes "Mpc.band_many" Bool xs ys widths;
  check_width_sane_many "Mpc.band_many" widths xs ys;
  mul_core_many ctx Bool (make_lanes ctx xs ys widths)

(** OR via De Morgan / inclusion–exclusion: x ∨ y = x ⊕ y ⊕ (x ∧ y); the
    two local xors are fused into one {!Vec.xor3} pass per share vector. *)
let bor ?width ctx x y =
  let z = band ?width ctx x y in
  Share.map3_vectors Vec.xor3 x y z

(** k independent ORs in one metered round (one fused AND plus the local
    xor3 recombination per lane). *)
let bor_many ?widths (ctx : Ctx.t) (xs : shared array) (ys : shared array) :
    shared array =
  let zs = band_many ?widths ctx xs ys in
  Array.mapi (fun i z -> Share.map3_vectors Vec.xor3 xs.(i) ys.(i) z) zs

(* ------------------------------------------------------------------ *)
(* Packed single-bit flag lanes                                        *)
(*                                                                     *)
(* The same three protocol cores as above, specialized to GF(2) over    *)
(* packed words ({!Share.flags}): each 63-flag word is one ring element *)
(* of the boolean sharing, so Beaver triples, zero sharings and daBit   *)
(* masks are drawn per word — 63x fewer PRG calls and correlation       *)
(* material — and the local recombination kernels ({!Vec.beaver_bool},  *)
(* {!Vec.rep3_bool_into}, {!Vec.xor_band_into}) run unchanged over the  *)
(* word arrays. Metering stays per *element* at width 1, byte-identical *)
(* to the unpacked primitives; with the gate off every entry point      *)
(* falls back to unpack -> width-1 primitive -> pack.                   *)
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
    packed flag lanes — the fused radix-digit extraction ({!extract_bit}
    composed with {!Share.pack_flags}, one pass, no 0/1 intermediate). *)
let extract_bit_f (a : shared) k : Share.flags =
  Share.check_enc Bool a;
  { Share.fv = Array.map (fun vk -> Bits.pack_bit vk k) a.Share.v }

(* Packed zero sharing: alpha_k = r_k xor r_{k+1 mod nvec} over packed
   words — the per-word twin of {!zero_sharing}. *)
let zero_sharing_f (ctx : Ctx.t) n : Bits.t array =
  let r = Array.init ctx.nvec (fun _ -> Bits.random ctx.prg n) in
  let r0 = Bits.copy r.(0) in
  for k = 0 to ctx.nvec - 1 do
    let r' = if k = ctx.nvec - 1 then r0 else r.(k + 1) in
    Bits.xor_into r.(k) r'
  done;
  r

(* d = x ⊕ t folded across lanes directly on the packed words (the flag
   twin of {!open_diff}). *)
let open_diff_f (x : Share.flags) (t : Share.flags) : Vec.t =
  let out = Vec.zeros (Bits.num_words x.Share.fv.(0)) in
  for k = 0 to Share.flags_nvec x - 1 do
    Vec.xor_acc_into out (Bits.words x.Share.fv.(k)) (Bits.words t.Share.fv.(k))
  done;
  out

(* One packed AND lane under the protocol cores; [lane] indexes the fused
   round ({!meter_lane}), and the charges are exactly the unpacked
   width-1 charges. *)
let band_f_lane (ctx : Ctx.t) lane (x : Share.flags) (y : Share.flags) :
    Share.flags =
  let n = Share.flags_length x in
  match ctx.kind with
  | Ctx.Sh_dm ->
      let { Dealer.fta; ftb; ftc } = Dealer.beaver_flags ctx n in
      meter_lane ctx lane ~bits:(2 * 2 * n) ~messages:2;
      let d = open_diff_f x fta and e = open_diff_f y ftb in
      {
        Share.fv =
          Array.init ctx.nvec (fun k ->
              Bits.of_words n
                (Vec.beaver_bool
                   ~tc:(Bits.words ftc.Share.fv.(k))
                   ~d
                   ~tb:(Bits.words ftb.Share.fv.(k))
                   ~e
                   ~ta:(Bits.words fta.Share.fv.(k))
                   ~with_de:(k = 0)));
      }
  | Ctx.Sh_hm ->
      let alpha = zero_sharing_f ctx n in
      for i = 0 to 2 do
        let j = (i + 1) mod 3 in
        Vec.rep3_bool_into
          (Bits.words alpha.(i))
          ~xi:(Bits.words x.Share.fv.(i))
          ~yi:(Bits.words y.Share.fv.(i))
          ~xj:(Bits.words x.Share.fv.(j))
          ~yj:(Bits.words y.Share.fv.(j));
      done;
      meter_lane ctx lane ~bits:(3 * n) ~messages:3;
      { Share.fv = alpha }
  | Ctx.Mal_hm ->
      let alpha = zero_sharing_f ctx n in
      for i = 0 to 3 do
        for j = 0 to 3 do
          let eligible =
            List.filter (fun p -> p <> i && p <> j) [ 0; 1; 2; 3 ]
          in
          match eligible with
          | assignee :: _ ->
              if Ctx.tamper_delta ctx ~party:assignee ~op:"mul" <> 0 then
                raise (Ctx.Abort "mul: cross-term verification failed");
              Vec.xor_band_into
                (Bits.words alpha.(assignee))
                (Bits.words x.Share.fv.(i))
                (Bits.words y.Share.fv.(j))
          | _ -> assert false
        done
      done;
      meter_lane ctx lane ~bits:(4 * 3 * n) ~messages:12;
      { Share.fv = alpha }

(** Secure AND of packed flag sharings — one round, width-1 charges. *)
let band_f (ctx : Ctx.t) (x : Share.flags) (y : Share.flags) : Share.flags =
  Share.check_same_flags_len x y;
  if not !bitpack then
    Share.pack_flags
      (band ~width:1 ctx (Share.unpack_flags x) (Share.unpack_flags y))
  else band_f_lane ctx 0 x y

(** k independent packed ANDs in one fused round (lane by lane under
    [ORQ_NO_FUSION], with identical bits/messages). *)
let band_f_many (ctx : Ctx.t) (xs : Share.flags array)
    (ys : Share.flags array) : Share.flags array =
  let k = Array.length xs in
  if Array.length ys <> k then
    invalid_arg "Mpc.band_f_many: operand arrays differ";
  Array.iteri (fun i x -> Share.check_same_flags_len x ys.(i)) xs;
  if k = 0 then [||]
  else if not !bitpack then
    Array.map Share.pack_flags
      (band_many
         ~widths:(Array.make k 1)
         ctx
         (Array.map Share.unpack_flags xs)
         (Array.map Share.unpack_flags ys))
  else if k = 1 || not !fusion then
    Array.map2 (fun x y -> band_f_lane ctx 0 x y) xs ys
  else Array.mapi (fun i x -> band_f_lane ctx i x ys.(i)) xs

(** OR over packed flags: x ⊕ y ⊕ (x ∧ y), one packed AND plus a fused
    lanewise xor3 over the words. *)
let bor_f (ctx : Ctx.t) (x : Share.flags) (y : Share.flags) : Share.flags =
  let z = band_f ctx x y in
  {
    Share.fv =
      Array.init (Share.flags_nvec x) (fun k ->
          Bits.xor3 x.Share.fv.(k) y.Share.fv.(k) z.Share.fv.(k));
  }

(** k independent packed ORs in one fused round. *)
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

(** Packed mux over flag-valued columns: [b ? y : x] = x ⊕ (b ∧ (x⊕y)) —
    one packed AND round. *)
let mux_f (ctx : Ctx.t) (b : Share.flags) (x : Share.flags)
    (y : Share.flags) : Share.flags =
  xor_f x (band_f ctx b (xor_f x y))

(** Open a packed flag sharing; metered exactly like [open_ ~width:1]. *)
let open_f (ctx : Ctx.t) (f : Share.flags) : Bits.t =
  let x = Share.reconstruct_flags f in
  meter_open_lane ctx 0 ~w:1 ~n:(Share.flags_length f);
  x

(** Open several packed flag sharings in one fused round. *)
let open_f_many (ctx : Ctx.t) (fs : Share.flags array) : Bits.t array =
  if Array.length fs <= 1 || not !fusion then Array.map (open_f ctx) fs
  else begin
    let outs = Array.map Share.reconstruct_flags fs in
    Array.iteri
      (fun i f -> meter_open_lane ctx i ~w:1 ~n:(Share.flags_length f))
      fs;
    outs
  end

(** Rerandomize packed flag lanes without changing the secret (traffic
    metered by the caller, like {!reshare_unmetered}) — zero-sharing noise
    drawn per word. *)
let reshare_flags_unmetered (ctx : Ctx.t) (f : Share.flags) : Share.flags =
  let alpha = zero_sharing_f ctx (Share.flags_length f) in
  Array.iteri (fun k bk -> Bits.xor_into alpha.(k) bk) f.Share.fv;
  { Share.fv = alpha }

(** AND of two known-single-bit boolean sharings (flags in the LSB),
    routed through the packed kernel: identical value and traffic to
    [band ~width:1], with per-word local work and randomness. The drop-in
    upgrade for validity-flag conjunctions. *)
let band1 (ctx : Ctx.t) (x : shared) (y : shared) : shared =
  Share.unpack_flags (band_f ctx (Share.pack_flags x) (Share.pack_flags y))

(** OR of two known-single-bit boolean sharings via the packed kernel. *)
let bor1 (ctx : Ctx.t) (x : shared) (y : shared) : shared =
  let z = band1 ctx x y in
  Share.map3_vectors Vec.xor3 x y z

(* ------------------------------------------------------------------ *)
(* Resharing (used by the shuffle stack)                               *)
(* ------------------------------------------------------------------ *)

(** Rerandomize a sharing without changing the secret; traffic is metered by
    the caller (the shuffle protocols account whole-protocol totals per the
    paper's Table 1). The input's share vectors are folded into the fresh
    zero-sharing vectors in place, so no further allocation happens. *)
let reshare_unmetered (ctx : Ctx.t) (s : shared) : shared =
  let n = Share.length s in
  let alpha = zero_sharing ctx s.Share.enc n in
  for k = 0 to ctx.nvec - 1 do
    match s.Share.enc with
    | Arith -> Vec.add_into alpha.(k) s.Share.v.(k)
    | Bool -> Vec.xor_into alpha.(k) s.Share.v.(k)
  done;
  { s with Share.v = alpha }

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
