(** Sklansky addition and subtraction over boolean shares.

    A [w]-bit sum reads the carries into bits [1, w), so the prefix runs
    over the [w - 1] carry positions [0, w - 1) only; the carry out of the
    top bit is never formed. Level [j] updates every position with bit [j]
    set from the top of the lower half of its [2^(j+1)]-block:
      G_i ← G_i ⊕ (P_i ∧ G_top)      P_i ← P_i ∧ P_top
    A position's P is formed only where a later level reads it, found by a
    backward pass over the public width, so the last level forms no P. A
    public carry-in folds into bit 0's generate (g₀ ⊕ p₀, the two being
    disjoint). These circuits back A2B conversion, the division circuits
    and arithmetic on boolean columns.

    Each level is one {!Mpc.band_many} lane per adder, metered at its live
    positions: the G products sit at the upper-half positions, the P
    products are shifted down into the free lower halves, and the
    block-top operand is a local carry-free broadcast ({!Vec.spread}). A
    shared-operand adder costs its generate AND at [w - 1] bits (none for
    [w = 1]) plus ⌈log₂(w − 1)⌉ levels; with a public operand the
    generate is local.

    The [_many] entry points run k independent adder lanes (possibly of
    different widths) in lockstep: each level is issued for all
    still-active lanes as one round, so the fused depth is the deepest
    lane's rather than the sum. Single-pair functions are the one-lane
    special case. *)

open Orq_proto
open Orq_util

(* Indices of lanes still active under [pred], as an array. *)
let active_lanes k pred =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if pred i then i :: acc else acc) in
  Array.of_list (go (k - 1) [])

(* One prefix level as public bit masks: [span] is 2^j, [gm] the carry
   positions with bit j set (one G product each), [pm] those of them whose
   P a later level reads (one P product each), [top] the block tops they
   read from. *)
type level = { span : int; gm : int; pm : int; top : int }

(* The word with bit i set for every i in [0, m) satisfying [pred]. *)
let positions m pred =
  let r = ref 0 in
  for i = 0 to m - 1 do
    if pred i then r := !r lor (1 lsl i)
  done;
  !r

(* Block tops read by the positions of [mask] at span [s]. *)
let tops_of ~s mask =
  positions Ring.word_bits (fun i ->
      i land ((2 * s) - 1) = s - 1
      && (mask lsr (i + 1)) land ((1 lsl s) - 1) <> 0)

(* The ⌈log₂ m⌉ levels of a prefix over [m] carry positions. The backward
   pass carries the set of positions whose P the levels above read. *)
let levels m =
  let lv =
    Array.init (Ring.log2_ceil m) (fun j ->
        let s = 1 lsl j in
        let gm = positions m (fun i -> i land s <> 0) in
        { span = s; gm; pm = 0; top = tops_of ~s gm })
  in
  let need = ref 0 in
  for j = Array.length lv - 1 downto 0 do
    let l = lv.(j) in
    let pm = l.gm land !need in
    lv.(j) <- { l with pm };
    need := (!need land lnot l.gm) lor l.gm lor tops_of ~s:l.span pm
  done;
  lv

(* Positions a level's AND lane charges: its G and P products. *)
let live l = Ring.popcount l.gm + Ring.popcount l.pm

(* A level's block tops copied over their upper halves, share by share. *)
let spread l v =
  Share.map_vectors (fun a -> Vec.spread a ~src:l.top ~span:l.span) v

(** Lockstep Sklansky prefix over lanes of (g, p, m): returns each lane's
    G, whose bit i is the carry-generate of span [0..i] for i < m. Bits at
    or above m are unspecified. *)
let prefix_g_many (ctx : Ctx.t)
    (lanes : (Share.shared * Share.shared * int) array) : Share.shared array =
  let k = Array.length lanes in
  let g = Array.map (fun (g, _, _) -> g) lanes in
  let p = Array.map (fun (_, p, _) -> p) lanes in
  let plans = Array.map (fun (_, _, m) -> levels m) lanes in
  let rec loop j =
    let active = active_lanes k (fun i -> j < Array.length plans.(i)) in
    if Array.length active > 0 then begin
      let lv i = plans.(i).(j) in
      let xs =
        Array.map
          (fun i ->
            let l = lv i in
            Mpc.xor (Mpc.and_mask p.(i) l.gm)
              (Mpc.rshift (Mpc.and_mask p.(i) l.pm) l.span))
          active
      in
      let ys =
        Array.map
          (fun i ->
            let l = lv i in
            Mpc.xor
              (Mpc.and_mask (spread l g.(i)) l.gm)
              (Mpc.and_mask
                 (Mpc.rshift (spread l p.(i)) l.span)
                 (l.pm lsr l.span)))
          active
      in
      let zs =
        Mpc.band_many ~widths:(Array.map (fun i -> live (lv i)) active) ctx xs ys
      in
      Array.iteri
        (fun t i ->
          let l = lv i in
          g.(i) <- Mpc.xor g.(i) (Mpc.and_mask zs.(t) l.gm);
          if l.pm <> 0 then
            p.(i) <-
              Mpc.xor
                (Mpc.and_mask p.(i) (lnot l.gm))
                (Mpc.and_mask (Mpc.lshift zs.(t) l.span) l.pm))
        active;
      loop (j + 1)
    end
  in
  loop 0;
  g

(* Finish lanes of (g, p, w) — g the generate below bit w - 1, p the
   propagate below bit w: fold the carry-in, run the prefix, and form
   p ⊕ carries. *)
let finish_many ~cin (ctx : Ctx.t) lanes =
  let prepped =
    Array.map
      (fun (g, p, w) ->
        let g = if cin && w >= 2 then Mpc.xor g (Mpc.and_mask p 1) else g in
        (g, p, max 0 (w - 1)))
      lanes
  in
  let gs = prefix_g_many ctx prepped in
  Array.mapi
    (fun i (_, p, w) ->
      let s = Mpc.xor p (Mpc.lshift gs.(i) 1) in
      let s = if cin then Mpc.xor_pub s 1 else s in
      Mpc.and_mask s (Ring.mask w))
    lanes

(** [add_many ctx lanes]: k independent boolean-shared sums (lanes are
    (x, y, w) triples, sums modulo 2^w) in max-lane-depth fused rounds —
    one fused round for every generate of a lane wider than one bit, then
    the lockstep prefix. [cin] applies to every lane. *)
let add_many ?(cin = false) (ctx : Ctx.t)
    (lanes : (Share.shared * Share.shared * int) array) : Share.shared array =
  let masked =
    Array.map
      (fun (x, y, w) ->
        let mw = Ring.mask w in
        (Mpc.and_mask x mw, Mpc.and_mask y mw, w))
      lanes
  in
  let wide =
    active_lanes (Array.length masked) (fun i ->
        let _, _, w = masked.(i) in
        w >= 2)
  in
  (* the generate below bit w - 1: the top carry is never read *)
  let below f =
    Array.map
      (fun i ->
        let x, y, w = masked.(i) in
        Mpc.and_mask (f (x, y)) (Ring.mask (w - 1)))
      wide
  in
  let gen =
    Mpc.band_many
      ~widths:(Array.map (fun i -> (fun (_, _, w) -> w - 1) masked.(i)) wide)
      ctx (below fst) (below snd)
  in
  (* a 1-bit lane has no carry position: its generate is never read *)
  let next = ref 0 in
  finish_many ~cin ctx
    (Array.map
       (fun (x, y, w) ->
         let g =
           if w >= 2 then (incr next; gen.(!next - 1))
           else Share.public ctx Share.Bool (Share.length x) 0
         in
         (g, Mpc.xor x y, w))
       masked)

(** [add ctx ~w x y]: boolean-shared sum modulo 2^w. *)
let add ?cin (ctx : Ctx.t) ~w x y = (add_many ?cin ctx [| (x, y, w) |]).(0)

(** [sub ctx ~w x y]: boolean-shared difference modulo 2^w
    (x + not y + 1). *)
let sub (ctx : Ctx.t) ~w x y =
  let ny = Mpc.and_mask (Mpc.bnot y) (Ring.mask w) in
  add ~cin:true ctx ~w x ny

(** Addition with a public operand per lane (lanes are (x, c, w)): the
    generate and propagate are local, so only the prefix levels run, in
    lockstep. *)
let add_pub_many ?(cin = false) (ctx : Ctx.t)
    (lanes : (Share.shared * Vec.t * int) array) : Share.shared array =
  finish_many ~cin ctx
    (Array.map
       (fun (x, c, w) ->
         let x = Mpc.and_mask x (Ring.mask w) in
         let c = Vec.and_scalar c (Ring.mask w) in
         (Mpc.and_mask_vec x (Vec.and_scalar c (Ring.mask (max 0 (w - 1)))),
          Mpc.xor_pub_vec x c, w))
       lanes)

(** [sub_pub_minuend_many ctx lanes]: per lane (c, y, w), the boolean
    sharing of the public vector [c] minus the shared [y]: c + not y + 1.
    This is the A2B finishing step, batched so k conversions share each
    prefix round. *)
let sub_pub_minuend_many (ctx : Ctx.t)
    (lanes : (Vec.t * Share.shared * int) array) : Share.shared array =
  add_pub_many ~cin:true ctx
    (Array.map
       (fun (c, y, w) ->
         (Mpc.and_mask (Mpc.bnot y) (Ring.mask w), c, w))
       lanes)

(** Two's-complement negation of a boolean sharing: 0 - x. *)
let neg (ctx : Ctx.t) ~w x =
  (sub_pub_minuend_many ctx [| (Vec.zeros (Share.length x), x, w) |]).(0)
