(** Kogge–Stone addition and subtraction over boolean shares.

    [O(log w)] AND rounds for [w]-bit operands; the two ANDs of each prefix
    level (generate and propagate updates) are batched into one round. These
    circuits back A2B conversion, the division circuit, and arithmetic on
    boolean columns.

    The [_many] entry points run k independent adder lanes (possibly of
    different widths) in lockstep: each Kogge–Stone level is issued for all
    still-active lanes as one {!Mpc.band_many} round, so the fused depth is
    the maximum ⌈log₂ w⌉ across lanes rather than the sum. Single-pair
    functions are the one-lane special case. *)

open Orq_proto
open Orq_util

(* Indices of lanes still active under [pred], as an array. *)
let active_lanes k pred =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if pred i then i :: acc else acc) in
  Array.of_list (go (k - 1) [])

(** Lockstep prefix (G, P) computation over lanes of (g, p, w). Inputs are
    the initial generate/propagate words; returns full-prefix (G, P) per
    lane: G_i = carry-generate of span [0..i], P_i = propagate of span
    [0..i]. Shifted-in propagate bits must be 1 so short spans keep their
    value. *)
let prefix_gp_many (ctx : Ctx.t)
    (lanes : (Share.shared * Share.shared * int) array) :
    (Share.shared * Share.shared) array =
  let k = Array.length lanes in
  let g = Array.map (fun (g, _, _) -> g) lanes in
  let p = Array.map (fun (_, p, _) -> p) lanes in
  let s = Array.make k 1 in
  let width_of i =
    let _, _, w = lanes.(i) in
    w
  in
  let rec loop () =
    let active = active_lanes k (fun i -> s.(i) < width_of i) in
    if Array.length active > 0 then begin
      let xs = Array.map (fun i -> Share.append p.(i) p.(i)) active in
      let ys =
        Array.map
          (fun i ->
            let ss = s.(i) in
            let g_sh = Mpc.lshift g.(i) ss in
            let p_sh = Mpc.xor_pub (Mpc.lshift p.(i) ss) (Ring.mask ss) in
            Share.append g_sh p_sh)
          active
      in
      let ws = Array.map width_of active in
      let both = Mpc.band_many ~widths:ws ctx xs ys in
      Array.iteri
        (fun j i ->
          let pg, pp = Share.split2 both.(j) (Share.length g.(i)) in
          g.(i) <- Mpc.xor g.(i) pg;
          p.(i) <- pp;
          s.(i) <- 2 * s.(i))
        active;
      loop ()
    end
  in
  loop ();
  Array.init k (fun i -> (g.(i), p.(i)))

(* Finish an addition from (x xor y), prefix (G, P) and a public carry-in. *)
let finish ~w ~cin xy g p =
  let carries = Mpc.lshift g 1 in
  let carries =
    if cin then Mpc.xor_pub (Mpc.xor carries (Mpc.lshift p 1)) 1 else carries
  in
  Mpc.and_mask (Mpc.xor xy carries) (Ring.mask w)

(** [add_many ctx lanes]: k independent boolean-shared sums (lanes are
    (x, y, w) triples, sums modulo 2^w) in max-lane-depth fused rounds —
    one fused round for all initial generates, then the lockstep prefix
    ladder. [cin] applies to every lane. *)
let add_many ?(cin = false) (ctx : Ctx.t)
    (lanes : (Share.shared * Share.shared * int) array) : Share.shared array =
  let masked =
    Array.map
      (fun (x, y, w) ->
        let mw = Ring.mask w in
        (Mpc.and_mask x mw, Mpc.and_mask y mw, w))
      lanes
  in
  let g =
    Mpc.band_many
      ~widths:(Array.map (fun (_, _, w) -> w) masked)
      ctx
      (Array.map (fun (x, _, _) -> x) masked)
      (Array.map (fun (_, y, _) -> y) masked)
  in
  let p = Array.map (fun (x, y, _) -> Mpc.xor x y) masked in
  let gp =
    prefix_gp_many ctx
      (Array.mapi
         (fun i (_, _, w) -> (g.(i), p.(i), w))
         masked)
  in
  Array.mapi
    (fun i (_, _, w) ->
      let g, p' = gp.(i) in
      finish ~w ~cin p.(i) g p')
    masked

(** [add ctx ~w x y]: boolean-shared sum modulo 2^w. *)
let add ?cin (ctx : Ctx.t) ~w x y = (add_many ?cin ctx [| (x, y, w) |]).(0)

(** [sub ctx ~w x y]: boolean-shared difference modulo 2^w
    (x + not y + 1). *)
let sub (ctx : Ctx.t) ~w x y =
  let ny = Mpc.and_mask (Mpc.bnot y) (Ring.mask w) in
  add ~cin:true ctx ~w x ny

(** Addition with a public operand per lane (lanes are (x, c, w)): the
    initial generate/propagate are local, saving the first AND round; the
    prefix ladders run in lockstep. *)
let add_pub_many ?(cin = false) (ctx : Ctx.t)
    (lanes : (Share.shared * Vec.t * int) array) : Share.shared array =
  let prepped =
    Array.map
      (fun (x, c, w) ->
        let mw = Ring.mask w in
        let x = Mpc.and_mask x mw in
        let c = Vec.and_scalar c mw in
        let g = Mpc.and_mask_vec x c in
        let p = Mpc.xor_pub_vec x c in
        (g, p, w))
      lanes
  in
  let gp = prefix_gp_many ctx prepped in
  Array.mapi
    (fun i (_, p, w) ->
      let g, p' = gp.(i) in
      finish ~w ~cin p g p')
    prepped

(** Addition with a public operand: the initial generate/propagate are
    local, saving one AND round. *)
let add_pub ?cin (ctx : Ctx.t) ~w x (c : Vec.t) =
  (add_pub_many ?cin ctx [| (x, c, w) |]).(0)

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

(** [sub_pub_minuend ctx ~w c y] computes the boolean sharing of the public
    vector [c] minus the shared [y]: c + not y + 1. This is the A2B
    finishing step (x = (x + r) - r with (x + r) opened). *)
let sub_pub_minuend (ctx : Ctx.t) ~w (c : Vec.t) y =
  (sub_pub_minuend_many ctx [| (c, y, w) |]).(0)

(** Subtract a public vector from a shared value: x - c = x + (not c) + 1. *)
let sub_pub (ctx : Ctx.t) ~w x (c : Vec.t) =
  let nc = Vec.map (fun v -> lnot v land Ring.mask w) c in
  add_pub ~cin:true ctx ~w x nc

(** Two's-complement negation of a boolean sharing: 0 - x. *)
let neg (ctx : Ctx.t) ~w x =
  sub_pub_minuend ctx ~w (Vec.zeros (Share.length x)) x
