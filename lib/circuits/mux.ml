(** Oblivious multiplexers (§3.1): [mux b x y] evaluates [b ? y : x] without
    revealing [b], one AND round. The condition is packed flags; it extends
    straight from the packed words to a 0 / all-ones mux mask
    ({!Share.extend_flags}). A batched variant muxes many columns under one
    condition in a single round — the workhorse of the aggregation
    network. *)

open Orq_proto

(** Boolean mux of several columns under one condition; all columns are
    packed into a single AND so the whole select costs one round. *)
let mux_b_many ?width (ctx : Ctx.t) b (pairs : (Share.shared * Share.shared) list) :
    Share.shared list =
  match pairs with
  | [] -> []
  | _ ->
      let n = Share.flags_length b in
      let ext = Share.extend_flags b in
      let diffs = List.map (fun (x, y) -> Mpc.xor x y) pairs in
      let exts = List.map (fun _ -> ext) pairs in
      let big = Mpc.band ?width ctx (Share.concat exts) (Share.concat diffs) in
      List.mapi (fun i (x, _) -> Mpc.xor x (Share.sub_range big (i * n) n)) pairs

(** Batched independent muxes: lane i selects [b_i ? y_i : x_i] under its
    own flag condition and width; the k AND legs share one fused round
    ({!Mpc.band_many}) instead of k sequential mux rounds. The selected
    columns are word-valued, so the AND runs at the lanes' data widths —
    only the condition side is packed. *)
let select_many ?widths (ctx : Ctx.t)
    (lanes : (Share.flags * Share.shared * Share.shared) array) :
    Share.shared array =
  if Array.length lanes = 0 then [||]
  else
    let exts = Array.map (fun (b, _, _) -> Share.extend_flags b) lanes in
    let diffs = Array.map (fun (_, x, y) -> Mpc.xor x y) lanes in
    let ms = Mpc.band_many ?widths ctx exts diffs in
    Array.mapi (fun i (_, x, _) -> Mpc.xor x ms.(i)) lanes

(** Boolean mux under a flag condition: a one-lane {!select_many}. *)
let mux_b ?width (ctx : Ctx.t) b x y =
  let widths = Option.map (fun w -> [| w |]) width in
  (select_many ?widths ctx [| (b, x, y) |]).(0)
