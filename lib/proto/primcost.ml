(** The primitive price list — see the interface. *)

module Comm = Orq_net.Comm

let hash_bits = 256

(* One fused lane of multiplication/AND traffic (bits, messages). *)
let mul_lane (kind : Ctx.kind) ~w ~n =
  match kind with
  | Sh_dm -> (2 * 2 * w * n, 2)
  | Sh_hm -> (3 * w * n, 3)
  | Mal_hm -> (4 * 3 * w * n, 12)

(* One fused lane of opening traffic. *)
let open_lane (kind : Ctx.kind) ~w ~n =
  match kind with
  | Sh_dm -> (2 * w * n, 2)
  | Sh_hm -> (3 * w * n, 3)
  | Mal_hm -> (4 * ((w * n) + hash_bits), 8)

let round_ev (bits, messages) =
  {
    Comm.ev_op = Comm.Round;
    ev_label = "";
    ev_rounds = 1;
    ev_bits = bits;
    ev_messages = messages;
  }

let barrier_ev k =
  {
    Comm.ev_op = Comm.Barrier;
    ev_label = "";
    ev_rounds = k;
    ev_bits = 0;
    ev_messages = 0;
  }

let open_ kind ~w ~n = [| round_ev (open_lane kind ~w ~n) |]
let mul kind ~w ~n = [| round_ev (mul_lane kind ~w ~n) |]
let b2a kind ~w ~n = [| round_ev (open_lane kind ~w:1 ~n:(w * n)) |]

let eq kind ~w ~n =
  let evs = ref [] in
  let s = ref (Orq_util.Ring.next_pow2 w / 2) in
  while !s > 0 do
    evs := round_ev (mul_lane kind ~w:(max 1 !s) ~n) :: !evs;
    s := !s / 2
  done;
  Array.of_list (List.rev !evs)

let lt kind ~w ~n =
  let evs = ref [ round_ev (mul_lane kind ~w ~n) ] in
  let d = ref 1 in
  while !d < w do
    evs := round_ev (mul_lane kind ~w:(max 1 (w / (2 * !d))) ~n:(2 * n)) :: !evs;
    d := 2 * !d
  done;
  Array.of_list (List.rev !evs)

let shuffle (kind : Ctx.kind) ~w ~n =
  let bits, rounds, messages =
    match kind with
    | Sh_dm -> (2 * w * n, 2, 2)
    | Sh_hm -> (6 * w * n, 3, 6)
    | Mal_hm -> (24 * w * n, 4, 12)
  in
  [| round_ev (bits, messages); barrier_ev (rounds - 1) |]

let tally_of (evs : Comm.event array) : Comm.tally =
  Array.fold_left
    (fun (t : Comm.tally) (e : Comm.event) ->
      Comm.add_tally t
        {
          Comm.t_rounds = e.ev_rounds;
          t_bits = e.ev_bits;
          t_messages = e.ev_messages;
        })
    Comm.zero_tally evs

let fuse (a : Comm.tally) (b : Comm.tally) =
  { (Comm.add_tally a b) with Comm.t_rounds = max a.t_rounds b.t_rounds }
