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

let traffic_ev (bits, messages) =
  {
    Comm.ev_op = Comm.Traffic;
    ev_label = "";
    ev_rounds = 0;
    ev_bits = bits;
    ev_messages = messages;
  }

(* Lanes of one fused round: lane 0 opens it, the others ride it. *)
let lanes_ev lanes =
  List.mapi (fun i l -> if i = 0 then round_ev l else traffic_ev l) lanes

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

(* The live products of a ladder level at block size [d]: w/(2d) lt
   products, and as many eq products when the caller reads the lowest
   block's eq ([full]), one fewer otherwise; the last level forms the lt
   product alone. *)
let ladder_level ~full ~last ~w d =
  let ws = max 1 (w / (2 * d)) in
  if last then ws else if full then 2 * ws else (2 * ws) - 1

let lt kind ~w ~n =
  let evs = ref [ round_ev (mul_lane kind ~w ~n) ] in
  let d = ref 1 in
  while !d < w do
    let w' = ladder_level ~full:false ~last:(2 * !d >= w) ~w !d in
    evs := round_ev (mul_lane kind ~w:w' ~n) :: !evs;
    d := 2 * !d
  done;
  Array.of_list (List.rev !evs)

(* Live positions of level j of a prefix over m carry positions: a G
   product at every position with bit j set, and a P product at those of
   them with a higher bit set too — the positions a later level's G update
   reads. *)
let prefix_live ~m j =
  let s = 1 lsl j in
  let with_bit_j m =
    ((m lsr (j + 1)) lsl j) + max 0 ((m land ((2 * s) - 1)) - s)
  in
  let g = with_bit_j m in
  g + (g - with_bit_j (min m (2 * s)))

(* The prefix levels of a w-bit sum: ⌈log₂(w − 1)⌉ of them, over the
   w − 1 carry positions (the top carry is never read). *)
let prefix kind ~w ~n =
  let m = max 0 (w - 1) in
  Array.init (Orq_util.Ring.log2_ceil m) (fun j ->
      round_ev (mul_lane kind ~w:(prefix_live ~m j) ~n))

let add kind ~w ~n =
  if w < 2 then [||]
  else Array.append [| round_ev (mul_lane kind ~w:(w - 1) ~n) |] (prefix kind ~w ~n)

let a2b kind ~ell ~w ~n =
  Array.append
    [| round_ev (open_lane kind ~w:ell ~n) |]
    (prefix kind ~w:(min w Orq_util.Ring.word_bits) ~n)

(* One sharded-permutation application over [w] bits per element:
   (bits, rounds, messages). *)
let shuffle_cost (kind : Ctx.kind) ~w ~n =
  match kind with
  | Sh_dm -> (2 * w * n, 2, 2)
  | Sh_hm -> (6 * w * n, 3, 6)
  | Mal_hm -> (24 * w * n, 4, 12)

let shuffle kind ~w ~n =
  let bits, rounds, messages = shuffle_cost kind ~w ~n in
  [| round_ev (bits, messages); barrier_ev (rounds - 1) |]

let shuffle_open (kind : Ctx.kind) ~w ~opened ~n =
  let ow = List.fold_left ( + ) 0 opened in
  match (opened, kind) with
  | [], _ -> shuffle kind ~w ~n
  | _, Sh_hm ->
      let bits, rounds, _ = shuffle_cost kind ~w ~n in
      [| round_ev (bits + (8 * ow * n), 8); barrier_ev (rounds - 1) |]
  | _, (Sh_dm | Mal_hm) ->
      (* the application, then one fused opening round of the lanes *)
      Array.append
        (shuffle kind ~w:(w + ow) ~n)
        (Array.of_list
           (lanes_ev (List.map (fun wo -> open_lane kind ~w:wo ~n) opened)))

let applyperm (kind : Ctx.kind) ~w ~n =
  let iw = Orq_util.Ring.index_bits n in
  (* the data application and rho's opened one run as fused tracks: the
     second's first-round payload rides the first's round *)
  let data = shuffle kind ~w ~n and rho = shuffle_open kind ~w:0 ~opened:[ iw ] ~n in
  let piggy (e : Comm.event) = { e with Comm.ev_op = Comm.Traffic; ev_rounds = 0 } in
  Array.concat
    [ [| data.(0); piggy rho.(0) |]; Array.sub rho 1 (Array.length rho - 1) ]

let rank_digit (kind : Ctx.kind) ~l ~n =
  if l < 1 || l > 3 then invalid_arg "Primcost.rank_digit: digits are 1 to 3 bits";
  let k = Orq_util.Ring.index_bits n in
  let lanes m w = Array.of_list (lanes_ev (List.init m (fun _ -> w))) in
  let binom d = if d = 2 then l * (l - 1) / 2 else 1 in
  Array.concat
    ([ b2a kind ~w:l ~n ]
    @ List.init (l - 1) (fun j -> lanes (binom (j + 2)) (mul_lane kind ~w:k ~n))
    @ [
        (* the ranking inner product: one lane under honest majority, one
           Beaver lane per non-zero digit value under SH-DM *)
        lanes (if kind = Sh_dm then (1 lsl l) - 1 else 1) (mul_lane kind ~w:k ~n);
      ])

let lt_lex_open (kind : Ctx.kind) ~ws ~n =
  let k = List.length ws in
  if k = 0 then invalid_arg "Primcost.lt_lex_open: no columns";
  let one = match ws with [ w ] -> Some w | _ -> None in
  let rounds = ref [] in
  let emit lanes = if lanes <> [] then rounds := lanes_ev lanes :: !rounds in
  (* the initial AND of every column, unless one 1-bit column's initial
     AND is itself the last AND *)
  if one <> Some 1 then emit (List.map (fun w -> mul_lane kind ~w ~n) ws);
  (* the ladder levels; one column's ladder stops before the level whose
     blocks span the word. The last (least significant) column's eq is
     never read. *)
  let d = ref 1 in
  let more w = !d < w && not (one <> None && 2 * !d >= w) in
  while List.exists more ws do
    emit
      (List.concat
         (List.mapi
            (fun i w ->
              if not (more w) then []
              else [ mul_lane kind ~w:(ladder_level ~full:(i < k - 1) ~last:false ~w !d) ~n ])
            ws));
    d := 2 * !d
  done;
  (* the packed lexicographic merge: two single-bit ANDs per adjacent
     pair, down to two pairs; a pair holding the least significant group
     forms its lt product alone *)
  let m = ref k in
  while !m > 2 do
    let pn = !m / 2 in
    let ands = (2 * pn) - if !m mod 2 = 0 then 1 else 0 in
    emit (List.init ands (fun _ -> mul_lane kind ~w:1 ~n));
    m := pn + (!m mod 2)
  done;
  (* the last AND forms only the lt product; under SH-HM it opens in its
     own round *)
  let last =
    if kind = Sh_hm then [ round_ev (6 * n, 6) ]
    else [ round_ev (mul_lane kind ~w:1 ~n); round_ev (open_lane kind ~w:1 ~n) ]
  in
  Array.of_list (List.concat (List.rev !rounds) @ last)

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

(* ------------------------------------------------------------------ *)
(* Ranking priced candidates                                            *)
(* ------------------------------------------------------------------ *)

let the_profile = ref Orq_net.Netsim.lan
let profile () = !the_profile
let set_profile p = the_profile := p

let rank (t : Comm.tally) =
  (Orq_net.Netsim.network_time !the_profile t, t.Comm.t_rounds, t.Comm.t_bits)

(* ------------------------------------------------------------------ *)
(* TableSort's two radix paths                                         *)
(* ------------------------------------------------------------------ *)

let sum_widths = List.fold_left ( + ) 0

(* One digit of [l] bits: its ranking, then Protocol 5 over [w] bits. *)
let radix_digit kind ~n ~l ~w =
  tally_of (Array.append (rank_digit kind ~l ~n) (applyperm kind ~w ~n))

let tablesort_carry kind ~n ~digits ~keys ~payload =
  let row = sum_widths keys + sum_widths payload in
  List.fold_left
    (fun acc l -> Comm.add_tally acc (radix_digit kind ~n ~l ~w:row))
    Comm.zero_tally digits

let tablesort_sigma kind ~n ~digits ~keys ~payload =
  let iw = Orq_util.Ring.index_bits n and total = sum_widths digits in
  let ranks, _ =
    List.fold_left
      (fun (acc, ranked) l ->
        let ranked = ranked + l in
        (Comm.add_tally acc (radix_digit kind ~n ~l ~w:(total - ranked + iw)), ranked))
      (Comm.zero_tally, 0) digits
  in
  List.fold_left Comm.add_tally ranks
    [
      tally_of (applyperm kind ~w:iw ~n);
      tally_of (applyperm kind ~w:(sum_widths keys + sum_widths payload) ~n);
    ]

(* ------------------------------------------------------------------ *)
(* The two GROUP BY paths for invertible aggregates                    *)
(* ------------------------------------------------------------------ *)

(* One fused round of [lanes] (bits, messages) pairs. *)
let round_of lanes = tally_of (Array.of_list (lanes_ev lanes))

(* Composite-key equality ([Compare.eq_composite_many]) over groups of
   [ns] row pairs keyed on columns of widths [ws]: every column's ladder
   in every group in fused rounds, then the lockstep packed AND tree over
   the columns, one width-1 lane per pair and group. *)
let eq_composite kind ~ws ~ns =
  let ladders =
    List.fold_left
      (fun acc n ->
        List.fold_left (fun acc w -> fuse acc (tally_of (eq kind ~w ~n))) acc ws)
      Comm.zero_tally ns
  in
  let rec tree acc m =
    if m <= 1 then acc
    else
      let p = m / 2 in
      tree
        (Comm.add_tally acc
           (round_of (List.concat_map (fun n -> List.init p (fun _ -> mul_lane kind ~w:1 ~n)) ns)))
        (p + (m mod 2))
  in
  tree ladders (List.length ws)

(* The source conversions (one full-width B2A each, in sequence) as a
   track fused with the group-boundary ladder [ladder]. *)
let with_conv kind ~n ~conv ladder =
  fuse
    (tally_of (Array.concat (List.map (fun w -> b2a kind ~w:(min w Orq_util.Ring.word_bits) ~n) conv)))
    ladder

type finish = { f_ell : int; f_totals : int list; f_divs : (int * int * int) list }

(* The finish over [n] rows: the fused A2B of the totals (one opening
   round at [ell] bits, then the lockstep prefix levels of
   [Adder.sub_pub_minuend_many]) beside the one-bit AND of validity with
   the group ends, then each AVG's [Divide.udiv] in turn: [qw]
   iterations of a (wd + 2)-bit adder, [qw] and [wd] clamped to [1, w]. *)
let agg_finish kind ~n f =
  let a2b =
    if f.f_totals = [] then Comm.zero_tally
    else
      let ms = List.map (fun w -> max 0 (min w Orq_util.Ring.word_bits - 1)) f.f_totals in
      let depth = List.fold_left (fun d m -> max d (Orq_util.Ring.log2_ceil m)) 0 ms in
      List.fold_left Comm.add_tally
        (round_of (List.map (fun _ -> open_lane kind ~w:f.f_ell ~n) f.f_totals))
        (List.init depth (fun j ->
             round_of
               (List.filter_map
                  (fun m ->
                    if j < Orq_util.Ring.log2_ceil m then Some (mul_lane kind ~w:(prefix_live ~m j) ~n)
                    else None)
                  ms)))
  in
  List.fold_left
    (fun acc (qw, w, wd) ->
      let wr = max 1 (min wd w) + 2 in
      List.fold_left Comm.add_tally acc
        (List.init (max 1 (min qw w)) (fun _ -> tally_of (add kind ~w:wr ~n))))
    (fuse a2b (tally_of (mul kind ~w:1 ~n)))
    f.f_divs

let aggnet kind ~n ~keys ~conv ~sums ~finish =
  let n2 = Orq_util.Ring.next_pow2 n in
  let rec levels d = if d < n2 then (n2 - d) :: levels (2 * d) else [] in
  let ns = levels 1 in
  List.fold_left Comm.add_tally
    (with_conv kind ~n ~conv
       (if ns = [] then Comm.zero_tally else eq_composite kind ~ws:keys ~ns))
    ((if ns = [] || sums = [] then []
      else
        round_of (List.map (fun n -> open_lane kind ~w:1 ~n) ns)
        :: List.map (fun n -> round_of (List.map (fun w -> mul_lane kind ~w ~n) sums)) ns)
    @ [ agg_finish kind ~n finish ])

let aggcompact kind ~n ~bound ~keys ~conv ~sums ~local ~moved ~finish =
  let totals = sum_widths sums + (local * Orq_util.Ring.index_bits (n + 1)) in
  List.fold_left Comm.add_tally
    (with_conv kind ~n ~conv
       (if n <= 1 then Comm.zero_tally else eq_composite kind ~ws:keys ~ns:[ n - 1 ]))
    [
      tally_of (b2a kind ~w:1 ~n);
      round_of
        (List.map (fun w -> mul_lane kind ~w ~n) (Orq_util.Ring.index_bits n :: sums));
      tally_of (applyperm kind ~w:(moved + 1 + totals) ~n);
      agg_finish kind ~n:bound finish;
    ]
