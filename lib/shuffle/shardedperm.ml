(** Sharded permutations (Appendix A.3): a secret permutation represented as
    a composition of local permutations, each known to one shuffle group but
    none to the adversary.

    - 3PC: three components; each round one pair of parties permutes under
      its common-seed permutation and reshares to the excluded party.
    - 4PC: four components; shuffle groups of three parties, redundant
      resharing (value + digest) gives malicious detection.
    - 2PC: two permutation correlations (Peceny et al.), one per direction,
      produced in preprocessing; online application costs two rounds.

    The lockstep simulation stores the component permutations and performs
    permute-and-reshare exactly; traffic is metered at the per-protocol
    totals of the paper's Table 1.

    An application can also open some of its output lanes
    ({!apply_open}). Under 3PC the last pass's two senders hold a fresh
    2-of-2 split of each lane; for an opened lane each sends its half to
    both other parties instead of resharing to the third, so the opening
    costs no round of its own and 8wn bits instead of 9wn. 2PC cannot do
    this: its second correlation direction leaves the sender without the
    receiver's share. Nor can 4PC: Fantastic Four's opening needs
    redundant delivery plus a digest from a party outside the sending
    group. Both open in a round after the application. *)

open Orq_proto
module Comm = Orq_net.Comm

type t = {
  n : int;
  components : int array array;  (** applied left to right *)
}

let components_of_kind = function
  | Ctx.Sh_dm -> 2
  | Ctx.Sh_hm -> 3
  | Ctx.Mal_hm -> 4

(* Per-application online cost of one sharded permutation over n elements
   of w bits: (bits, rounds, messages); Table 1 totals. *)
let apply_cost (ctx : Ctx.t) ~w n =
  match ctx.kind with
  | Ctx.Sh_dm -> (2 * w * n, 2, 2)
  | Ctx.Sh_hm -> (6 * w * n, 3, 6)
  | Ctx.Mal_hm -> (24 * w * n, 4, 12)

(** Generate a random sharded permutation of [n] elements. Honest-majority
    generation is free (common PRG seeds); the 2PC permutation correlations
    are charged to preprocessing. *)
let gen (ctx : Ctx.t) n : t =
  let k = components_of_kind ctx.kind in
  (* permutations come from the dedicated stream: shuffle-group seeds are
     independent of correlation randomness (see Ctx.perm_prg) *)
  let components = Array.init k (fun _ -> Localperm.random ctx.perm_prg n) in
  (match ctx.kind with
  | Ctx.Sh_dm ->
      (* two OPRF-based permutation correlations (sender roles swapped) *)
      Comm.round ctx.preproc ~bits:(2 * 2 * ctx.ell * n) ~messages:2
  | Ctx.Sh_hm | Ctx.Mal_hm -> ());
  { n; components }

(** Advance the shuffle-permutation stream exactly as {!gen} over [n]
    elements would, keeping nothing and charging nothing. *)
let skip (ctx : Ctx.t) n =
  for _ = 1 to components_of_kind ctx.kind do
    ignore (Localperm.random ctx.perm_prg n)
  done

(** The plaintext permutation a sharded permutation represents (test-only:
    no party could compute this). *)
let plaintext (t : t) =
  Array.fold_left
    (fun acc p -> Localperm.compose p acc)
    (Localperm.identity t.n) t.components

(* Permute-and-reshare one component: every shuffle group applies its local
   permutation to all share vectors and rerandomizes before resharing to the
   excluded party, who keeps the share bits under [mask] (its column's wire
   width). The Mal-HM redundant resharing verifies sender honesty.

   The permute runs chunk-at-a-time through the store ([Chunkvec.scatter] /
   [Chunkvec.gather]) and the resharing noise is drawn per chunk in
   ascending order, so a multi-chunk column streams with a working set of
   one column instead of one table. On an untracked (whole-vector) input
   every step runs once over the whole vector. [owned] marks an
   intermediate whose chunks we must release deterministically. *)
let apply_component (ctx : Ctx.t) (c : Share.chunked) (p : int array)
    ~inverse ~owned ~mask =
  (* applying p places x.(i) at p.(i) (a scatter); its inverse is a
     gather by p. *)
  let permuted =
    if inverse then Share.gather_c c p else Share.scatter_c c p
  in
  if owned then Share.dispose_c c;
  (match ctx.kind with
  | Ctx.Mal_hm ->
      for party = 0 to ctx.parties - 1 do
        if Ctx.tamper_delta ctx ~party ~op:"shuffle" <> 0 then
          raise (Ctx.Abort "shuffle: reshare verification failed")
      done
  | Ctx.Sh_dm | Ctx.Sh_hm -> ());
  let reshared = Share.map_chunks (Mpc.reshare_unmetered ctx ~mask) permuted in
  Share.dispose_c permuted;
  reshared

(* Unmetered component fold over all components (forward or reverse). *)
let fold_components (ctx : Ctx.t) (c : Share.chunked) (t : t) ~inverse ~mask =
  if inverse then begin
    let acc = ref c in
    for i = Array.length t.components - 1 downto 0 do
      acc :=
        apply_component ctx !acc t.components.(i) ~inverse:true
          ~owned:(!acc != c) ~mask
    done;
    !acc
  end
  else
    Array.fold_left
      (fun acc p ->
        apply_component ctx acc p ~inverse:false ~owned:(acc != c) ~mask)
      c t.components

(* The share bits a party keeps of column [pos] received at width [w]
   (1 to [ctx.ell]): the low [w] bits of each share. For a boolean
   column that keeps the value's low [w] bits; for an arithmetic one it
   keeps the value modulo 2^w, all a [w]-bit lane carries. The one
   exception is an arithmetic column at the index width of its length,
   an elementwise-permutation index vector: its values (< n) live in the
   [Ring.index_bits n]-bit index ring, and it is metered there and left
   unmasked, so that it reconstructs exactly. Under debug checks every
   narrowed boolean column and every index vector is reconstructed and
   must fit its width, so a wrong declared width fails loudly instead of
   under-metering the wire; a narrowed arithmetic lane is defined modulo
   2^w only and has nothing to check. *)
let index_vector (ctx : Ctx.t) ((c : Share.chunked), w) =
  Share.chunked_enc c = Share.Arith
  && w < ctx.ell
  && w = Orq_util.Ring.index_bits (Share.chunked_length c)

let receive_mask (ctx : Ctx.t) pos ((c : Share.chunked), w) =
  let enc = Share.chunked_enc c in
  if w < 1 || w > ctx.ell then
    invalid_arg (Printf.sprintf "Shardedperm.apply: column %d at width %d" pos w);
  let index = index_vector ctx (c, w) in
  if w < ctx.ell && (enc = Share.Bool || index) && Orq_util.Debug.enabled () then
    Array.iteri
      (fun i v ->
        if v lsr w <> 0 then
          invalid_arg
            (Printf.sprintf
               "Shardedperm.apply: column %d holds %d at row %d, above its \
                width %d"
               pos v i w))
      (Share.reconstruct_c c);
  if index || w >= Orq_util.Ring.word_bits then Orq_util.Ring.ones
  else Orq_util.Ring.mask w

(* Check the columns' lengths, then their receive masks. *)
let masks_of (ctx : Ctx.t) (cols : (Share.chunked * int) list) (t : t) =
  if List.exists (fun (c, _) -> Share.chunked_length c <> t.n) cols then
    invalid_arg "Shardedperm.apply: length";
  List.mapi (receive_mask ctx) cols

(* Σ over the columns of [cost] at each column's width. *)
let sum_bits cost cols =
  List.fold_left (fun acc (_, w) -> acc + cost w) 0 cols

(* Bits of one reshared lane of [w] bits over n elements. *)
let lane_bits (ctx : Ctx.t) n w =
  let b, _, _ = apply_cost ctx ~w n in
  b

(* Charge one application: its bits and messages ride the first round,
   the remaining passes follow as a payload-free barrier. *)
let meter (ctx : Ctx.t) ~bits ~messages =
  let _, rounds, _ = apply_cost ctx ~w:ctx.ell 0 in
  Comm.round ctx.comm ~bits ~messages;
  Comm.rounds_only ctx.comm (rounds - 1)

(* The first [k] elements of [l], and the rest. *)
let split_at k l =
  (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)

(** Apply a sharded permutation, or with [~inverse:true] its inverse
    (components undone in reverse order), to several [(column, width)]
    pairs at once. Metered as one application: the rounds of a single
    column (the columns travel together) and Σ {!apply_cost} over the
    column widths in bits. Each receiving party keeps the low [width] bits
    of a boolean column's shares (see [receive_mask]); the mask rides the
    resharing pass. The columns stream one after another, chunk at a
    time, so a tracked table's working set is one column; chunking only
    reorders local evaluation, never the wire protocol. *)
let apply ?(inverse = false) (ctx : Ctx.t)
    (cols : (Share.chunked * int) list) (t : t) : Share.chunked list =
  match cols with
  | [] -> []
  | _ ->
      let masks = masks_of ctx cols t in
      let _, _, messages = apply_cost ctx ~w:ctx.ell t.n in
      meter ctx ~bits:(sum_bits (lane_bits ctx t.n) cols) ~messages;
      List.map2
        (fun (c, _) mask -> fold_components ctx c t ~inverse ~mask)
        cols masks

(* SH-HM cost of one opened lane of {!apply_open}: the first two passes
   reshare it (2wn bits each); in the last, each of the two senders sends
   its half of the fresh 2-of-2 split to both other parties (4wn). *)
let open_lane_bits ~w n = 8 * w * n

(** Apply a sharded permutation to the [opened] and [cols] pairs under one
    application and open the [opened] lanes, whose values the last pass
    produced. Under SH-HM the opening rides that pass: its two senders
    send their halves of each opened lane to both other parties instead
    of resharing them to the third, so the application keeps its 3 rounds
    and an opened lane costs 8wn bits where a reshare and a separate
    opening cost 4 rounds and 9wn; the round carries 8 messages (the two
    extra halves between the senders) when any lane opens. The third
    party sees a uniform split of a value it is being sent anyway, so the
    view is the reshare-then-open view. Under SH-DM and Mal-HM the
    application is followed by {!Mpc.open_many} exactly as before, outside
    [label]. The [cols] lanes reshare as in {!apply}. Returns the opened
    vectors and the permuted [cols]. *)
let apply_open ?label (ctx : Ctx.t) ~(opened : (Share.chunked * int) list)
    (cols : (Share.chunked * int) list) (t : t) :
    Orq_util.Vec.t list * Share.chunked list =
  let labelled f =
    match label with None -> f () | Some l -> Ctx.with_label ctx l f
  in
  let k = List.length opened in
  (* a narrowed arithmetic lane is defined modulo 2^w only: it cannot open *)
  List.iteri
    (fun pos (c, w) ->
      if Share.chunked_enc c = Share.Arith && w < ctx.ell && not (index_vector ctx (c, w))
      then
        invalid_arg
          (Printf.sprintf "Shardedperm.apply_open: arithmetic lane %d opened at width %d"
             pos w))
    opened;
  match (opened, ctx.kind) with
  | [], _ -> ([], labelled (fun () -> apply ctx cols t))
  | _, (Ctx.Sh_dm | Ctx.Mal_hm) ->
      let o, rest = split_at k (labelled (fun () -> apply ctx (opened @ cols) t)) in
      let vs =
        Mpc.open_many
          ~widths:(Array.of_list (List.map snd opened))
          ctx
          (Array.of_list (List.map Share.unpark o))
      in
      (Array.to_list vs, rest)
  | _, Ctx.Sh_hm ->
      labelled @@ fun () ->
      let omasks, cmasks = split_at k (masks_of ctx (opened @ cols) t) in
      meter ctx
        ~bits:
          (sum_bits (fun w -> open_lane_bits ~w t.n) opened
          + sum_bits (lane_bits ctx t.n) cols)
        ~messages:8;
      (* an opened lane takes every pass but the last as in [apply], then
         the last permute with its resharing sent in the clear *)
      let last = Array.length t.components - 1 in
      let front = { t with components = Array.sub t.components 0 last } in
      let open_lane (c, _) mask =
        let c' = fold_components ctx c front ~inverse:false ~mask in
        let permuted = Share.scatter_c c' t.components.(last) in
        if c' != c then Share.dispose_c c';
        let v = Mpc.reshare_open_unmetered ctx ~mask permuted in
        Share.dispose_c permuted;
        v
      in
      (* opened lanes draw their resharing randomness first, as in
         [apply (opened @ cols)] *)
      let vs = List.map2 open_lane opened omasks in
      let cs =
        List.map2
          (fun (c, _) mask -> fold_components ctx c t ~inverse:false ~mask)
          cols cmasks
      in
      (vs, cs)
