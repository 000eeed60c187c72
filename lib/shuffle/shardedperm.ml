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
    totals of the paper's Table 1. *)

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
  (* Localperm.apply places x.(i) at p.(i) (a scatter); its inverse is a
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

(* The share bits a party keeps of column [pos] received at width [w]: a
   boolean column narrower than the word keeps its low [w] bits. An
   arithmetic column travels at [ctx.ell] — its shares cannot be reduced
   in place — except an elementwise-permutation index vector, whose
   values (< n) live in the [Ring.index_bits n]-bit index ring; it is
   metered there and left unmasked. Under debug checks every narrowed
   column, index columns included, is reconstructed and must fit its
   width, so a wrong declared width fails loudly instead of
   under-metering the wire. *)
let receive_mask (ctx : Ctx.t) pos ((c : Share.chunked), w) =
  let enc = Share.chunked_enc c in
  let iw = Orq_util.Ring.index_bits (Share.chunked_length c) in
  (match enc with
  | Share.Bool ->
      if w < 1 || w > ctx.ell then
        invalid_arg
          (Printf.sprintf "Shardedperm.apply: column %d at width %d" pos w)
  | Share.Arith ->
      if w <> ctx.ell && w <> iw then
        invalid_arg
          (Printf.sprintf
             "Shardedperm.apply: arithmetic column %d at width %d (must be \
              %d, or %d for a permutation index)"
             pos w ctx.ell iw));
  if w < ctx.ell && Orq_util.Debug.enabled () then
    Array.iteri
      (fun i v ->
        if v lsr w <> 0 then
          invalid_arg
            (Printf.sprintf
               "Shardedperm.apply: column %d holds %d at row %d, above its \
                width %d"
               pos v i w))
      (Share.reconstruct_c c);
  match enc with
  | Share.Bool when w < Orq_util.Ring.word_bits -> Orq_util.Ring.mask w
  | Share.Bool | Share.Arith -> Orq_util.Ring.ones

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
      if List.exists (fun (c, _) -> Share.chunked_length c <> t.n) cols then
        invalid_arg "Shardedperm.apply: length";
      let masks = List.mapi (receive_mask ctx) cols in
      let bits =
        List.fold_left
          (fun acc (_, w) ->
            let b, _, _ = apply_cost ctx ~w t.n in
            acc + b)
          0 cols
      in
      let _, rounds, messages = apply_cost ctx ~w:ctx.ell t.n in
      Comm.round ctx.comm ~bits ~messages;
      Comm.rounds_only ctx.comm (rounds - 1);
      List.map2
        (fun (c, _) mask -> fold_components ctx c t ~inverse ~mask)
        cols masks
