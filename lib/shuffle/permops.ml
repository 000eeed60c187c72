(** High-level oblivious permutation protocols (Appendix A.4): shuffle
    (Protocol 4), elementwise-permutation application (Protocol 5),
    composition (Protocol 6), encoding conversion (Protocol 7) and inversion
    (Protocol 8).

    Elementwise permutations are ordinary secret-shared vectors of
    destination indices; the common trick is that once such a vector has
    been routed through a random *sharded* permutation, it can be safely
    opened — the opened vector is the destination vector of [rho o pi^{-1}],
    uniform for uniform [pi].

    Every such opening goes through {!Shardedperm.apply_open}, so it is
    performed by the application that produced the shuffled vector. Under
    SH-HM that application's last pass delivers the vector in the clear in
    its own round: Protocol 5 takes 3 rounds (its two applications fused),
    Protocols 6 and 7 take 6, one fewer than a reshare followed by a
    separate opening. SH-DM and Mal-HM open in a round of their own, as
    the paper's formulas count. *)

open Orq_proto
module Ring = Orq_util.Ring

(* Every index, destination and sigma^{-1} vector over n rows holds values
   below the public n, so it travels, opens and converts at
   [Ring.index_bits n] bits. *)

(* A whole vector through a column-list operator: wrapped as one
   untracked chunk and unwrapped again, both without a copy. *)
let on_whole f (x : Share.shared) : Share.shared =
  match f [ Share.wrap x ] with [ c ] -> Share.unpark c | _ -> assert false

(* Columns that all travel at width [w]. *)
let at_width w cs = List.map (fun c -> (c, w)) cs

(* A whole index column as a lane at the index width of its length. *)
let index_lane (s : Share.shared) = (Share.wrap s, Ring.index_bits (Share.length s))

(* A whole index column, at the index width of its length, through a
   sharded permutation or its inverse. *)
let apply_index ?inverse (ctx : Ctx.t) p (s : Share.shared) =
  let w = Ring.index_bits (Share.length s) in
  on_whole (fun cs -> Shardedperm.apply ?inverse ctx (at_width w cs) p) s

(* Protocol 4's fresh random sharded permutation over the rows of
   [cols]; [None] when there are no columns. *)
let shuffle_perm (ctx : Ctx.t) (cols : (Share.chunked * int) list) =
  match cols with
  | [] -> None
  | (c, _) :: _ ->
      Some
        ( Ctx.with_label ctx "shuffle" @@ fun () ->
          Permmgr.gen ctx (Share.chunked_length c) )

(** Protocol 4: oblivious shuffle of several [(column, width)] pairs
    under one common random sharded permutation. *)
let shuffle_table (ctx : Ctx.t) (cols : (Share.chunked * int) list) :
    Share.chunked list =
  match shuffle_perm ctx cols with
  | None -> []
  | Some p -> Ctx.with_label ctx "shuffle" @@ fun () -> Shardedperm.apply ctx cols p

(** Protocol 4 over the [opened] and [cols] pairs, the [opened] columns
    then opened through {!Shardedperm.apply_open}: under SH-HM the
    opening rides the shuffle's last pass. *)
let shuffle_open_table (ctx : Ctx.t) ~(opened : (Share.chunked * int) list)
    (cols : (Share.chunked * int) list) :
    Orq_util.Vec.t list * Share.chunked list =
  match shuffle_perm ctx (opened @ cols) with
  | None -> ([], [])
  | Some p -> Shardedperm.apply_open ~label:"shuffle" ctx ~opened cols p

(** Protocol 4 on one whole vector, at [width] (default [ctx.ell]). *)
let shuffle ?width (ctx : Ctx.t) x =
  let w = Option.value width ~default:ctx.ell in
  on_whole (fun cs -> shuffle_table ctx (at_width w cs)) x

(** Protocol 5: apply a secret elementwise permutation [rho] to several
    [(column, width)] pairs, paying the shuffle of [rho] and its opening
    once. The two sharded applications act on independent inputs under
    independent permutations, so their rounds are fused (their traffic is
    untouched). The data columns stream chunk at a time (sharded
    application and final scatter); [rho] is a single whole index
    column. *)
let apply_elementwise_table (ctx : Ctx.t) (cols : (Share.chunked * int) list)
    (rho : Share.shared) : Share.chunked list =
  match cols with
  | [] -> []
  | (c0, _) :: _ ->
      Ctx.with_label ctx "applyperm" @@ fun () ->
      let n = Share.chunked_length c0 in
      if Share.length rho <> n then invalid_arg "apply_elementwise: length";
      let p1, p2 = Permmgr.gen_pair ctx n in
      let cs = ref [] and c = ref [||] in
      ignore
        (Mpc.fuse_rounds ctx
           [|
             (fun () -> cs := Shardedperm.apply ctx cols p1);
             (fun () ->
               c :=
                 List.hd
                   (fst
                      (Shardedperm.apply_open ctx ~opened:[ index_lane rho ]
                         [] p2)));
           |]);
      let c = !c in
      List.map
        (fun x ->
          let out = Share.scatter_c x c in
          Share.dispose_c x;
          out)
        !cs

(** Protocol 6: compose two secret elementwise permutations, returning
    [rho o sigma] (apply [sigma] first). *)
let compose (ctx : Ctx.t) (sigma : Share.shared) (rho : Share.shared) :
    Share.shared =
  let n = Share.length sigma in
  if Share.length rho <> n then invalid_arg "compose: length";
  Ctx.with_label ctx "permcompose" @@ fun () ->
  let p = Permmgr.gen ctx n in
  let c =
    List.hd (fst (Shardedperm.apply_open ctx ~opened:[ index_lane sigma ] [] p))
  in
  (* localApplyPerm(rho, c^{-1}) is a gather by c *)
  apply_index ~inverse:true ctx p (Share.gather rho c)

(** Protocol 8: invert a secret elementwise permutation by obliviously
    applying it to the shared identity vector (Fact 1). *)
let invert ?enc (ctx : Ctx.t) (pi : Share.shared) : Share.shared =
  let n = Share.length pi in
  let enc = Option.value enc ~default:pi.Share.enc in
  Ctx.with_label ctx "perminvert" @@ fun () ->
  let identity = Share.public_vec ctx enc (Localperm.identity n) in
  let w = Ring.index_bits n in
  on_whole (fun cs -> apply_elementwise_table ctx (at_width w cs) pi) identity

(** Protocol 7: convert an elementwise permutation between arithmetic and
    boolean sharings. Honest-majority: shuffle, open, reshare under the
    target encoding, unshuffle — cheaper than per-element conversion because
    the multiset of values of a permutation is public. Dishonest-majority:
    per-element share conversion (the paper's choice for 2PC). *)
let convert (ctx : Ctx.t) (x : Share.shared) (target : Share.enc) :
    Share.shared =
  if x.Share.enc = target then x
  else
    Ctx.with_label ctx "permconvert" @@ fun () ->
    let n = Share.length x in
    let w = Ring.index_bits n in
    match ctx.kind with
    | Ctx.Sh_dm -> (
        match target with
        | Share.Bool -> Orq_circuits.Convert.a2b ~w ctx x
        | Share.Arith -> Orq_circuits.Convert.b2a ~w ctx x)
    | Ctx.Sh_hm | Ctx.Mal_hm ->
        let p = Permmgr.gen ctx n in
        let opened =
          List.hd (fst (Shardedperm.apply_open ctx ~opened:[ index_lane x ] [] p))
        in
        apply_index ~inverse:true ctx p (Share.public_vec ctx target opened)
