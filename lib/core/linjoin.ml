(** LINQ-style linear-complexity oblivious join — see the interface for
    the contract and the declared leakage.

    Pipeline (all vector lengths are the public physical sizes n, m,
    N = n + m):

    + pack the per-row composite key into one ring word (widths maxed
      across sides; local GF(2) shifts and xors);
    + convert packed keys to arithmetic and validity bits to 0/1 in one
      fused opening round;
    + fingerprint every row under per-query secret constants (r, c1, c2)
      and a per-row fresh mask u:
      {[ f = ((x*r + c1)^2 + c2)^2 + (1 - v) * u ]}
      — four multiplication lanes in three fused rounds. The secret
      multiplier and the two keyed squarings stand in for a shared-key
      PRF on the key (equal keys agree, distinct keys collide with
      probability ~ (n*m)/2^57); invalid rows are displaced by the
      uniform mask u, so they never match anything;
    + shuffle build and probe sides under independent random sharded
      permutations (rounds fused), carrying each side's payload columns,
      and open both fingerprint columns with their shuffles (under SH-HM
      in the shuffles' last round, {!Orq_shuffle.Shardedperm.apply_open});
    + match the opened fingerprints with a plaintext hash table — the
      only plaintext work, on values whose joint distribution is the
      declared LINQ profile;
    + assemble the output locally: public match indices gather the build
      payload; the probe validity column is AND-masked with the public
      matched (inner) or unmatched (anti) pattern. *)

open Orq_proto
module Ring = Orq_util.Ring
module Permops = Orq_shuffle.Permops

let sum_widths (left : Table.t) (right : Table.t) (on : string list) =
  List.fold_left
    (fun acc k -> acc + max (Table.width left k) (Table.width right k))
    0 on

let packable (ctx : Ctx.t) ~(left : Table.t) ~(right : Table.t)
    ~(on : string list) =
  let wk = sum_widths left right on in
  on <> [] && wk >= 1 && wk <= ctx.Ctx.ell - 1

(* Pack a table's join-key columns into one boolean-shared ring word per
   row: column k shifted to its offset, all xored (local, linear). *)
let pack_keys (ctx : Ctx.t) (t : Table.t) ~(on : string list)
    ~(widths : int list) : Share.shared =
  let packed, _ =
    List.fold_left2
      (fun (acc, off) k w ->
        let c = Mpc.and_mask (Column.as_bool ctx (Table.find t k)) (Ring.mask w) in
        let c = if off = 0 then c else Mpc.lshift c off in
        ((match acc with None -> Some c | Some a -> Some (Mpc.xor a c)), off + w))
      (None, 0) on widths
  in
  Option.get packed

(* Broadcast element [i] of a (short) shared vector across n rows — share
   replication is linear. *)
let broadcast_elt (s : Share.shared) i n =
  Share.map_vectors (fun vk -> Array.make n vk.(i)) s

let join (ctx : Ctx.t) (variant : [ `Inner | `Anti ])
    ?(copy : string list = []) ~(left : Table.t) ~(right : Table.t)
    ~(on : string list) () : Table.t =
  Ctx.with_label ctx "linjoin" @@ fun () ->
  let n = Table.nrows left and m = Table.nrows right in
  if n = 0 || m = 0 then invalid_arg "Linjoin.join: empty input";
  if variant = `Anti && copy <> [] then
    invalid_arg "Linjoin.join: anti join carries no copy columns";
  if not (packable ctx ~left ~right ~on) then
    invalid_arg "Linjoin.join: composite key does not pack into one word";
  let widths =
    List.map (fun k -> max (Table.width left k) (Table.width right k)) on
  in
  let wk = List.fold_left ( + ) 0 widths in
  let nm = n + m in
  (* --- 1-2: pack keys, concatenate sides, convert in one fused round --- *)
  let kcat =
    Share.append
      (pack_keys ctx left ~on ~widths)
      (pack_keys ctx right ~on ~widths)
  in
  let vcat = Share.append left.Table.valid right.Table.valid in
  let conv =
    Mpc.fuse_rounds ctx
      [|
        (fun () -> Orq_circuits.Convert.b2a ~w:wk ctx kcat);
        (fun () -> Orq_circuits.Convert.bit_b2a ctx (Share.pack_flags vcat));
      |]
  in
  let x = conv.(0) and va = conv.(1) in
  (* --- 3: fingerprint under secret constants and per-row masks --- *)
  let rc = Dealer.random_shared ctx Share.Arith 3 in
  let u = Dealer.random_shared ctx Share.Arith nm in
  let t = Mpc.add_pub (Mpc.neg va) 1 in
  let prods = Mpc.mul_many ctx [| x; t |] [| broadcast_elt rc 0 nm; u |] in
  let s1 = Mpc.add prods.(0) (broadcast_elt rc 1 nm) in
  let y = Mpc.mul ctx s1 s1 in
  let s2 = Mpc.add y (broadcast_elt rc 2 nm) in
  let z = Mpc.mul ctx s2 s2 in
  let f = Mpc.add z prods.(1) in
  (* --- 4-5: split sides, shuffle independently (rounds fused),
         carrying each side's payload --- *)
  let f_build, f_probe = Share.split2 f n in
  let copy_cols =
    List.map
      (fun name ->
        let c = Table.find left name in
        (Column.as_bool ctx c, c.Column.width))
      copy
  in
  (* probe columns travel at their output domains: keys at the hull of
     both sides', payload at its own *)
  let out_dom (name, c) =
    if List.mem name on then Table.key_dom left right name else c.Column.dom
  in
  let probe_data =
    List.map
      (fun ((_, c) as nc) -> (Column.as_bool ctx c, Dom.width (out_dom nc)))
      right.Table.cols
  in
  let wrap = List.map (fun (d, w) -> (Share.wrap d, w)) in
  (* --- 6: each side's fingerprint column opens with its shuffle --- *)
  let shuffle_open f cols () =
    match
      Permops.shuffle_open_table ctx ~opened:[ (Share.wrap f, ctx.ell) ]
        (wrap cols)
    with
    | [ o ], rest -> (o, List.map Share.unpark rest)
    | _ -> assert false
  in
  let shuffled =
    Mpc.fuse_rounds ctx
      [|
        shuffle_open f_build copy_cols;
        shuffle_open f_probe ((right.Table.valid, 1) :: probe_data);
      |]
  in
  let (ob, copied'), (op, probe') = (shuffled.(0), shuffled.(1)) in
  let pvalid', probe_data' =
    match probe' with v :: rest -> (v, rest) | [] -> assert false
  in
  (* --- 7: plaintext matching on the opened fingerprints. Duplicate
         build fingerprints keep the first hit: valid build keys are
         unique by contract and invalid rows are uniformly displaced, so
         ties only arise from negligible-probability collisions. --- *)
  let tbl = Hashtbl.create (2 * n) in
  for i = n - 1 downto 0 do
    Hashtbl.replace tbl ob.(i) i
  done;
  let gidx = Array.make m 0 in
  let matched = Array.make m 0 in
  for j = 0 to m - 1 do
    match Hashtbl.find_opt tbl op.(j) with
    | Some i ->
        gidx.(j) <- i;
        matched.(j) <- 1
    | None -> ()
  done;
  (* --- 8: output validity — a local AND with the public match pattern.
         A matched probe row's build partner is valid with overwhelming
         probability (invalid fingerprints are uniform), so no secure AND
         with the build validity is needed. --- *)
  let mask =
    match variant with
    | `Inner -> matched
    | `Anti -> Array.map (fun b -> 1 - b) matched
  in
  let valid_out = Mpc.and_mask_vec pvalid' mask in
  (* --- 9: assemble — probe columns pass through; copy columns gather
         the matching build rows by public index (garbage on unmatched
         rows, which are invalid) --- *)
  let out_cols =
    List.map2
      (fun ((name, _) as nc) d ->
        (name, Column.of_shared ~dom:(out_dom nc) d))
      right.Table.cols probe_data'
  in
  let key_cols, pay_cols =
    List.partition (fun (name, _) -> List.mem name on) out_cols
  in
  let key_cols = List.map (fun k -> (k, List.assoc k key_cols)) on in
  let copy_out =
    List.map2
      (fun name d ->
        (name, Column.with_data (Table.find left name) (Share.gather d gidx)))
      copy copied'
  in
  Table.of_columns ctx
    (left.Table.name ^ "_join_" ^ right.Table.name)
    ~valid:valid_out
    (key_cols @ pay_cols @ copy_out)
