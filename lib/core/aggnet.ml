(** The aggregation network (§3.1, Protocol 1; correctness in Appendix C.2).

    A Hillis–Steele doubling network over a table sorted on its grouping
    key: at distance d, every row pair (i, i+d) with equal keys combines its
    values into row i+d. After ceil(log2 n) doublings, copy-style functions
    have propagated the *first* row of each group into all its rows, and
    self-decomposable functions (sum, min, max, ...) have accumulated the
    whole group into its *last* row — O(n log n) work, O(log n) rounds.

    Several aggregation functions run in the same control flow, reusing the
    per-level group-boundary bits (the paper's multi-function optimization);
    functions may also use the *extended* key set (group key plus the
    table-id column) for the valid-bit propagation of the join operator.

    The network pads to a power of two with invalid rows, exactly like the
    engine the paper describes (the padding is what produces the Q12
    scaling outlier in Figure 8); padded rows carry key 0 with validity 0
    and can never merge with a valid group because the validity bit is part
    of every aggregation key.

    For invertible aggregates the module also carries the second path,
    {!compact}: each group total as the difference of two prefix sums at
    consecutive group ends, brought together by one stable one-bit
    compaction (genBitPerm and Protocol 5) in a constant number of
    rounds instead of ceil(log2 n) levels. *)

open Orq_proto
module Compare = Orq_circuits.Compare
module Mux = Orq_circuits.Mux
module Convert = Orq_circuits.Convert

type func =
  | Copy  (** propagate the group's first row downward (f(x, y) = x) *)
  | Sum  (** running sum; group total lands in the last row *)
  | Min of int  (** running minimum of the given width *)
  | Max of int

type keyset = Group | Group_and_tid
    (** which key set guards the function: the aggregation key K_a, or the
        extended K_s = K_a + table-id used for valid-bit propagation *)

type spec = {
  col : Share.shared;
  func : func;
  keys : keyset;
  width : int;  (** logical bit width of the column (metering) *)
}

(* Split a column into the upper rows [0, n-d) and lower rows [d, n). *)
let slices s d =
  let n = Share.length s in
  (Share.sub_range s 0 (n - d), Share.sub_range s d (n - d))

(* Pad a column of [n] rows with [n2 - n] invalid zero rows. *)
let pad (ctx : Ctx.t) ~n ~n2 s =
  if n2 = n then s else Share.append s (Share.public ctx s.Share.enc (n2 - n) 0)

type boundaries = {
  b_n : int;  (** rows of the (unpadded) table *)
  b_levels : int array;  (** doubling distances *)
  b_group : Share.flags array;
      (** per level d: lane i is eq(K_a[i], K_a[i+d]) over the padded rows *)
  b_tid : Share.flags array option;
      (** per level: eq(Tid[i], Tid[i+d]), when a tid column was given *)
}

(** [boundaries ctx ~keys ?tid ()] is the network's pre-pass over a table
    already sorted on [keys] (which must include the validity column).
    The group-boundary bits of every doubling level depend only on the key
    (and tid) columns, which the network never modifies — so all levels'
    equality ladders run as one fused lockstep batch instead of each
    level's ladder sequentially. Their distance-1 level also yields the
    first- and last-of-group marks ({!first_of_group}, {!last_of_group})
    without another ladder. *)
let boundaries (ctx : Ctx.t) ~(keys : (Share.shared * int) list)
    ?(tid : Share.shared option) () : boundaries =
  Ctx.with_label ctx "aggnet" @@ fun () ->
  let n = Share.length (fst (List.hd keys)) in
  let n2 = Orq_util.Ring.next_pow2 n in
  let keys = List.map (fun (k, w) -> (pad ctx ~n ~n2 k, w)) keys in
  let levels =
    let rec go d acc = if d < n2 then go (2 * d) (d :: acc) else List.rev acc in
    Array.of_list (go 1 [])
  in
  let nlev = Array.length levels in
  let key_groups =
    Array.map
      (fun dd ->
        List.map
          (fun (k, w) ->
            let u, l = slices k dd in
            (u, l, w))
          keys)
      levels
  in
  let all_groups =
    match tid with
    | Some t ->
        let t = pad ctx ~n ~n2 t in
        Array.append key_groups
          (Array.map
             (fun dd ->
               let u, l = slices t dd in
               [ (u, l, 1) ])
             levels)
    | None -> key_groups
  in
  (* all group-boundary bits live in packed flag lanes: the equality
     ladders deliver them packed, the tid conjunction is a packed AND and
     Sum's bit conversion consumes the packed lanes directly *)
  let bits = Compare.eq_composite_many ctx all_groups in
  {
    b_n = n;
    b_levels = levels;
    b_group = Array.sub bits 0 nlev;
    b_tid = Option.map (fun _ -> Array.sub bits nlev nlev) tid;
  }

(* Group marks of [n] sorted rows from the flags [eq] of
   eq(K[i], K[i+1]) for i < n-1: [~first] marks row 0 and each row after
   an inequality, otherwise each row before one and row n-1 (no rows,
   no marks). Local. *)
let marks (ctx : Ctx.t) ~first n (eq : unit -> Share.flags) : Share.flags =
  if n <= 1 then Share.pack_flags (Share.public ctx Share.Bool n 1)
  else
    let one = Share.pack_flags (Share.public ctx Share.Bool 1 1) in
    let ne = Mpc.bnot_f (eq ()) in
    Share.flags_concat_many (if first then [| one; ne |] else [| ne; one |])

(* The distance-1 level's bits over the real row pairs. *)
let adjacent_eq (b : boundaries) () =
  Share.pack_flags
    (Share.sub_range (Share.unpack_flags b.b_group.(0)) 0 (b.b_n - 1))

(** Mark each group's first row (row i is first iff ¬eq(K_a[i-1], K_a[i]),
    row 0 always) — the oblivious DISTINCT of §3.1, derived locally from
    the pre-pass. *)
let first_of_group (ctx : Ctx.t) (b : boundaries) : Share.flags =
  marks ctx ~first:true b.b_n (adjacent_eq b)

(** Mark each group's last row (row i is last iff ¬eq(K_a[i], K_a[i+1]),
    the last row always) — the row holding the group aggregate after
    {!propagate}. Local. *)
let last_of_group (ctx : Ctx.t) (b : boundaries) : Share.flags =
  marks ctx ~first:false b.b_n (adjacent_eq b)

(** [propagate ctx b specs] runs the level-ordered value propagation of
    the network whose pre-pass is [b]; the spec columns must be ordered
    like the keys [b] was computed over. Returns the updated columns in
    the order of [specs]. *)
let propagate (ctx : Ctx.t) (b : boundaries) (specs : spec list) :
    Share.shared list =
  Ctx.with_label ctx "aggnet" @@ fun () ->
  let n = b.b_n in
  let levels = b.b_levels in
  let needs_tid = List.exists (fun sp -> sp.keys = Group_and_tid) specs in
  let has_sum =
    List.exists (fun sp -> match sp.func with Sum -> true | _ -> false) specs
  in
  let n2 = Orq_util.Ring.next_pow2 n in
  let cols = ref (List.map (fun sp -> pad ctx ~n ~n2 sp.col) specs) in
  let b_groups = b.b_group in
  (* the tid conjunction and Sum's bit conversion both read only the
     pre-pass bits: one fused round between them *)
  let b_exts = ref None and b_ariths = ref [||] in
  ignore
    (Mpc.fuse_rounds ctx
       [|
         (fun () ->
           if needs_tid then
             match b.b_tid with
             | Some t -> b_exts := Some (Mpc.band_f_many ctx b_groups t)
             | None -> invalid_arg "Aggnet.propagate: tid column required");
         (fun () ->
           if has_sum then b_ariths := Convert.bit_b2a_many ctx b_groups);
       |]);
  let b_exts = !b_exts and b_ariths = !b_ariths in
  Array.iteri (fun li dd ->
    let b_group = b_groups.(li) in
    let b_ext = Option.map (fun a -> a.(li)) b_exts in
    let b_of = function
      | Group -> b_group
      | Group_and_tid -> Option.get b_ext
    in
    let specs_a = Array.of_list specs in
    let cols_a = Array.of_list !cols in
    let ns = Array.length specs_a in
    (* Phase 1 — pairwise pre-combination. All Sum multiplications fuse
       into one round; all Min/Max specs share one fused comparison ladder
       and one fused selection round. *)
    let direct = Array.make ns None in
    let sum_idx =
      Array.of_list
        (List.filter_map
           (fun i -> match specs_a.(i).func with Sum -> Some i | _ -> None)
           (List.init ns Fun.id))
    in
    if Array.length sum_idx > 0 then begin
      Array.iter (fun i -> Share.check_enc Arith cols_a.(i)) sum_idx;
      let b = b_ariths.(li) in
      (* charge each product at its column's logical width: the boundary
         bit is 0/1 and the value fits in spec.width bits, so defaulting
         to ell would overcharge every Sum level *)
      let prods =
        Mpc.mul_many
          ~widths:(Array.map (fun i -> specs_a.(i).width) sum_idx)
          ctx
          (Array.map (fun _ -> b) sum_idx)
          (Array.map (fun i -> fst (slices cols_a.(i) dd)) sum_idx)
      in
      Array.iteri
        (fun j i ->
          let _, lower = slices cols_a.(i) dd in
          direct.(i) <- Some (Mpc.add lower prods.(j)))
        sum_idx
    end;
    let pre = Array.make ns None in
    let pre_width = Array.make ns 1 in
    let mm =
      Array.of_list
        (List.filter_map
           (fun i ->
             match specs_a.(i).func with
             | Min w -> Some (i, true, w)
             | Max w -> Some (i, false, w)
             | _ -> None)
           (List.init ns Fun.id))
    in
    if Array.length mm > 0 then begin
      let ws = Array.map (fun (_, _, w) -> w) mm in
      let lts =
        Compare.lt_many ctx
          (Array.map
             (fun (i, _, w) ->
               let u, l = slices cols_a.(i) dd in
               (u, l, w))
             mm)
      in
      let combined =
        Mux.select_many ~widths:ws ctx
          (Array.mapi
             (fun j (i, is_min, _) ->
               let u, l = slices cols_a.(i) dd in
               (* min = lt ? upper : lower; max = lt ? lower-side pick *)
               if is_min then (lts.(j), l, u) else (lts.(j), u, l))
             mm)
      in
      Array.iteri
        (fun j (i, _, w) ->
          pre.(i) <- Some combined.(j);
          pre_width.(i) <- w)
        mm
    end;
    Array.iteri
      (fun i sp ->
        match sp.func with
        | Copy ->
            pre.(i) <- Some (fst (slices cols_a.(i) dd));
            pre_width.(i) <- sp.width
        | Sum | Min _ | Max _ -> ())
      specs_a;
    (* Phase 2 — boundary muxes: one fused round at per-lane widths *)
    let bm =
      Array.of_list
        (List.filter_map
           (fun i -> Option.map (fun g -> (i, g)) pre.(i))
           (List.init ns Fun.id))
    in
    let bm_res =
      Mux.select_many
        ~widths:(Array.map (fun (i, _) -> pre_width.(i)) bm)
        ctx
        (Array.map
           (fun (i, g) ->
             let _, lower = slices cols_a.(i) dd in
             (b_of specs_a.(i).keys, lower, g))
           bm)
    in
    let new_lower = Array.make ns None in
    Array.iteri (fun j (i, _) -> new_lower.(i) <- Some bm_res.(j)) bm;
    Array.iteri (fun i d -> if d <> None then new_lower.(i) <- d) direct;
    cols :=
      Array.to_list
        (Array.mapi
           (fun i col ->
             let head = Share.sub_range col 0 dd in
             Share.append head (Option.get new_lower.(i)))
           cols_a))
    levels;
  List.map (fun c -> Share.sub_range c 0 n) !cols

(** [run ctx ~keys ?tid specs] executes the whole network — pre-pass then
    propagation — over a table already sorted on [keys] (which must
    include the validity column). [tid] supplies the table-id column for
    [Group_and_tid] functions. Returns the updated columns in the order of
    [specs]. *)
let run (ctx : Ctx.t) ~(keys : (Share.shared * int) list)
    ?(tid : Share.shared option) (specs : spec list) : Share.shared list =
  let needs_tid = List.exists (fun sp -> sp.keys = Group_and_tid) specs in
  let tid = if needs_tid then tid else None in
  propagate ctx (boundaries ctx ~keys ?tid ()) specs

(* Group marks of a table sorted on [keys] from their own adjacent-row
   equality ladder. *)
let adjacent_marks (ctx : Ctx.t) ~first ~(keys : (Share.shared * int) list) =
  let n = Share.length (fst (List.hd keys)) in
  marks ctx ~first n (fun () ->
      Compare.eq_composite ctx
        (List.map
           (fun (k, w) ->
             (Share.sub_range k 0 (n - 1), Share.sub_range k 1 (n - 1), w))
           keys))

(** Mark the first row of each group in a table sorted on [keys]:
    bit i = 1 iff row i differs from row i-1 (row 0 always 1). This is the
    oblivious DISTINCT of §3.1. *)
let distinct_bits ctx ~keys = adjacent_marks ctx ~first:true ~keys

(** Mark the last row of each group (the row holding the group aggregate
    after {!run}). *)
let last_of_group_bits ctx ~keys = adjacent_marks ctx ~first:false ~keys

(* ------------------------------------------------------------------ *)
(* Group totals by prefix sums and a one-bit compaction                 *)
(* ------------------------------------------------------------------ *)

type total =
  | Prefix of Share.shared * int
  | Rows

(** [compact ctx ~last totals cols] delivers every group's total over a
    table sorted on its grouping key, whose group-end marks are [last],
    in a constant number of rounds. A group's total is the difference of
    two prefix sums taken at consecutive group ends, and those ends are
    brought together by one stable compaction on the bit [last]:

    - [last] converts once (one daBit per row) to the arithmetic bit [a];
    - in one fused round, [a] ranks the rows (genBitPerm on one bit:
      non-ends first, then the ends in table order) and multiplies each
      [Prefix] column's local prefix sums, Q = a·P, at the result width;
      a [Rows] total's prefix is the public i + 1, so its Q is local;
    - one Protocol-5 application moves [cols], [last] (one bit) and the
      Q lanes to their ranks, each Q lane at its total's width (a
      [Prefix] column's result width, the row count's
      [Ring.index_bits (n + 1)]): a total is needed only modulo 2^w, and
      the lane's sharing reduces to that locally
      ({!Orq_shuffle.Shardedperm.apply});
    - each total is Q_i − Q_(i−1), local: a non-end row holds Q = 0 and
      all of them come first.

    Returns the totals in the order of [totals], the moved [last] and the
    moved [cols]. A non-end row's total is zero. What the compaction opens
    is Protocol 5's destination vector under a fresh random sharded
    permutation: uniform, whatever [last] holds. *)
let compact (ctx : Ctx.t) ~(last : Share.flags) (totals : total list)
    (cols : (Share.chunked * int) list) :
    Share.shared list * Share.flags * Share.chunked list =
  Ctx.with_label ctx "aggnet" @@ fun () ->
  let n = Share.flags_length last in
  let a = Convert.bit_b2a ctx last in
  let secret =
    Array.of_list
      (List.filter_map (function Prefix (c, w) -> Some (c, w) | Rows -> None) totals)
  in
  let rho = ref None and prods = ref [||] in
  ignore
    (Mpc.fuse_rounds ctx
       [|
         (fun () -> rho := Some (Orq_sort.Genbitperm.gen_digit_of ctx [| a |]));
         (fun () ->
           prods :=
             Mpc.mul_many ~widths:(Array.map snd secret) ctx
               (Array.map (fun _ -> a) secret)
               (Array.map (fun (c, _) -> Mpc.prefix_sum c) secret));
       |]);
  let j = ref 0 in
  let qs =
    List.map
      (function
        | Prefix (_, w) ->
            incr j;
            (Share.wrap !prods.(!j - 1), w)
        | Rows ->
            ( Share.wrap (Mpc.mul_pub_vec a (Array.init n (fun i -> i + 1))),
              Orq_util.Ring.index_bits (n + 1) ))
      totals
  in
  let moved =
    Orq_shuffle.Permops.apply_elementwise_table ctx
      (cols @ [ (Share.wrap (Share.unpack_flags last), 1) ] @ qs)
      (Option.get !rho)
  in
  let k = List.length cols in
  let moved_cols = List.filteri (fun i _ -> i < k) moved in
  let rest = List.filteri (fun i _ -> i >= k) moved in
  let last' = Share.pack_flags (Share.unpark (List.hd rest)) in
  let diffs =
    List.map
      (fun q ->
        let q = Share.unpark q in
        if n = 0 then q
        else
          Mpc.sub q
            (Share.append (Share.public ctx Share.Arith 1 0) (Share.sub_range q 0 (n - 1))))
      (List.tl rest)
  in
  (diffs, last', moved_cols)
