(** Oblivious iterative quicksort (§3.2, Appendix B.1, Protocol 9).

    Shuffle-then-sort: the rows are first moved through a random sharded
    permutation; afterwards the results of pivot comparisons may be opened —
    for unique keys, any comparison outcome is consistent with many
    permutations of the original data, so the opened bits reveal only the
    (random) shuffled order (Hamada et al.). The control flow is iterative:
    every active segment is partitioned against its pivot in the same
    vectorized comparison round, giving O(log n) comparison rounds instead
    of the naive O(n). The recursion is cut after [partition_levels n]
    levels: one last round compares every pair of positions within each
    remaining segment and places each row by its rank there. The round
    count is thus a function of n, where the full recursion's depth (the
    height of the shuffled order's search tree) would vary from run to
    run and fall several levels later.

    Keys must be unique for security (TableSort guarantees this by
    appending the row index); composite keys are compared
    lexicographically, ascending (a descending key arrives complemented). *)

open Orq_proto
module Compare = Orq_circuits.Compare

(* Partition levels before the all-pairs round: floor(1.75 lg n). A random
   search tree on n keys is rarely that shallow (its height concentrates
   near 3 lg n less a lower-order term: 25 to 37 levels at n = 9000,
   against 22 here), so the round count depends on n alone. Each level
   shrinks the expected sum of squared segment sizes by a third, to about
   n after this many levels, so the last round compares fewer than n/2
   pairs in expectation and the sort's comparison count spreads about as
   much as the full recursion's. *)
let partition_levels n = int_of_float (1.75 *. Float.log2 (float_of_int n))

(** [sort ctx ~keys carry] sorts the rows formed by the [(column, width)]
    keys plus the [(column, width)] [carry] pairs; returns (sorted key
    columns, sorted carry columns). The initial shuffle moves every column
    at its width. *)
let sort (ctx : Ctx.t) ~(keys : (Share.shared * int) list)
    (carry : (Share.shared * int) list) : Share.shared list * Share.shared list =
  let n = Share.length (fst (List.hd keys)) in
  let nk = List.length keys in
  if n <= 1 then (List.map fst keys, List.map fst carry)
  else begin
    let all =
      Orq_shuffle.Permops.shuffle_table ctx
        (List.map (fun (c, w) -> (Share.wrap c, w)) (keys @ carry))
      |> List.map Share.unpark
    in
    let key_cols = ref (List.filteri (fun i _ -> i < nk) all)
    and carry_cols = ref (List.filteri (fun i _ -> i >= nk) all) in
    let segs = ref [ (0, n) ] in
    let finish_at = partition_levels n in
    let level = ref 0 in
    while !segs <> [] do
      let finish = !level = finish_at in
      incr level;
      (* one batched comparison round over (a, b) pairs, opened as
         [a < b]: every non-pivot element of every active segment against
         its segment's pivot (prevPivot is the segment head after each
         partition step), or, in the finishing round, every pair of
         positions in each remaining segment *)
      let pairs =
        List.concat_map
          (fun (lo, hi) ->
            if finish then
              List.concat
                (List.init (hi - lo) (fun i ->
                     List.init (hi - lo - 1 - i) (fun j -> (lo + i, lo + i + 1 + j))))
            else List.init (hi - lo - 1) (fun j -> (lo + 1 + j, lo)))
          !segs
      in
      let a_idx = Array.of_list (List.map fst pairs) in
      let b_idx = Array.of_list (List.map snd pairs) in
      let cmp_operands =
        List.map2
          (fun (_, w) col -> (Share.gather col a_idx, Share.gather col b_idx, w))
          keys !key_cols
      in
      (* the comparison opens in its last AND round where the protocol
         allows it, into packed lanes: the placement below only reads one
         bit per pair *)
      let bits = Compare.lt_lex_open ctx cmp_operands in
      let src = Array.init n (fun i -> i) in
      let new_segs = ref [] in
      let pos = ref 0 in
      List.iter
        (fun (lo, hi) ->
          if finish then begin
            (* each position's rank in its segment: the number of
               positions whose key is less than its own *)
            let rank = Array.make (hi - lo) 0 in
            for i = 0 to hi - lo - 1 do
              for j = i + 1 to hi - lo - 1 do
                let above = if Orq_util.Bits.get bits !pos = 1 then j else i in
                rank.(above) <- rank.(above) + 1;
                incr pos
              done
            done;
            Array.iteri (fun i r -> src.(lo + r) <- lo + i) rank
          end
          else begin
            (* local partition: [less...; pivot; geq...] *)
            let less = ref [] and geq = ref [] in
            for i = lo + 1 to hi - 1 do
              if Orq_util.Bits.get bits !pos = 1 then less := i :: !less
              else geq := i :: !geq;
              incr pos
            done;
            let less = List.rev !less and geq = List.rev !geq in
            let nl = List.length less in
            List.iteri (fun j i -> src.(lo + j) <- i) less;
            src.(lo + nl) <- lo;
            List.iteri (fun j i -> src.(lo + nl + 1 + j) <- i) geq;
            if nl >= 2 then new_segs := (lo, lo + nl) :: !new_segs;
            if hi - (lo + nl + 1) >= 2 then
              new_segs := (lo + nl + 1, hi) :: !new_segs
          end)
        !segs;
      key_cols := List.map (fun c -> Share.gather c src) !key_cols;
      carry_cols := List.map (fun c -> Share.gather c src) !carry_cols;
      segs := !new_segs
    done;
    (!key_cols, !carry_cols)
  end
