(** The ORQ dataflow API (§2.2): relational operators as transformations on
    secret-shared tables, chained to build query plans — the programming
    model of Listing 1. Every operator is fully oblivious: output sizes and
    access patterns depend only on public input sizes. *)

open Orq_proto

type order = Tablesort.order = Asc | Desc

(* Streaming operator boundary: when out-of-core execution is on, park the
   result's live columns into the budget-managed store so tables at rest
   stay evictable between operators; monolithic per-operator working sets
   ride above the budget only transiently. No-op when streaming is off. *)
let parked (t : Table.t) : Table.t =
  if Orq_util.Chunkvec.streaming_enabled () then Table.park t;
  t

(* ------------------------------------------------------------------ *)
(* Row-local operators                                                 *)
(* ------------------------------------------------------------------ *)

(** SELECT ... WHERE: evaluate the predicate obliviously and fold it into
    the validity column. *)
let filter (t : Table.t) (p : Expr.pred) : Table.t =
  Ctx.with_label (Table.ctx t) "filter" @@ fun () ->
  parked (Table.and_valid t (Expr.eval_pred t p))

(** Attach a derived column (e.g. Revenue = Price * (100 - Discount) / 100).
    [If (p, x, 0)] over an unsigned column [x] records [dst <= x]. *)
let map (t : Table.t) ~dst (e : Expr.num) : Table.t =
  let c = Expr.eval_col t e in
  let out = Table.set_col t dst c in
  parked
    (match e with
    | Expr.If (_, Col x, Const 0)
      when x <> dst && not (Table.find t x).Column.signed ->
        Table.add_facts out [ Table.Le (dst, x) ]
    | _ -> out)

(* ------------------------------------------------------------------ *)
(* Sort / limit / distinct                                             *)
(* ------------------------------------------------------------------ *)

(** ORDER BY: valid rows float to the top (validity is a leading descending
    key), then the user keys apply. The spec is recorded as a public
    [Table.Ordered] fact, so {!Table.reveal} hands the rows over in this
    order. *)
let order_by (t : Table.t) (specs : (string * order) list) : Table.t =
  Ctx.with_label (Table.ctx t) "orderby" @@ fun () ->
  let sorted = Tablesort.sort ~valid:Tablesort.Desc t specs in
  parked (Table.add_facts sorted [ Table.Ordered specs ])

(** LIMIT k (after an ORDER BY): keep the first k physical rows. *)
let limit (t : Table.t) k : Table.t = Table.take_rows t k

(** DISTINCT on a composite key: sort and keep each group's first row. *)
let distinct (t : Table.t) (keys : string list) : Table.t =
  let ctx = Table.ctx t in
  Ctx.with_label ctx "distinct" @@ fun () ->
  let t =
    Tablesort.sort
      ~valid:Tablesort.Asc
      t
      (List.map (fun k -> (k, Asc)) keys)
  in
  let key_shares =
    (t.Table.valid, 1)
    :: List.map (fun k -> (Table.column t k, Table.width t k)) keys
  in
  let dist = Aggnet.distinct_bits ctx ~keys:key_shares in
  parked (Table.and_valid t dist)

(* ------------------------------------------------------------------ *)
(* GROUP BY aggregation                                                *)
(* ------------------------------------------------------------------ *)

type aggfn =
  | Sum
  | Count
  | Min
  | Max
  | Avg

type agg = { src : string; dst : string; fn : aggfn }

let fn_name = function
  | Sum -> "SUM"
  | Count -> "COUNT"
  | Min -> "MIN"
  | Max -> "MAX"
  | Avg -> "AVG"

(** The domain of an aggregation over groups of at most [rows] rows of a
    source with domain [src]: a SUM lies in [rows]·[src] (empty sums
    included), a COUNT in [0, rows]; AVG, MIN and MAX stay in an unsigned
    source's domain. Comparisons and divisions read a signed source as
    its unsigned bit pattern (an AVG's at its sum's width). Raises
    {!Dom.Refused} for a bound wider than the ring. *)
let agg_dom ~rows (src : Dom.t) (a : agg) : Dom.t =
  let sum = Dom.sum ~n:rows src in
  let d =
    match a.fn with
    | Sum -> sum
    | Count -> Dom.v 0 rows
    | Avg -> if Dom.signed src then Dom.of_width (Dom.width sum) else src
    | Min | Max ->
        if Dom.signed src then Dom.of_width (Dom.width src) else src
  in
  let what = Printf.sprintf "%s(%s) over %d rows" (fn_name a.fn) a.src rows in
  (* AVG divides its hidden sum *)
  (match a.fn with Avg -> ignore (Dom.check ~what sum) | _ -> ());
  Dom.check ~what d

(* AVG's hidden sum, which the division reads unsigned: a signed
   source's sum as its bit pattern. *)
let avg_sum_dom ~rows (src : Dom.t) =
  let s = Dom.sum ~n:rows src in
  if Dom.signed s then Dom.of_width (Dom.width s) else s

(* The result domains of [aggs] over [t], checked before the operator's
   first metered event. *)
let check_aggs ~rows (t : Table.t) (aggs : agg list) =
  List.iter
    (fun a ->
      let src = match a.fn with Count -> Dom.zero | _ -> (Table.find t a.src).Column.dom in
      ignore (agg_dom ~rows src a))
    aggs

(* The facts the SUMs among [aggs] over [t] carry into the result: two
   sums of row-wise ordered sources stay ordered, and each sum of an
   unsigned source records what it sums ([whole] for a global sum). *)
let sum_facts (t : Table.t) ~whole (aggs : agg list) : Table.fact list =
  let sums = List.filter (fun a -> match a.fn with Sum -> true | _ -> false) aggs in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if a.dst <> b.dst && Table.le t a.src b.src then
            Some (Table.Le (a.dst, b.dst))
          else None)
        sums)
    sums
  @ List.filter_map
      (fun a ->
        let src = Table.find t a.src in
        if src.Column.signed then None
        else
          Some (Table.Sum_of { col = a.dst; src; over = t.Table.valid; whole }))
      sums

(* What an aggregation reads from its group: a total of the rows (COUNT),
   a total of a source (SUM, AVG's sum), or its running minimum or
   maximum. Aggregations reading the same one share it. *)
type lane = L_count | L_sum of string | L_min of string | L_max of string

(* Totals (arithmetic, converted back in [finish]) rather than running
   comparisons. *)
let summed = function L_count | L_sum _ -> true | L_min _ | L_max _ -> false

(* One result an aggregation over groups of at most [rows] rows needs:
   the lane it reads, the result's domain and its destination. AVG has
   two, a hidden sum and count that [finish] divides. *)
type part = { p_lane : lane; p_dom : Dom.t; p_dst : string }

let agg_parts ~rows ~(find : string -> Column.t) (a : agg) : part list =
  let part p_lane p_dom p_dst = { p_lane; p_dom; p_dst } in
  let count_dom = agg_dom ~rows Dom.zero { a with fn = Count } in
  match a.fn with
  | Count -> [ part L_count count_dom a.dst ]
  | Sum | Min | Max | Avg -> (
      let src = find a.src in
      let d = agg_dom ~rows src.Column.dom a in
      match a.fn with
      | Sum -> [ part (L_sum a.src) d a.dst ]
      (* unsigned comparisons: signed min/max would need the sign-flip map *)
      | Min -> [ part (L_min a.src) d a.dst ]
      | Max -> [ part (L_max a.src) d a.dst ]
      | Count | Avg ->
          [
            part (L_sum a.src) (avg_sum_dom ~rows src.Column.dom) (a.dst ^ "#sum");
            part L_count count_dom (a.dst ^ "#count");
          ])

(* The distinct lanes of [parts], in first use, each at the widest width
   a part reads it at. *)
let lanes_of (parts : part list) : (lane * int) list =
  List.fold_left
    (fun acc p ->
      let w = Dom.width p.p_dom in
      match List.assoc_opt p.p_lane acc with
      | Some w' when w' >= w -> acc
      | Some _ -> List.map (fun (l, w') -> (l, if l = p.p_lane then w else w')) acc
      | None -> acc @ [ (p.p_lane, w) ])
    [] parts

(* The parts and lanes of [aggs] over groups of at most [rows] rows. *)
let plan_aggs ~rows ~find aggs =
  let parts = List.concat_map (agg_parts ~rows ~find) aggs in
  (parts, lanes_of parts)

(* The network spec of a lane whose sources [find] looks up in the sorted
   input. [count] is the 0/1 arithmetic column COUNT sums, and [seg] the
   key set that guards the comparison-style functions (Sum-style ones
   always use the group key: a row outside the aggregated segment must
   hold zero). *)
let lane_spec (ctx : Ctx.t) ~(find : string -> Column.t)
    ~(count : unit -> Share.shared) ~(seg : Aggnet.keyset) (lane, width) :
    Aggnet.spec =
  let spec col func keys = { Aggnet.col; func; keys; width } in
  match lane with
  | L_count -> spec (count ()) Aggnet.Sum Aggnet.Group
  | L_sum s -> spec (Column.as_arith ctx (find s)) Aggnet.Sum Aggnet.Group
  | L_min s -> spec (Column.data (find s)) (Aggnet.Min width) seg
  | L_max s -> spec (Column.data (find s)) (Aggnet.Max width) seg

(* The finishers shared by [aggregate]'s two paths and [group_join], over
   the table [t] that carries one row per group: each part reads its
   lane's result in [results]; every total converts through one fused
   A2B, run fused with the conjunction of [t]'s validity and
   the group-end mark [last], converting each distinct (lane, width)
   total once; then AVG's divisions, each quotient bounded by the width
   of its source ([src] looks sources up). Returns [t]'s columns, then
   the results in the order of [aggs]. *)
let finish (t : Table.t) (aggs : agg list) (parts : part list)
    (results : (lane * Share.shared) list) ~(last : Share.flags)
    ~(src : string -> Column.t) : Table.t =
  let ctx = Table.ctx t in
  let result p = List.assoc p.p_lane results in
  let totals =
    List.fold_left
      (fun acc p ->
        let tw = (p.p_lane, Dom.width p.p_dom) in
        if summed p.p_lane && not (List.mem tw acc) then acc @ [ tw ] else acc)
      [] parts
  in
  let conv = ref [||] and marked = ref t in
  ignore
    (Mpc.fuse_rounds ctx
       [|
         (fun () ->
           conv :=
             Orq_circuits.Convert.a2b_many ctx
               (Array.of_list
                  (List.map (fun (l, w) -> (List.assoc l results, w)) totals)));
         (fun () -> marked := Table.and_valid t last);
       |]);
  let converted = List.combine totals (Array.to_list !conv) in
  let finished =
    List.map
      (fun p ->
        let v =
          if summed p.p_lane then List.assoc (p.p_lane, Dom.width p.p_dom) converted
          else result p
        in
        (p.p_dst, Column.of_shared ~dom:p.p_dom v))
      parts
  in
  let cols = Table.col_names t @ List.map (fun a -> a.dst) aggs in
  let t =
    List.fold_left (fun t (dst, c) -> Table.set_col t dst c) !marked finished
  in
  (* resolve AVG divisions; the projection drops their hidden parts *)
  let t =
    List.fold_left
      (fun t a ->
        match a.fn with
        | Avg ->
            let s = Table.find t (a.dst ^ "#sum") in
            let c = Table.find t (a.dst ^ "#count") in
            (* the quotient of the hidden sum: within an unsigned source's
               domain, a signed one's read at the sum's width *)
            let sd = (src a.src).Column.dom in
            let dom = if Dom.signed sd then Dom.of_width s.Column.width else sd in
            let q =
              Orq_circuits.Divide.udiv ctx ~qw:(Dom.width dom) ~w:s.Column.width
                ~wd:c.Column.width (Column.data s) (Column.as_bool ctx c)
            in
            Table.set_col t a.dst (Column.of_shared ~dom q)
        | Sum | Count | Min | Max -> t)
      t aggs
  in
  Table.project t cols

type agg_path = Network | Compaction

let invertible lanes = List.for_all (fun (l, _) -> summed l) lanes

(* [cols] without repeats, in first use. *)
let uniq cols = List.fold_left (fun acc c -> if List.mem c acc then acc else acc @ [ c ]) [] cols

(* The widths of validity and then of [cols]: what the group-end ladders
   compare for the keys, and what the compaction moves for the output
   columns. *)
let widths_of t cols = 1 :: List.map (Table.width t) cols

(** The path {!aggregate} takes, priced from public shape only: the
    closed forms {!Primcost.aggnet} and {!Primcost.aggcompact} compared
    as modeled network time under the profile joins are priced under
    ({!Joincost.profile}), then by rounds and bits; a tie keeps the
    network. Only an aggregation list of SUMs, COUNTs and AVGs can take
    the compaction. *)
let agg_path ?(carry = []) (t : Table.t) ~(keys : string list)
    ~(aggs : agg list) : agg_path =
  let ctx = Table.ctx t and n = Table.nrows t in
  let _, lanes = plan_aggs ~rows:n ~find:(Table.find t) aggs in
  if aggs = [] || not (invertible lanes) then Network
  else begin
    let kind = ctx.Ctx.kind and keys_w = widths_of t keys in
    let sums = List.filter_map (function L_sum _, w -> Some w | _ -> None) lanes in
    let net = Primcost.aggnet kind ~n ~keys:keys_w ~sums:(List.map snd lanes) in
    let cmp =
      Primcost.aggcompact kind ~n ~keys:keys_w ~sums
        ~local:(List.length lanes - List.length sums)
        ~moved:(List.fold_left ( + ) 0 (widths_of t (uniq (keys @ carry))))
    in
    let rank (c : Orq_net.Comm.tally) =
      (Orq_net.Netsim.network_time (Joincost.profile ()) c, c.t_rounds, c.t_bits)
    in
    if compare (rank cmp) (rank net) < 0 then Compaction else Network
  end

(** GROUP BY [keys] on a given path: sort on (validity, keys), then the
    aggregation network over every lane, or the group totals by
    compaction ({!Aggnet.compact}), then one valid row per group holding
    [keys], [carry] and the results. *)
let aggregate_by (path : agg_path) ?(carry = []) (t : Table.t)
    ~(keys : string list) ~(aggs : agg list) : Table.t =
  let ctx = Table.ctx t in
  Ctx.with_label ctx "aggregate" @@ fun () ->
  let rows = Table.nrows t in
  check_aggs ~rows t aggs;
  let facts = sum_facts t ~whole:false aggs in
  let src = Table.find t in
  let parts, lanes = plan_aggs ~rows ~find:src aggs in
  if path = Compaction && not (invertible lanes) then
    invalid_arg "Dataflow.aggregate_by: compaction takes SUM, COUNT and AVG only";
  let out = uniq (keys @ carry) in
  let srcs =
    List.filter_map
      (function L_count, _ -> None | (L_sum s | L_min s | L_max s), _ -> Some s)
      lanes
  in
  (* the sort moves only what the aggregation reads or returns *)
  let t = Table.project t (uniq (out @ srcs)) in
  let t =
    Tablesort.sort
      ~valid:Tablesort.Asc
      t
      (List.map (fun k -> (k, Asc)) keys)
  in
  let key_shares =
    (t.Table.valid, 1)
    :: List.map (fun k -> (Table.column t k, Table.width t k)) keys
  in
  let specs () =
    List.map
      (lane_spec ctx ~find:(Table.find t)
         ~count:(fun () -> Share.public ctx Share.Arith rows 1)
         ~seg:Aggnet.Group)
      lanes
  in
  (* the sources' conversions and the group-boundary ladders are
     data-independent: fused round tracks *)
  let fused f =
    let sp = ref [] and pre = ref None in
    ignore
      (Mpc.fuse_rounds ctx
         [| (fun () -> sp := specs ()); (fun () -> pre := Some (f ())) |]);
    (!sp, Option.get !pre)
  in
  let kept = Table.project t out in
  let results = List.combine (List.map fst lanes) in
  let grouped =
    match path with
    | Network ->
        let specs, b = fused (fun () -> Aggnet.boundaries ctx ~keys:key_shares ()) in
        finish kept aggs parts
          (results (Aggnet.propagate ctx b specs))
          ~last:(Aggnet.last_of_group ctx b) ~src
    | Compaction ->
        let specs, last =
          fused (fun () ->
              Ctx.with_label ctx "aggnet" @@ fun () ->
              Aggnet.last_of_group_bits ctx ~keys:key_shares)
        in
        let totals, last, moved =
          Aggnet.compact ctx ~last
            (List.map2
               (fun (lane, _) (sp : Aggnet.spec) ->
                 if lane = L_count then Aggnet.Rows else Aggnet.Prefix (sp.col, sp.width))
               lanes specs)
            ((Share.wrap kept.Table.valid, 1)
            :: List.map (fun (_, c) -> (Column.chunked c, c.Column.width)) kept.Table.cols)
        in
        let valid, moved = (List.hd moved, List.tl moved) in
        let kept =
          {
            kept with
            Table.valid = Share.unpark valid;
            cols = List.map2 (fun (n, c) d -> (n, Column.with_chunked c d)) kept.Table.cols moved;
          }
        in
        finish kept aggs parts (results totals) ~last ~src
  in
  parked (Table.add_facts grouped facts)

(** GROUP BY [keys] evaluating the aggregations [aggs] (the paper's
    [.aggregate()]): sorts on the keys, then either runs the aggregation
    network or, for SUM/COUNT/AVG where it is cheaper ({!agg_path}),
    delivers the group totals by prefix sums and a one-bit compaction;
    keeps one valid row per group, holding the keys, the [carry] columns
    (each read from the group's last row) and the results. AVG is
    computed with the fully private non-restoring division circuit, its
    quotient bounded by an unsigned source's width (the result takes that
    width). Two SUMs whose sources are ordered row by row ([Table.Le])
    keep that order, and each SUM of an unsigned source records what it
    sums ([Table.Sum_of]). *)
let aggregate ?carry (t : Table.t) ~(keys : string list) ~(aggs : agg list) :
    Table.t =
  aggregate_by (agg_path ?carry t ~keys ~aggs) ?carry t ~keys ~aggs

(* ------------------------------------------------------------------ *)
(* Global (whole-table) aggregation                                    *)
(* ------------------------------------------------------------------ *)

(** Whole-table aggregation (no grouping key): SUM/COUNT/AVG are computed
    with a validity-masked local reduction — no sorting at all, which is
    why the paper's Q6 is its cheapest query — and MIN/MAX with a log-depth
    compare tree over validity-masked values. Returns a one-row table.

    All aggregates batch across one another: the validity-masking
    multiplications fuse into one round, every sum/count finish goes
    through one fused A2B, and the MIN/MAX trees fold in lockstep (each
    level's comparisons and selections are shared rounds across lanes). *)
let global_aggregate (t : Table.t) ~(aggs : agg list) : Table.t =
  let ctx = Table.ctx t in
  Ctx.with_label ctx "globalagg" @@ fun () ->
  let rows = Table.nrows t in
  check_aggs ~rows t aggs;
  let count_dom = Dom.v 0 rows in
  let module Cv = Orq_circuits.Convert in
  let module Mx = Orq_circuits.Mux in
  let module Cp = Orq_circuits.Compare in
  let valid = Share.pack_flags t.Table.valid in
  let v_arith = lazy (Cv.bit_b2a ctx valid) in
  let plans =
    List.map
      (fun a ->
        match a.fn with
        | Sum ->
            let src = Table.find t a.src in
            `Masked (a, Column.as_arith ctx src, agg_dom ~rows src.Column.dom a, None)
        | Avg ->
            let src = Table.find t a.src in
            let ds = avg_sum_dom ~rows src.Column.dom in
            `Masked (a, Column.as_arith ctx src, ds, Some (agg_dom ~rows src.Column.dom a))
        | Count -> `Count a
        | Min -> `Minmax (a, true, Table.width t a.src, Table.column t a.src)
        | Max -> `Minmax (a, false, Table.width t a.src, Table.column t a.src))
      aggs
  in
  (* fused validity-masked multiplications for SUM/AVG *)
  let masked_lanes =
    List.filter_map
      (function `Masked (_, x, d, _) -> Some (x, Dom.width d) | _ -> None)
      plans
  in
  let products =
    if masked_lanes = [] then [||]
    else
      Mpc.mul_many
        ~widths:(Array.of_list (List.map snd masked_lanes))
        ctx
        (Array.of_list (List.map fst masked_lanes))
        (Array.of_list (List.map (fun _ -> Lazy.force v_arith) masked_lanes))
  in
  (* one fused A2B over every sum/count finish *)
  let a2b_lanes = ref [] in
  let na = ref 0 in
  let push_a2b s w =
    a2b_lanes := (s, w) :: !a2b_lanes;
    incr na;
    !na - 1
  in
  let mi = ref 0 in
  let staged =
    List.map
      (fun pl ->
        match pl with
        | `Masked (a, _, d, avg) -> (
            let p = products.(!mi) in
            incr mi;
            let si = push_a2b (Mpc.sum_all p) (Dom.width d) in
            match avg with
            | Some qd ->
                let ci =
                  push_a2b (Mpc.sum_all (Lazy.force v_arith)) (Dom.width count_dom)
                in
                `Avg' (a, Dom.width d, qd, si, ci)
            | None -> `Sum' (a, d, si))
        | `Count a ->
            `Sum' (a, count_dom, push_a2b (Mpc.sum_all (Lazy.force v_arith)) (Dom.width count_dom))
        | `Minmax (a, is_min, w, x) -> `Minmax (a, is_min, w, x))
      plans
  in
  let conv = Cv.a2b_many ctx (Array.of_list (List.rev !a2b_lanes)) in
  (* MIN/MAX: fused validity masking, then a lockstep log-depth fold *)
  let mm =
    Array.of_list
      (List.filter_map
         (function
           | `Minmax (a, is_min, w, x) -> Some (a, is_min, w, x)
           | _ -> None)
         staged)
  in
  let mm_vals =
    if Array.length mm = 0 then [||]
    else begin
      let ws = Array.map (fun (_, _, w, _) -> w) mm in
      let cur =
        Mx.select_many ~widths:ws ctx
          (Array.map
             (fun (_, is_min, w, x) ->
               (* invalid rows become the identity of the fold *)
               let ident = if is_min then Orq_util.Ring.mask w else 0 in
               (valid, Share.public ctx Share.Bool t.Table.nrows ident, x))
             mm)
      in
      while Array.exists (fun s -> Share.length s > 1) cur do
        let act =
          Array.of_list
            (List.filter
               (fun i -> Share.length cur.(i) > 1)
               (List.init (Array.length cur) Fun.id))
        in
        let parts =
          Array.map
            (fun i ->
              let s = cur.(i) in
              let n = Share.length s in
              let half = n / 2 in
              ( Share.sub_range s 0 half,
                Share.sub_range s half half,
                if n mod 2 = 1 then Some (Share.sub_range s (n - 1) 1)
                else None ))
            act
        in
        let aws = Array.map (fun i -> let _, _, w, _ = mm.(i) in w) act in
        let lts =
          Cp.lt_many ctx
            (Array.mapi
               (fun j i ->
                 let a, b, _ = parts.(j) in
                 let _, _, w, _ = mm.(i) in
                 (a, b, w))
               act)
        in
        let sels =
          Mx.select_many ~widths:aws ctx
            (Array.mapi
               (fun j i ->
                 let a, b, _ = parts.(j) in
                 let _, is_min, _, _ = mm.(i) in
                 if is_min then (lts.(j), b, a) else (lts.(j), a, b))
               act)
        in
        Array.iteri
          (fun j i ->
            let _, _, rest = parts.(j) in
            cur.(i) <-
              (match rest with
              | Some r -> Share.append sels.(j) r
              | None -> sels.(j)))
          act
      done;
      cur
    end
  in
  let mmi = ref 0 in
  let cols =
    List.map
      (fun st ->
        match st with
        | `Sum' (a, d, si) -> (a.dst, Column.of_shared ~dom:d conv.(si))
        | `Avg' (a, ws, qd, si, ci) ->
            let q =
              Orq_circuits.Divide.udiv ctx ~qw:(Dom.width qd) ~w:ws
                ~wd:(Dom.width count_dom) conv.(si) conv.(ci)
            in
            (a.dst, Column.of_shared ~dom:qd q)
        | `Minmax (a, is_min, w, _) ->
            let v = mm_vals.(!mmi) in
            incr mmi;
            (* an empty input leaves the fold's identity *)
            let d = agg_dom ~rows (Table.find t a.src).Column.dom a in
            let ident = if is_min then Orq_util.Ring.mask w else 0 in
            (a.dst, Column.of_shared ~dom:(Dom.hull d (Dom.point ident)) v))
      staged
  in
  Table.add_facts
    (Table.of_columns ctx (t.Table.name ^ "_agg")
       ~valid:(Share.public ctx Share.Bool 1 1)
       cols)
    (sum_facts t ~whole:true aggs)

(** Broadcast the single row of [scalar] (e.g. a global aggregate) as a new
    constant column of [t] — a local share replication. When [src] sums a
    column over a whole table, every column of [t] summing that column
    over part of the same table's valid rows is recorded [<= dst]. *)
let with_scalar (t : Table.t) ~(scalar : Table.t) ~(src : string)
    ~(dst : string) : Table.t =
  let c = Table.find scalar src in
  if Column.length c <> 1 then invalid_arg "with_scalar: not a scalar";
  let data =
    Share.map_vectors
      (fun vk -> Array.make (Table.nrows t) vk.(0))
      (Column.data c)
  in
  let out = Table.set_col t dst (Column.with_data c data) in
  let total =
    List.find_map
      (function
        | Table.Sum_of { col; src = s; over; whole = true } when col = src ->
            Some (s, over)
        | _ -> None)
      scalar.Table.facts
  in
  match total with
  | None -> out
  | Some (s, over) ->
      Table.add_facts out
        (List.filter_map
           (function
             | Table.Sum_of { col; src = s'; over = o'; whole = false }
               when s' == s && o' == over && col <> dst ->
                 Some (Table.Le (col, dst))
             | _ -> None)
           out.Table.facts)

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

(* The public shape of a join node, handed to the cost-based operator
   selection (Joincost): cardinalities and widths only. *)
let join_shape ?group (left : Table.t) (right : Table.t) ~(on : string list)
    ~(copy : string list) ~(variant : Joincost.variant) : Joincost.shape =
  let keys_w =
    List.map (fun k -> max (Table.width left k) (Table.width right k)) on
  in
  let pay_w =
    List.filter_map
      (fun (name, c) ->
        if List.mem name on then None else Some c.Column.width)
      right.Table.cols
  in
  {
    Joincost.j_n = Table.nrows left;
    j_m = Table.nrows right;
    j_key_w = keys_w;
    j_copy_w = List.map (fun c -> Table.width left c) copy;
    j_pay_w = pay_w;
    j_group = group;
    j_variant = variant;
  }

(** INNER JOIN (one-to-many: [left] must have unique keys — pre-aggregate
    first for many-to-many, §3.6). [copy] propagates left columns into the
    matching right rows. The physical operator — sort-based
    join-aggregation or LINQ-style linear join — is chosen per node by the
    {!Joincost} cost model (override with {!Joincost.set_mode}). *)
let inner_join ?copy ?trim (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  let ctx = Table.ctx left in
  let shape =
    join_shape left right ~on
      ~copy:(Option.value copy ~default:[])
      ~variant:Joincost.J_inner
  in
  let node =
    Printf.sprintf "%s \xe2\x8b\x88 %s" left.Table.name right.Table.name
  in
  parked
    (match Joincost.choose_logged ctx ~node shape with
    | Joincost.Linear -> Linjoin.join ctx `Inner ?copy ~left ~right ~on ()
    | Joincost.Sort ->
        Joinagg.join ctx Joinagg.V_inner ?copy ?trim ~left ~right ~on ())

(** Whether {!group_join} evaluates GROUP BY [keys] over the one-to-many
    join of [left] (unique on [on]) and [right]: the join key is among the
    group keys, every other group key is a left column (functionally
    dependent on the join key), and every aggregation is COUNT or reads a
    right non-key column — a left source would lose its multiplicity. *)
let group_join_applies (left : Table.t) (right : Table.t) ~(on : string list)
    ~(keys : string list) ~(aggs : agg list) =
  List.for_all (fun k -> List.mem k keys) on
  && List.for_all (fun k -> List.mem k on || Table.mem left k) keys
  && List.for_all
       (fun a ->
         match a.fn with
         | Count -> true
         | Sum | Min | Max | Avg ->
             Table.mem right a.src && not (List.mem a.src on))
       aggs

(** GROUP BY [keys] over the one-to-many join of [left] and [right] on
    [on], for the shapes {!group_join_applies} accepts. The sort-based
    operator evaluates the aggregations on the join-key groups inside the
    join's own TableSort and network: the row of each group is its last
    (join validity ∧ last-of-group), COUNT sums the sorted table-id bit
    (the group's matched right rows), and SUM/MIN/MAX/AVG run through
    {!aggregate}'s expansion and finishers. An inner join prices that
    against the linear join followed by {!aggregate} ({!Joincost}); a
    left-outer one (the paper's semantics: every left row survives) is
    always sort-based, and an unmatched left row's group reads zero for
    SUM, COUNT, MIN and MAX; its AVG divides by a zero count and stays
    undefined. Output: the group keys and the aggregation results. *)
let group_join ?(outer = false) (left : Table.t) (right : Table.t)
    ~(on : string list) ~(keys : string list) ~(aggs : agg list) : Table.t =
  if not (group_join_applies left right ~on ~keys ~aggs) then
    invalid_arg "Dataflow.group_join: not a GROUP BY on the join key";
  check_aggs ~rows:(Table.nrows right) right aggs;
  let ctx = Table.ctx left in
  let copy = List.filter (fun k -> not (List.mem k on)) keys in
  let srcs =
    List.sort_uniq compare
      (List.filter_map
         (fun a -> match a.fn with Count -> None | _ -> Some a.src)
         aggs)
  in
  let left = Table.project left (on @ copy) in
  let right = Table.project right (on @ srcs) in
  let grouped variant =
    let parts, lanes =
      plan_aggs ~rows:(Table.nrows right) ~find:(Table.find right) aggs
    in
    let g =
      Joinagg.join_grouped ctx variant ~copy ~left ~right ~on
        ~aggs:(fun ~find ~tid ->
          let count =
            lazy (Orq_circuits.Convert.bit_b2a ctx (Share.pack_flags tid))
          in
          List.map
            (lane_spec ctx ~find ~count:(fun () -> Lazy.force count)
               ~seg:Aggnet.Group_and_tid)
            lanes)
        ()
    in
    let t =
      finish g.Joinagg.g_table aggs parts
        (List.combine (List.map fst lanes) g.g_results)
        ~last:g.g_last ~src:(Table.find right)
    in
    (* an unmatched left row's group reads zero *)
    let t =
      if variant = Joinagg.V_left_outer then
        List.fold_left
          (fun t a ->
            let c = Table.find t a.dst in
            Table.set_col t a.dst (Column.with_dom c (Dom.hull c.Column.dom Dom.zero)))
          t aggs
      else t
    in
    Table.project t (keys @ List.map (fun a -> a.dst) aggs)
  in
  if outer then parked (grouped Joinagg.V_left_outer)
  else begin
    let shape =
      join_shape left right ~on ~copy ~variant:Joincost.J_inner
        ~group:
          (List.map
             (fun a ->
               match a.fn with Count -> 1 | _ -> Table.width right a.src)
             aggs)
    in
    let node =
      Printf.sprintf "%s \xe2\x8b\x88 %s" left.Table.name right.Table.name
    in
    match Joincost.choose_logged ctx ~node shape with
    | Joincost.Linear ->
        (* the copied columns depend on the join key: group on it alone
           and carry them *)
        let t =
          aggregate ~carry:copy (Linjoin.join ctx `Inner ~copy ~left ~right ~on ()) ~keys:on ~aggs
        in
        Table.project t (keys @ List.map (fun a -> a.dst) aggs)
    | Joincost.Sort -> parked (grouped Joinagg.V_inner)
  end

(** SEMI JOIN — keep left rows that match some right row. Implemented as
    the swapped inner join of Appendix C.1, then projected back to the
    left schema. Handles duplicates on both sides. *)
let semi_join (left : Table.t) (right : Table.t) ~(on : string list) :
    Table.t =
  let ctx = Table.ctx left in
  let right' = Table.project right on in
  let shape =
    join_shape right' left ~on ~copy:[] ~variant:Joincost.J_semi
  in
  let node =
    Printf.sprintf "%s \xe2\x8b\x89 %s" left.Table.name right.Table.name
  in
  let joined =
    (* the linear operator needs no unique-key contract here: with no copy
       columns only membership in the build side matters, and duplicate
       build keys share one fingerprint *)
    match Joincost.choose_logged ctx ~node shape with
    | Joincost.Linear -> Linjoin.join ctx `Inner ~left:right' ~right:left ~on ()
    | Joincost.Sort ->
        Joinagg.join ctx Joinagg.V_inner ~left:right' ~right:left ~on ()
  in
  parked (Table.rename (Table.project joined (Table.col_names left)) left.Table.name)

(** ANTI JOIN — keep left rows with no match in right (swapped right-outer
    with cross-table valid propagation, Appendix C.1). *)
let anti_join (left : Table.t) (right : Table.t) ~(on : string list) :
    Table.t =
  let ctx = Table.ctx left in
  let right' = Table.project right on in
  let shape =
    join_shape right' left ~on ~copy:[] ~variant:Joincost.J_anti
  in
  let node =
    Printf.sprintf "%s \xe2\x96\xb7 %s" left.Table.name right.Table.name
  in
  let joined =
    match Joincost.choose_logged ctx ~node shape with
    | Joincost.Linear -> Linjoin.join ctx `Anti ~left:right' ~right:left ~on ()
    | Joincost.Sort ->
        Joinagg.join ctx Joinagg.V_anti ~left:right' ~right:left ~on ()
  in
  parked (Table.rename (Table.project joined (Table.col_names left)) left.Table.name)

(* ------------------------------------------------------------------ *)
(* Set operations                                                      *)
(* ------------------------------------------------------------------ *)

(** UNION ALL of tables with identical schemas. *)
let concat_tables (a : Table.t) (b : Table.t) : Table.t =
  if Table.col_names a <> Table.col_names b then
    invalid_arg "concat_tables: schema mismatch";
  Table.of_columns (Table.ctx a) a.Table.name
    ~valid:(Share.append a.Table.valid b.Table.valid)
    (List.map
       (fun (n, ca) ->
         let cb = Table.find b n in
         (n, Column.with_dom (Column.append ca cb) (Dom.hull ca.Column.dom cb.Column.dom)))
       a.Table.cols)
