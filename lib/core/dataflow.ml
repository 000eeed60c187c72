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
  | Custom of (Ctx.t -> Share.shared -> Share.shared -> Share.shared)
      (** pairwise combine on boolean shares; must be self-decomposable *)

type agg = { src : string; dst : string; fn : aggfn }

let fn_name = function
  | Sum -> "SUM"
  | Count -> "COUNT"
  | Min -> "MIN"
  | Max -> "MAX"
  | Avg -> "AVG"
  | Custom _ -> "CUSTOM"

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
    | Min | Max | Custom _ ->
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

(* Build the Aggnet specs for one aggregation over groups of at most
   [rows] rows whose sources [find] looks up in the sorted input; Avg
   expands to a sum/count pair plus a post-division. [count] is the 0/1
   arithmetic column COUNT sums, and [seg] the key set that guards the
   comparison-style functions (Sum-style ones always use the group key:
   a row outside the aggregated segment must hold zero). Each entry is
   (spec, finisher tag, result domain, destination name); the spec runs
   at the domain's width. The finisher is a tag rather than a closure so
   [finish] can run all [`A2b] finishes through one fused conversion. *)
let expand_agg (ctx : Ctx.t) ~rows ~(find : string -> Column.t)
    ~(count : unit -> Share.shared) ~(seg : Aggnet.keyset) (a : agg) :
    (Aggnet.spec * [ `A2b | `Id ] * Dom.t * string) list =
  let sum_spec col d =
    { Aggnet.col; func = Aggnet.Sum; keys = Aggnet.Group; width = Dom.width d }
  in
  let bool_spec func d =
    { Aggnet.col = Column.data (find a.src); func; keys = seg; width = Dom.width d }
  in
  let count_dom = agg_dom ~rows Dom.zero { a with fn = Count } in
  match a.fn with
  | Count -> [ (sum_spec (count ()) count_dom, `A2b, count_dom, a.dst) ]
  | Sum | Min | Max | Custom _ | Avg -> (
      let src = find a.src in
      let d = agg_dom ~rows src.Column.dom a in
      let w = Dom.width d in
      match a.fn with
      | Sum -> [ (sum_spec (Column.as_arith ctx src) d, `A2b, d, a.dst) ]
      (* unsigned comparisons: signed min/max would need the sign-flip map *)
      | Min -> [ (bool_spec (Aggnet.Min w) d, `Id, d, a.dst) ]
      | Max -> [ (bool_spec (Aggnet.Max w) d, `Id, d, a.dst) ]
      | Custom f -> [ (bool_spec (Aggnet.Custom f) d, `Id, d, a.dst) ]
      | Count | Avg ->
          (* hidden sum and count columns; the (unsigned) division
             happens in [finish] once both results exist *)
          let ds = avg_sum_dom ~rows src.Column.dom in
          [
            (sum_spec (Column.as_arith ctx src) ds, `A2b, ds, a.dst ^ "#sum");
            (sum_spec (count ()) count_dom, `A2b, count_dom, a.dst ^ "#count");
          ])

let spec_of (sp, _, _, _) = sp

(* The finishers shared by [aggregate] and [group_join], over the table
   [t] that carries the network's rows: every sum/count result converts
   through one fused A2B, run fused with the conjunction of [t]'s validity
   and the last-of-group mark [last]; then AVG's divisions, each quotient
   bounded by the width of its source ([src] looks sources up). *)
let finish (t : Table.t) (aggs : agg list) expanded results
    ~(last : Share.flags) ~(src : string -> Column.t) : Table.t =
  let ctx = Table.ctx t in
  let conv = ref [||] and marked = ref t in
  ignore
    (Mpc.fuse_rounds ctx
       [|
         (fun () ->
           conv :=
             Orq_circuits.Convert.a2b_many ctx
               (Array.of_list
                  (List.concat
                     (List.map2
                        (fun (_, fin, d, _) r ->
                          match fin with `A2b -> [ (r, Dom.width d) ] | `Id -> [])
                        expanded results))));
         (fun () -> marked := Table.and_valid t last);
       |]);
  let ci = ref 0 in
  let finished =
    List.map2
      (fun (_, fin, dom, dst) r ->
        let v =
          match fin with
          | `A2b ->
              let c = !conv.(!ci) in
              incr ci;
              c
          | `Id -> r
        in
        (dst, Column.of_shared ~dom v))
      expanded results
  in
  let t =
    List.fold_left (fun t (dst, c) -> Table.set_col t dst c) !marked finished
  in
  (* resolve AVG divisions *)
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
          let q, _ =
            Orq_circuits.Divide.udiv ctx ~qw:(Dom.width dom) ~w:s.Column.width
              ~wd:c.Column.width (Column.data s) (Column.as_bool ctx c)
          in
          Table.drop_cols
            (Table.set_col t a.dst (Column.of_shared ~dom q))
            [ a.dst ^ "#sum"; a.dst ^ "#count" ]
      | Sum | Count | Min | Max | Custom _ -> t)
    t aggs

(** GROUP BY [keys] evaluating the aggregations [aggs] (the paper's
    [.aggregate()]): sorts on the keys, runs the aggregation network, and
    keeps one valid row per group (the one holding the group total, marked
    by the network's own pre-pass). AVG is computed with the fully private
    non-restoring division circuit, its quotient bounded by an unsigned
    source's width (the result takes that width). Two SUMs whose sources
    are ordered row by row ([Table.Le]) keep that order, and each SUM of
    an unsigned source records what it sums ([Table.Sum_of]). *)
let aggregate (t : Table.t) ~(keys : string list) ~(aggs : agg list) : Table.t =
  let ctx = Table.ctx t in
  Ctx.with_label ctx "aggregate" @@ fun () ->
  check_aggs ~rows:(Table.nrows t) t aggs;
  let facts = sum_facts t ~whole:false aggs in
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
  let rows = Table.nrows t in
  (* the sources' conversions and the network's pre-pass are
     data-independent: fused round tracks *)
  let expanded = ref [] and pre = ref None in
  ignore
    (Mpc.fuse_rounds ctx
       [|
         (fun () ->
           expanded :=
             List.concat_map
               (expand_agg ctx ~rows ~find:(Table.find t)
                  ~count:(fun () -> Share.public ctx Share.Arith rows 1)
                  ~seg:Aggnet.Group)
               aggs);
         (fun () -> pre := Some (Aggnet.boundaries ctx ~keys:key_shares ()));
       |]);
  let b = Option.get !pre in
  let results = Aggnet.propagate ctx b (List.map spec_of !expanded) in
  let out =
    finish t aggs !expanded results ~last:(Aggnet.last_of_group ctx b)
      ~src:(Table.find t)
  in
  parked (Table.add_facts out facts)

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
        | Max -> `Minmax (a, false, Table.width t a.src, Table.column t a.src)
        | Custom _ ->
            invalid_arg "global_aggregate: custom functions need group keys")
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
            let q, _ =
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
         | Sum | Min | Max | Avg | Custom _ ->
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
    let expanded = ref [] in
    let g =
      Joinagg.join_grouped ctx variant ~copy ~left ~right ~on
        ~aggs:(fun ~find ~tid ->
          let count =
            lazy (Orq_circuits.Convert.bit_b2a ctx (Share.pack_flags tid))
          in
          expanded :=
            List.concat_map
              (expand_agg ctx ~rows:(Table.nrows right) ~find
                 ~count:(fun () -> Lazy.force count)
                 ~seg:Aggnet.Group_and_tid)
              aggs;
          List.map spec_of !expanded)
        ()
    in
    let t =
      finish g.Joinagg.g_table aggs !expanded g.g_results ~last:g.g_last
        ~src:(Table.find right)
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
        let t = aggregate (Linjoin.join ctx `Inner ~copy ~left ~right ~on ()) ~keys ~aggs in
        Table.project t (keys @ List.map (fun a -> a.dst) aggs)
    | Joincost.Sort -> parked (grouped Joinagg.V_inner)
  end

(** SEMI JOIN — keep left rows that match some right row. Implemented as
    the swapped inner join of Appendix C.1, then projected back to the
    left schema. Handles duplicates on both sides. *)
let semi_join ?trim (left : Table.t) (right : Table.t) ~(on : string list) :
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
        Joinagg.join ctx Joinagg.V_inner ?trim ~left:right' ~right:left ~on ()
  in
  parked (Table.rename (Table.project joined (Table.col_names left)) left.Table.name)

(** ANTI JOIN — keep left rows with no match in right (swapped right-outer
    with cross-table valid propagation, Appendix C.1). *)
let anti_join ?trim (left : Table.t) (right : Table.t) ~(on : string list) :
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
        Joinagg.join ctx Joinagg.V_anti ?trim ~left:right' ~right:left ~on ()
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
