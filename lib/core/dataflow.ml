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

(** Attach a derived column (e.g. Revenue = Price * (100 - Discount) / 100). *)
let map (t : Table.t) ~dst ?width (e : Expr.num) : Table.t =
  let c = Expr.eval_col t e in
  let c = match width with Some w -> { c with Column.width = w } | None -> c in
  parked (Table.set_col t dst c)

let project = Table.project

(* ------------------------------------------------------------------ *)
(* Sort / limit / distinct                                             *)
(* ------------------------------------------------------------------ *)

(** ORDER BY: valid rows float to the top (validity is a leading descending
    key), then the user keys apply. *)
let order_by (t : Table.t) (specs : (string * order) list) : Table.t =
  Ctx.with_label (Table.ctx t) "orderby" @@ fun () ->
  parked (Tablesort.sort ~lead:[ (t.Table.valid, 1, Tablesort.Desc) ] t specs)

(** LIMIT k (after an ORDER BY): keep the first k physical rows. *)
let limit (t : Table.t) k : Table.t = Table.take_rows t k

(** DISTINCT on a composite key: sort and keep each group's first row. *)
let distinct (t : Table.t) (keys : string list) : Table.t =
  let ctx = Table.ctx t in
  Ctx.with_label ctx "distinct" @@ fun () ->
  let t =
    Tablesort.sort
      ~lead:[ (t.Table.valid, 1, Tablesort.Asc) ]
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

let sum_width (t : Table.t) w =
  min (w + Orq_util.Ring.log2_ceil (Table.nrows t) + 1) 58

let count_width (t : Table.t) = Orq_util.Ring.log2_ceil (Table.nrows t) + 1

(* Build the Aggnet specs for one dataflow aggregation; Avg expands to a
   sum/count pair plus a post-division. Each entry is
   (spec, finisher tag, width, signedness of result, destination name).
   The finisher is a tag rather than a closure so [aggregate] can run all
   [`A2b] finishes through one fused conversion. *)
let expand_agg (t : Table.t) (a : agg) :
    (Aggnet.spec * [ `A2b | `Id ] * int * bool * string) list =
  let ctx = Table.ctx t in
  match a.fn with
  | Sum ->
      let src = Table.find t a.src in
      let w = sum_width t src.Column.width in
      let col = Column.as_arith ctx src in
      [
        ( { Aggnet.col; func = Aggnet.Sum; keys = Aggnet.Group; width = w },
          `A2b,
          w,
          src.Column.signed,
          a.dst );
      ]
  | Count ->
      let w = count_width t in
      let col = Share.public ctx Share.Arith (Table.nrows t) 1 in
      [
        ( { Aggnet.col; func = Aggnet.Sum; keys = Aggnet.Group; width = w },
          `A2b,
          w,
          false,
          a.dst );
      ]
  | Min ->
      (* unsigned comparisons: signed min/max would need the sign-flip map *)
      let w = Table.width t a.src in
      [
        ( {
            Aggnet.col = Table.column t a.src;
            func = Aggnet.Min w;
            keys = Aggnet.Group;
            width = w;
          },
          `Id,
          w,
          false,
          a.dst );
      ]
  | Max ->
      let w = Table.width t a.src in
      [
        ( {
            Aggnet.col = Table.column t a.src;
            func = Aggnet.Max w;
            keys = Aggnet.Group;
            width = w;
          },
          `Id,
          w,
          false,
          a.dst );
      ]
  | Custom f ->
      let w = Table.width t a.src in
      [
        ( {
            Aggnet.col = Table.column t a.src;
            func = Aggnet.Custom f;
            keys = Aggnet.Group;
            width = w;
          },
          `Id,
          w,
          false,
          a.dst );
      ]
  | Avg ->
      (* expands to hidden sum and count columns; the (unsigned) division
         happens in [aggregate] once both results exist *)
      let src = Table.find t a.src in
      let ws = sum_width t src.Column.width in
      let wc = count_width t in
      let col = Column.as_arith ctx src in
      let ones = Share.public ctx Share.Arith (Table.nrows t) 1 in
      [
        ( { Aggnet.col; func = Aggnet.Sum; keys = Aggnet.Group; width = ws },
          `A2b,
          ws,
          false,
          a.dst ^ "#sum" );
        ( { Aggnet.col = ones; func = Aggnet.Sum; keys = Aggnet.Group; width = wc },
          `A2b,
          wc,
          false,
          a.dst ^ "#count" );
      ]

(** GROUP BY [keys] evaluating the aggregations [aggs] (the paper's
    [.aggregate()]): sorts on the keys, runs the aggregation network, and
    keeps one valid row per group (the one holding the group total). AVG is
    computed with the fully private non-restoring division circuit. *)
let aggregate (t : Table.t) ~(keys : string list) ~(aggs : agg list) : Table.t =
  let ctx = Table.ctx t in
  Ctx.with_label ctx "aggregate" @@ fun () ->
  let t =
    Tablesort.sort
      ~lead:[ (t.Table.valid, 1, Tablesort.Asc) ]
      t
      (List.map (fun k -> (k, Asc)) keys)
  in
  let key_shares =
    (t.Table.valid, 1)
    :: List.map (fun k -> (Table.column t k, Table.width t k)) keys
  in
  let expanded = List.concat_map (expand_agg t) aggs in
  let results =
    Aggnet.run ctx ~keys:key_shares (List.map (fun (sp, _, _, _, _) -> sp) expanded)
  in
  (* every sum/count result converts through one fused A2B *)
  let conv =
    Orq_circuits.Convert.a2b_many ctx
      (Array.of_list
         (List.concat
            (List.map2
               (fun (_, fin, w, _, _) r ->
                 match fin with `A2b -> [ (r, w) ] | `Id -> [])
               expanded results)))
  in
  let ci = ref 0 in
  let finished =
    List.map2
      (fun (_, fin, w, signed, dst) r ->
        let v =
          match fin with
          | `A2b ->
              let c = conv.(!ci) in
              incr ci;
              c
          | `Id -> r
        in
        (dst, Column.of_shared ~signed ~width:w v))
      expanded results
  in
  let t =
    List.fold_left (fun t (dst, c) -> Table.set_col t dst c) t finished
  in
  (* resolve AVG divisions *)
  let t =
    List.fold_left
      (fun t a ->
        match a.fn with
        | Avg ->
            let s = Table.find t (a.dst ^ "#sum") in
            let c = Table.find t (a.dst ^ "#count") in
            let w = s.Column.width in
            let q, _ =
              Orq_circuits.Divide.udiv ctx ~w ~wd:c.Column.width (Column.data s)
                (Column.as_bool ctx c)
            in
            Table.drop_cols
              (Table.set_col t a.dst (Column.of_shared ~width:w q))
              [ a.dst ^ "#sum"; a.dst ^ "#count" ]
        | Sum | Count | Min | Max | Custom _ -> t)
      t aggs
  in
  let last = Aggnet.last_of_group_bits ctx ~keys:key_shares in
  parked (Table.and_valid t last)

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
  let module Cv = Orq_circuits.Convert in
  let module Mx = Orq_circuits.Mux in
  let module Cp = Orq_circuits.Compare in
  let v_arith = lazy (Cv.bit_b2a ctx t.Table.valid) in
  let plans =
    List.map
      (fun a ->
        match a.fn with
        | Sum ->
            let src = Table.find t a.src in
            let w = sum_width t src.Column.width in
            `Masked (a, Column.as_arith ctx src, w, src.Column.signed, false)
        | Avg ->
            let ws = sum_width t (Table.width t a.src) in
            `Masked (a, Column.as_arith ctx (Table.find t a.src), ws, false, true)
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
      (function `Masked (_, x, w, _, _) -> Some (x, w) | _ -> None)
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
        | `Masked (a, _, w, signed, is_avg) ->
            let p = products.(!mi) in
            incr mi;
            let si = push_a2b (Mpc.sum_all p) w in
            if is_avg then
              let ci =
                push_a2b (Mpc.sum_all (Lazy.force v_arith)) (count_width t)
              in
              `Avg' (a, w, si, ci)
            else `Sum' (a, w, signed, si)
        | `Count a ->
            let w = count_width t in
            `Sum' (a, w, false, push_a2b (Mpc.sum_all (Lazy.force v_arith)) w)
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
               (t.Table.valid, Share.public ctx Share.Bool t.Table.nrows ident, x))
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
        | `Sum' (a, w, signed, si) ->
            (a.dst, Column.of_shared ~signed ~width:w conv.(si))
        | `Avg' (a, ws, si, ci) ->
            let q, _ =
              Orq_circuits.Divide.udiv ctx ~w:ws ~wd:(count_width t) conv.(si)
                conv.(ci)
            in
            (a.dst, Column.of_shared ~width:ws q)
        | `Minmax (a, _, w, _) ->
            let v = mm_vals.(!mmi) in
            incr mmi;
            (a.dst, Column.of_shared ~width:w v))
      staged
  in
  Table.of_columns ctx (t.Table.name ^ "_agg")
    ~valid:(Share.public ctx Share.Bool 1 1)
    cols

(** Broadcast the single row of [scalar] (e.g. a global aggregate) as a new
    constant column of [t] — a local share replication. *)
let with_scalar (t : Table.t) ~(scalar : Table.t) ~(src : string)
    ~(dst : string) : Table.t =
  let c = Table.find scalar src in
  if Column.length c <> 1 then invalid_arg "with_scalar: not a scalar";
  let data =
    Share.map_vectors
      (fun vk -> Array.make (Table.nrows t) vk.(0))
      (Column.data c)
  in
  Table.set_col t dst (Column.with_data c data)

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

type join_agg = Joinagg.agg_spec = {
  a_src : string;
  a_dst : string;
  a_func : Aggnet.func;
  a_width : int;
}

(* The public shape of a join node, handed to the cost-based operator
   selection (Joincost): cardinalities and widths only. *)
let join_shape (left : Table.t) (right : Table.t) ~(on : string list)
    ~(copy : string list) ~(aggs : bool) ~(bounded : bool)
    ~(variant : Joincost.variant) : Joincost.shape =
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
    j_aggs = aggs;
    j_bounded = bounded;
    j_variant = variant;
  }

(** INNER JOIN (one-to-many: [left] must have unique keys — pre-aggregate
    first for many-to-many, §3.6). [copy] propagates left columns into the
    matching right rows. The physical operator — sort-based
    join-aggregation, LINQ-style linear join, or the quadratic baseline —
    is chosen per node by the {!Joincost} cost model (override with
    [ORQ_JOIN]). *)
let inner_join ?copy ?aggs ?trim (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  let ctx = Table.ctx left in
  let has_aggs = match aggs with Some (_ :: _) -> true | _ -> false in
  let shape =
    join_shape left right ~on
      ~copy:(Option.value copy ~default:[])
      ~aggs:has_aggs
      ~bounded:(trim = Some `Always)
      ~variant:Joincost.J_inner
  in
  let node =
    Printf.sprintf "%s \xe2\x8b\x88 %s" left.Table.name right.Table.name
  in
  parked
    (match Joincost.choose_logged ctx ~node shape with
    | Joincost.Linear -> Linjoin.join ctx `Inner ?copy ~left ~right ~on ()
    | Joincost.Quad -> Linjoin.quad ctx ?copy ~left ~right ~on ()
    | Joincost.Sort ->
        Joinagg.join ctx Joinagg.V_inner ?copy ?aggs ?trim ~left ~right ~on ())

let left_outer_join ?copy ?aggs (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  parked
    (Joinagg.join (Table.ctx left) Joinagg.V_left_outer ?copy ?aggs ~left
       ~right ~on ())

let right_outer_join ?copy ?aggs (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  parked
    (Joinagg.join (Table.ctx left) Joinagg.V_right_outer ?copy ?aggs ~left
       ~right ~on ())

let full_outer_join ?copy ?aggs (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  parked
    (Joinagg.join (Table.ctx left) Joinagg.V_full_outer ?copy ?aggs ~left
       ~right ~on ())

(** Unique-key inner join (Appendix C): both sides' keys are unique in the
    public schema, so the aggregation network is skipped — an oblivious
    PSI-style join bounded by min(|L|, |R|). Used for the SecretFlow
    comparison, whose join requires unique keys. *)
let inner_join_unique ?copy ?trim (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  parked (Joinagg.join_unique (Table.ctx left) ?copy ?trim ~left ~right ~on ())

(** COUNT(DISTINCT over) per group: DISTINCT on (keys, over) followed by a
    grouped count — the §3.6 pattern ORQ uses to evaluate count-distinct
    over many-to-many joins without materializing them. *)
let count_distinct (t : Table.t) ~(keys : string list) ~(over : string list)
    ~(dst : string) : Table.t =
  let d = distinct t (keys @ over) in
  aggregate d ~keys
    ~aggs:[ { src = List.hd (keys @ over); dst; fn = Count } ]

(** THETA JOIN (§3.4): a conjunctive predicate containing at least one
    equality — the equalities bound the output size and drive the
    join-aggregation operator; the remaining conditions become an oblivious
    filter over the joined table. *)
let theta_join ?copy ?aggs ?trim (left : Table.t) (right : Table.t)
    ~(on : string list) ~(theta : Expr.pred) : Table.t =
  filter (inner_join ?copy ?aggs ?trim left right ~on) theta

(** SEMI JOIN — keep left rows that match some right row. Implemented as
    the swapped inner join of Appendix C.1, then projected back to the
    left schema. Handles duplicates on both sides. *)
let semi_join ?trim (left : Table.t) (right : Table.t) ~(on : string list) :
    Table.t =
  let ctx = Table.ctx left in
  let right' = Table.project right on in
  let shape =
    join_shape right' left ~on ~copy:[] ~aggs:false
      ~bounded:(trim = Some `Always) ~variant:Joincost.J_semi
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
    | Joincost.Quad | Joincost.Sort ->
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
    join_shape right' left ~on ~copy:[] ~aggs:false
      ~bounded:(trim = Some `Always) ~variant:Joincost.J_anti
  in
  let node =
    Printf.sprintf "%s \xe2\x96\xb7 %s" left.Table.name right.Table.name
  in
  let joined =
    match Joincost.choose_logged ctx ~node shape with
    | Joincost.Linear -> Linjoin.join ctx `Anti ~left:right' ~right:left ~on ()
    | Joincost.Quad | Joincost.Sort ->
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
         let joined = Column.append ca cb in
         ( n,
           {
             joined with
             Column.width = max ca.Column.width cb.Column.width;
             signed = ca.Column.signed || cb.Column.signed;
           } ))
       a.Table.cols)
