(** The composite oblivious join-aggregation operator (§3.3, Protocol 3;
    variants §3.4; correctness Appendix C; trimming heuristic C.3).

    Skeleton: concatenate the two tables; TableSort on the composite key
    (V_LR, join keys, table id) so each group is [one L row; its R rows];
    the aggregation network's boundary pre-pass computes every level's
    group-boundary bits, whose distance-1 level marks the group heads
    (DISTINCT); a per-variant validity rule invalidates the rows outside
    the join semantics; the network's propagation then (a) copies
    requested L-columns downward into the matching R rows, (b) propagates
    invalidation within each table's segment of the group (or across it,
    for anti-join), and (c) evaluates optional decomposable aggregations
    on the join-key groups ({!join_grouped}) — all in the same oblivious
    control flow. An optional trim bounds the output at |R| rows, governed
    by the paper's heuristic.

    The left input must have unique join keys (one-to-many); many-to-many
    joins pre-aggregate the left table first (§3.6), which the dataflow
    layer does. Semi- and anti-join are the swapped-input reductions of
    Appendix C.1 and are exposed by {!Dataflow}. *)

open Orq_proto

type variant =
  | V_inner
  | V_left_outer
      (** the paper's semantics (Appendix C.1): "an inner join, plus all
          rows from the left" — matched left rows also survive, carrying
          NULL right-columns (unlike SQL LEFT JOIN, which suppresses them);
          {!join_grouped} only *)
  | V_anti  (** V_LR ∧ Tid validity + cross-table valid propagation *)

type trim_mode = [ `Auto | `Always | `Never ]

(** The paper's trimming heuristic (C.3): trimming the n redundant rows pays
    off iff a join over them would cost more than a valid-bit sort of the
    whole table — 3 * alpha * N < lg L * lg omega with alpha = m/n and
    omega the padded share width. *)
let should_trim (ctx : Ctx.t) ~left_n:n ~right_m:m =
  let omega = 2 * ctx.ell in
  3 * ctx.parties * m
  < n * Orq_util.Ring.log2_ceil n * Orq_util.Ring.log2_ceil omega

(* Concatenate a left and right column with the given fill value on the
   absent side. *)
let concat_lr (ctx : Ctx.t) ~n ~m (side : [ `L | `R ]) (data : Share.shared)
    ~fill : Share.shared =
  match side with
  | `L -> Share.append data (Share.public ctx data.Share.enc m fill)
  | `R -> Share.append (Share.public ctx data.Share.enc n fill) data

(* The shared steps 1-2 of Protocol 3: schema merge, concatenation with
   the origin column, and TableSort on (V_LR, K, Tid). *)
type prepared = {
  p_v_lr : Share.shared;
  p_keys : (Share.shared * int) list;
  p_key_doms : Dom.t list;  (** each key's hull over both sides *)
  p_tid : Share.shared;
  p_l_cols : (string * Share.shared * Column.t) list;
      (** sorted left data, with the source column it came from *)
  p_r_cols : (string * Column.t) list;
}

let prepare (ctx : Ctx.t) ~(left : Table.t) ~(right : Table.t)
    ~(on : string list) : prepared =
  let n = Table.nrows left and m = Table.nrows right in
  let key_doms = List.map (Table.key_dom left right) on in
  let key_widths = List.map Dom.width key_doms in
  let left_data =
    List.filter (fun (name, _) -> not (List.mem name on)) left.Table.cols
  in
  let right_data =
    List.filter (fun (name, _) -> not (List.mem name on)) right.Table.cols
  in
  List.iter
    (fun (name, _) ->
      if List.mem_assoc name right_data then
        invalid_arg
          ("Joinagg: column " ^ name
         ^ " exists in both inputs; rename before joining"))
    left_data;
  (* --- Step 1: concatenation --- *)
  let keys0 =
    List.map2
      (fun k w ->
        ( Share.append
            (Column.as_bool ctx (Table.find left k))
            (Column.as_bool ctx (Table.find right k)),
          w ))
      on key_widths
  in
  let v_lr = Share.append left.Table.valid right.Table.valid in
  let tid =
    Share.append
      (Share.public ctx Share.Bool n 0)
      (Share.public ctx Share.Bool m 1)
  in
  let l_cols =
    List.map
      (fun (name, c) ->
        (name, concat_lr ctx ~n ~m `L (Column.as_bool ctx c) ~fill:0, c))
      left_data
  in
  let r_cols =
    List.map
      (fun (name, c) ->
        (name, concat_lr ctx ~n ~m `R (Column.as_bool ctx c) ~fill:0, c))
      right_data
  in
  (* --- Step 2: sort on K_s = (V_LR, keys, Tid) --- *)
  let sort_keys =
    ((v_lr, 1, Tablesort.Asc)
    :: List.map (fun (k, w) -> (k, w, Tablesort.Asc)) keys0)
    @ [ (tid, 1, Tablesort.Asc) ]
  in
  let payload =
    List.map (fun (_, d, c) -> (Share.wrap d, c.Column.width)) (l_cols @ r_cols)
  in
  let sorted_keys, sorted_payload =
    let keys = List.map (fun (k, w, o) -> (Share.wrap k, w, o)) sort_keys in
    let k, p = Tablesort.sort_cols ctx ~keys payload in
    (List.map Share.unpark k, List.map Share.unpark p)
  in
  let v_lr', keys', tid' =
    match sorted_keys with
    | v :: rest ->
        let nk = List.length on in
        ( v,
          List.map2
            (fun k w -> (k, w))
            (Orq_sort.Quicksort.take nk rest)
            key_widths,
          List.nth rest nk )
    | [] -> assert false
  in
  let nl = List.length l_cols in
  let l_cols' =
    List.map2
      (fun (name, _, c) d -> (name, d, c))
      l_cols
      (Orq_sort.Quicksort.take nl sorted_payload)
  in
  let r_cols' =
    List.map2
      (fun (name, _, c) d -> (name, Column.with_data c d))
      r_cols
      (Orq_sort.Quicksort.drop nl sorted_payload)
  in
  {
    p_v_lr = v_lr';
    p_keys = keys';
    p_key_doms = key_doms;
    p_tid = tid';
    p_l_cols = l_cols';
    p_r_cols = r_cols';
  }

(* --- Step 4: assemble the output table, then optionally trim --- *)
let finalize (ctx : Ctx.t) ~name ~(valid : Share.shared)
    ~(cols : (string * Column.t) list) ~(bound : int) ~(do_trim : bool) :
    Table.t =
  let result = Table.of_columns ctx name ~valid cols in
  if not do_trim then result
  else begin
    (* single-bit valid sort (descending) then drop the spare rows *)
    let data_cols =
      List.map
        (fun (_, c) -> (Share.wrap (Column.data c), c.Column.width))
        result.Table.cols
    in
    let sorted_v, sorted_data =
      Tablesort.sort_cols ctx
        ~keys:[ (Share.wrap result.Table.valid, 1, Tablesort.Desc) ]
        data_cols
    in
    let v = Share.unpark (List.hd sorted_v) in
    let cols =
      List.map2
        (fun (name, c) d ->
          (name, Column.with_data c (Share.sub_range (Share.unpark d) 0 bound)))
        result.Table.cols sorted_data
    in
    Table.of_columns ctx result.Table.name
      ~valid:(Share.sub_range v 0 bound)
      cols
  end

(* --- Steps 2b-3 over a prepared join: the network's boundary pre-pass,
   the per-variant validity rule between pre-pass and propagation, and one
   propagation for copies, valid propagation and the specs [aggs] builds.
   [aggs] runs fused with the pre-pass, so it must not read the
   boundaries.
   Returns the copied columns, the final validity, the aggregation results
   and the pre-pass. --- *)
let network (ctx : Ctx.t) (variant : variant) (p : prepared)
    ~(copy : string list)
    ~(aggs : (unit -> Aggnet.spec list) option) =
  let { p_v_lr = v_lr'; p_tid = tid'; _ } = p in
  let k_a = (v_lr', 1) :: p.p_keys in
  let copy_specs =
    List.map
      (fun cname ->
        match List.find_opt (fun (nme, _, _) -> nme = cname) p.p_l_cols with
        | Some (_, d, c) ->
            ( cname,
              { Aggnet.col = d; func = Aggnet.Copy; keys = Aggnet.Group; width = c.Column.width },
              c )
        | None -> invalid_arg ("Joinagg.join: copy column not in left: " ^ cname))
      copy
  in
  (* which key set propagates invalidation: within each table's segment
     of a group, or across it (anti) *)
  let valid_keys =
    match variant with
    | V_inner | V_left_outer -> Aggnet.Group_and_tid
    | V_anti -> Aggnet.Group
  in
  let needs_tid = valid_keys = Aggnet.Group_and_tid || aggs <> None in
  let vlr = Share.pack_flags v_lr' in
  let pre = ref None and vt = ref vlr and agg_specs = ref [] in
  (* the pre-pass, V_LR ∧ Tid and the aggregation sources' conversions are
     data-independent: fused round tracks. Anti validity never reads
     DISTINCT. *)
  ignore
    (Mpc.fuse_rounds ctx
       [|
         (fun () ->
           let tid = if needs_tid then Some tid' else None in
           pre := Some (Aggnet.boundaries ctx ~keys:k_a ?tid ()));
         (fun () ->
           match variant with
           | V_left_outer | V_anti ->
               vt := Mpc.band_f ctx vlr (Share.pack_flags tid')
           | V_inner -> ());
         (fun () -> Option.iter (fun f -> agg_specs := f ()) aggs);
       |]);
  (* --- validity rule per variant (temporary column V_o; the aggregation
         keys keep using V_LR, cf. Appendix C footnote). DISTINCT is the
         pre-pass's first-of-group mark. --- *)
  let pre = Option.get !pre in
  let first () = Aggnet.first_of_group ctx pre in
  let v_o =
    match variant with
    | V_inner -> Share.unpack_flags (Mpc.band_f ctx vlr (Mpc.bnot_f (first ())))
    | V_left_outer ->
        (* V_LR ∧ ¬(Tid ∧ DISTINCT) = V_LR ⊕ (V_LR ∧ Tid ∧ DISTINCT) *)
        Mpc.xor v_lr' (Share.unpack_flags (Mpc.band_f ctx !vt (first ())))
    | V_anti -> Share.unpack_flags !vt
  in
  let valid_spec =
    { Aggnet.col = v_o; func = Aggnet.Copy; keys = valid_keys; width = 1 }
  in
  let results =
    Aggnet.propagate ctx pre
      (List.map (fun (_, sp, _) -> sp) copy_specs @ (valid_spec :: !agg_specs))
  in
  let ncopy = List.length copy_specs in
  let copied =
    List.map2
      (fun (name, _, c) d -> (name, Column.with_data c d))
      copy_specs
      (Orq_sort.Quicksort.take ncopy results)
  in
  let valid_final, agg_results =
    match Orq_sort.Quicksort.drop ncopy results with
    | v :: r -> (v, r)
    | [] -> assert false
  in
  (copied, valid_final, agg_results, pre)

let key_cols (p : prepared) on =
  List.map2
    (fun name ((k, _), dom) -> (name, Column.of_shared ~dom k))
    on (List.combine p.p_keys p.p_key_doms)

(** [join ctx variant ~copy ~trim ~left ~right ~on ()] — the full
    operator, inner or anti. [copy] names left columns to propagate into
    matching right rows. *)
let join (ctx : Ctx.t) (variant : variant) ?(copy : string list = [])
    ?(trim : trim_mode = `Auto) ~(left : Table.t) ~(right : Table.t)
    ~(on : string list) () : Table.t =
  if variant = V_left_outer then
    invalid_arg "Joinagg.join: inner or anti only";
  Ctx.with_label ctx "join" @@ fun () ->
  let n = Table.nrows left and m = Table.nrows right in
  let p = prepare ctx ~left ~right ~on in
  let copied, valid, _, _ = network ctx variant p ~copy ~aggs:None in
  let do_trim =
    match trim with
    | `Never -> false
    | `Always -> true
    | `Auto -> should_trim ctx ~left_n:n ~right_m:m
  in
  finalize ctx
    ~name:(left.Table.name ^ "_join_" ^ right.Table.name)
    ~valid ~cols:(key_cols p on @ p.p_r_cols @ copied) ~bound:m ~do_trim

type grouped = {
  g_table : Table.t;
      (** join keys and copied left columns; validity is the join's *)
  g_last : Share.flags;  (** each join-key group's last row *)
  g_results : Share.shared list;  (** the network results of [aggs] *)
}

(** [join_grouped ctx variant ~copy ~aggs ~left ~right ~on ()] evaluates
    decomposable aggregations on the join-key groups inside the join's own
    TableSort and network (§3.3). [aggs] builds the specs from the sorted
    right columns and Tid (the absent side holds zero); results land in
    each group's last row, so one row per group — join validity ∧
    [g_last] — carries them. Inner and left-outer variants only. *)
let join_grouped (ctx : Ctx.t) (variant : variant) ?(copy : string list = [])
    ~(aggs : find:(string -> Column.t) -> tid:Share.shared -> Aggnet.spec list)
    ~(left : Table.t) ~(right : Table.t) ~(on : string list) () : grouped =
  (match variant with
  | V_inner | V_left_outer -> ()
  | V_anti ->
      invalid_arg "Joinagg.join_grouped: inner or left-outer only");
  Ctx.with_label ctx "join" @@ fun () ->
  let p = prepare ctx ~left ~right ~on in
  (* the sorted right columns, with the right table's signedness *)
  let find c = List.assoc c p.p_r_cols in
  let copied, valid, results, pre =
    network ctx variant p ~copy ~aggs:(Some (fun () -> aggs ~find ~tid:p.p_tid))
  in
  {
    g_table =
      Table.of_columns ctx
        (left.Table.name ^ "_join_" ^ right.Table.name)
        ~valid (key_cols p on @ copied);
    g_last = Aggnet.last_of_group ctx pre;
    g_results = results;
  }
