(** Secrecy-style baseline operators (Liagouris et al., NSDI'23) — the
    system the paper compares against in Figure 5 (left) and Table 8.

    Secrecy is fully oblivious like ORQ but pays the worst-case costs ORQ's
    design avoids: its binary operators materialize the O(n*m) Cartesian
    product with per-pair equality bits, and its sorting/grouping is the
    O(n log^2 n) bitonic network. Reimplemented here over the same MPC
    substrate so the comparison isolates the algorithms (the standard
    artifact-evaluation substitute for the original single-threaded C
    codebase). *)

open Orq_proto
open Orq_core
module Compare = Orq_circuits.Compare

(* Row-index expansion for the Cartesian product of n x m rows. *)
let product_indices n m =
  let li = Array.make (n * m) 0 and ri = Array.make (n * m) 0 in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      li.((i * m) + j) <- i;
      ri.((i * m) + j) <- j
    done
  done;
  (li, ri)

(** Quadratic oblivious inner join: the output physically holds all n*m
    pairs; a secret equality bit per pair is its validity. *)
let nested_join (ctx : Ctx.t) (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  let n = Table.nrows left and m = Table.nrows right in
  let li, ri = product_indices n m in
  let expand_l s = Share.gather s li and expand_r s = Share.gather s ri in
  let eq =
    Compare.eq_composite ctx
      (List.map
         (fun k ->
           let w = max (Table.width left k) (Table.width right k) in
           ( expand_l (Column.as_bool ctx (Table.find left k)),
             expand_r (Column.as_bool ctx (Table.find right k)),
             w ))
         on)
  in
  let valid =
    Share.unpack_flags
      (Mpc.band_f ctx
         (Mpc.band_f ctx
            (Share.pack_flags (expand_l left.Table.valid))
            (Share.pack_flags (expand_r right.Table.valid)))
         eq)
  in
  let cols =
    List.map
      (fun k ->
        let c = Table.find left k in
        (k, Column.with_data c (expand_l (Column.as_bool ctx c))))
      on
    @ List.filter_map
        (fun (name, c) ->
          if List.mem name on then None
          else
            Some (name, Column.with_data c (expand_l (Column.as_bool ctx c))))
        left.Table.cols
    @ List.filter_map
        (fun (name, c) ->
          if List.mem name on then None
          else
            Some (name, Column.with_data c (expand_r (Column.as_bool ctx c))))
        right.Table.cols
  in
  Table.of_columns ctx "nested_join" ~valid cols

(** Quadratic oblivious semi-join: left rows keep an OR over the m
    per-pair equality bits. *)
let nested_semi_join (ctx : Ctx.t) (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  let n = Table.nrows left and m = Table.nrows right in
  let li, ri = product_indices n m in
  let eq =
    Compare.eq_composite ctx
      (List.map
         (fun k ->
           let w = max (Table.width left k) (Table.width right k) in
           ( Share.gather (Column.as_bool ctx (Table.find left k)) li,
             Share.gather (Column.as_bool ctx (Table.find right k)) ri,
             w ))
         on)
  in
  let eq =
    Mpc.band_f ctx eq (Share.pack_flags (Share.gather right.Table.valid ri))
  in
  (* OR-reduce each row's m bits in log m rounds; odd stragglers OR with
     themselves (branchless) *)
  let pick s idx = Share.pack_flags (Share.gather (Share.unpack_flags s) idx) in
  let rec fold s width =
    if width = 1 then s
    else
      let half = (width + 1) / 2 in
      let idx_a =
        Array.init (n * half) (fun t -> ((t / half) * width) + (t mod half))
      in
      let idx_b =
        Array.init (n * half) (fun t ->
            let i = t / half and j = t mod half in
            if j + half < width then (i * width) + j + half
            else (i * width) + j)
      in
      let merged = Mpc.bor_f_many ctx [| pick s idx_a |] [| pick s idx_b |] in
      fold merged.(0) half
  in
  let matched = fold eq m in
  Table.and_valid left matched

(** Bitonic table sort (pads to a power of two with invalid rows; the pad
    rows sort to the end via a leading descending validity key). The
    network sorts ascending, so a descending key goes in as its w-bit
    complement, undone on the sorted key. *)
let bitonic_sort (t : Table.t) (specs : (string * Tablesort.order) list) :
    Table.t =
  let ctx = Table.ctx t in
  let n = Table.nrows t in
  let n2 = Orq_util.Ring.next_pow2 n in
  let pad s fill =
    if n2 = n then s else Share.append s (Share.public ctx s.Share.enc (n2 - n) fill)
  in
  let flip o w s =
    match o with Tablesort.Asc -> s | Tablesort.Desc -> Mpc.xor_pub s (Orq_util.Ring.mask w)
  in
  let keys =
    (pad t.Table.valid 0, 1, Tablesort.Desc)
    :: List.map
         (fun (name, o) ->
           let c = Table.find t name in
           (pad (Column.as_bool ctx c) 0, c.Column.width, o))
         specs
  in
  let others =
    List.filter_map
      (fun (name, c) ->
        if List.mem_assoc name specs then None
        else Some (name, pad (Column.as_bool ctx c) 0))
      t.Table.cols
  in
  let sorted_keys, sorted_others =
    Orq_sort.Bitonic.sort ctx
      ~keys:(List.map (fun (s, w, o) -> (flip o w s, w)) keys)
      (List.map snd others)
  in
  let sorted_keys = List.map2 (fun (_, w, o) s -> flip o w s) keys sorted_keys in
  let key_cols =
    List.map2
      (fun (name, _) s -> (name, Share.sub_range s 0 n))
      specs (List.tl sorted_keys)
  in
  let valid = Share.sub_range (List.hd sorted_keys) 0 n in
  let cols =
    List.map
      (fun (name, c) ->
        match List.assoc_opt name key_cols with
        | Some data -> (name, Column.with_data c data)
        | None ->
            let data =
              List.assoc name
                (List.map2
                   (fun (nme, _) s -> (nme, Share.sub_range s 0 n))
                   others sorted_others)
            in
            (name, Column.with_data c data))
      t.Table.cols
  in
  Table.of_columns ctx t.Table.name ~valid cols

(** Secrecy-style group-by: bitonic sort on the keys, then the aggregation
    network (odd-even aggregation in the original), keeping group-last
    rows. *)
let group_by (t : Table.t) ~(keys : string list) ~(aggs : Dataflow.agg list) :
    Table.t =
  let ctx = Table.ctx t in
  let t = bitonic_sort t (List.map (fun k -> (k, Tablesort.Asc)) keys) in
  (* after the valid-leading bitonic sort, valid rows are on top but group
     boundaries still need the validity bit in the key *)
  let key_shares =
    (t.Table.valid, 1)
    :: List.map (fun k -> (Table.column t k, Table.width t k)) keys
  in
  let rows = Table.nrows t in
  let expanded =
    List.map
      (fun (a : Dataflow.agg) ->
        let src () = Table.find t a.Dataflow.src in
        let dom () = Dataflow.agg_dom ~rows (src ()).Column.dom a in
        let spec col func d conv =
          ({ Aggnet.col; func; keys = Aggnet.Group; width = Dom.width d }, d, a.Dataflow.dst, conv)
        in
        match a.Dataflow.fn with
        | Dataflow.Sum -> spec (Column.as_arith ctx (src ())) Aggnet.Sum (dom ()) true
        | Dataflow.Count ->
            spec (Share.public ctx Share.Arith rows 1) Aggnet.Sum
              (Dataflow.agg_dom ~rows Dom.zero a) true
        | Dataflow.Min ->
            let d = dom () in
            spec (Column.data (src ())) (Aggnet.Min (Dom.width d)) d false
        | Dataflow.Max ->
            let d = dom () in
            spec (Column.data (src ())) (Aggnet.Max (Dom.width d)) d false
        | Dataflow.Avg ->
            invalid_arg "Secrecy baseline group_by: sum/count/min/max only")
      aggs
  in
  let results =
    Aggnet.run ctx ~keys:key_shares (List.map (fun (sp, _, _, _) -> sp) expanded)
  in
  let t =
    List.fold_left2
      (fun t (_, d, dst, conv) r ->
        let data = if conv then Orq_circuits.Convert.a2b ~w:(Dom.width d) ctx r else r in
        Table.set_col t dst (Column.of_shared ~dom:d data))
      t expanded results
  in
  let last = Aggnet.last_of_group_bits ctx ~keys:key_shares in
  Table.and_valid t last

(** Secrecy-style DISTINCT: bitonic sort + adjacent comparison. *)
let distinct (t : Table.t) (keys : string list) : Table.t =
  let ctx = Table.ctx t in
  let t = bitonic_sort t (List.map (fun k -> (k, Tablesort.Asc)) keys) in
  let key_shares =
    (t.Table.valid, 1)
    :: List.map (fun k -> (Table.column t k, Table.width t k)) keys
  in
  Table.and_valid t (Aggnet.distinct_bits ctx ~keys:key_shares)
