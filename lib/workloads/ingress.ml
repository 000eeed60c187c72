(** Data-owner ingress: a plaintext table secret-shared under its schema
    of public column domains.

    The schema is the data owner's public metadata: each shared column
    with the interval [lo, hi] its values lie in, from which the column's
    width follows. The sharing party checks its plaintext against the
    domain as it reads it; a value outside fails the whole load with an
    error naming the table, the column, the value and the domain. *)

module Ptable = Orq_plaintext.Ptable
module Dom = Orq_core.Dom

type schema = (string * Dom.t) list

(* The table's columns as arrays, read in one pass over its rows, each
   value checked against its column's domain as it is read. *)
let columns name (schema : schema) (p : Ptable.t) =
  let n = Ptable.nrows p in
  let names = Array.of_list (Ptable.schema p) in
  let doms = Array.map (fun c -> List.assoc_opt c schema) names in
  let cols = Array.map (fun _ -> Array.make n 0) names in
  List.iteri
    (fun i row ->
      List.iteri
        (fun j v ->
          (match doms.(j) with
          | Some d when not (Dom.mem v d) ->
              invalid_arg
                (Printf.sprintf "%s.%s: value %d is outside its declared domain %s"
                   name names.(j) v (Dom.to_string d))
          | _ -> ());
          cols.(j).(i) <- v)
        row)
    p.Ptable.rows;
  fun cname -> cols.(Ptable.col_idx p cname)

(** Share [p] as table [name], its columns in schema order, then the
    validity column. Under streaming each column's share vectors enter the
    budget-managed store chunk by chunk (evictable immediately), so the
    peak resident share data of a catalog load is bounded by the budget,
    not the table size; otherwise each column is one whole untracked
    vector. Draws are element-major either way, identical to sharing the
    whole column.
    @raise Invalid_argument naming the table, column, value and domain of
    the first value outside its column's domain, before anything is
    shared. *)
let share_table (ctx : Orq_proto.Ctx.t) name (schema : schema) (p : Ptable.t) :
    Orq_core.Table.t =
  let n = Ptable.nrows p in
  let tracked = Orq_util.Chunkvec.streaming_enabled () in
  let col = columns name schema p in
  let shared_cols =
    List.map
      (fun (cname, dom) ->
        let values = col cname in
        let ck =
          Orq_proto.Share.share_chunked ctx Orq_proto.Share.Bool ~tracked ~n
            (fun pos len -> Array.sub values pos len)
        in
        (cname, Orq_core.Column.of_chunked ~dom ck))
      schema
  in
  let valid = Orq_proto.Share.share ctx Orq_proto.Share.Bool (Array.make n 1) in
  Orq_core.Table.of_columns ctx name ~valid shared_cols
