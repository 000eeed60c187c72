(** Secret-shared relational tables (§3.1).

    A table is an ordered set of named shared columns plus the special
    *validity column* of secret-shared bits: operators never delete rows,
    they invalidate them, so the number of physical rows — the only quantity
    a computing party observes — depends only on public input sizes.
    Invalid rows are masked and shuffled before any opening. *)

open Orq_proto

type order = Asc | Desc

(* Public facts about column values on valid rows, derived from plan
   shape alone (never from data), so shape twins derive the same ones.
   Secret division reads them to bound its quotient; [reveal] reads
   [Ordered]. *)
type fact =
  | Le of string * string
      (** unsigned column [a] <= unsigned column [b], row by row *)
  | Sum_of of { col : string; src : Column.t; over : Share.shared; whole : bool }
      (** [col] sums the unsigned column [src] over valid rows (under
          validity [over]) of the table that held it: all of them when
          [whole], a subset otherwise *)
  | Ordered of (string * order) list
      (** valid rows are in ORDER BY order on these columns, most
          significant first *)

type t = {
  ctx : Ctx.t;
  name : string;
  cols : (string * Column.t) list;
  valid : Share.shared;  (** boolean single-bit validity column *)
  nrows : int;
  facts : fact list;
}

let ctx t = t.ctx
let nrows t = t.nrows
let col_names t = List.map fst t.cols

let find t name =
  match List.assoc_opt name t.cols with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "table %s has no column %s (has: %s)" t.name name
           (String.concat ", " (col_names t)))

let width t name = (find t name).Column.width

let key_dom a b k = Dom.hull (find a k).Column.dom (find b k).Column.dom
let column t name = Column.data (find t name)

let mem t name = List.mem_assoc name t.cols

(** Data-owner-side table construction from plaintext columns. All rows are
    initially valid unless a validity vector is supplied (padding). *)
let create (ctx : Ctx.t) name ?(valid : int array option)
    (cols : (string * int * int array) list) : t =
  let nrows =
    match cols with
    | (_, _, v) :: _ -> Array.length v
    | [] -> invalid_arg "Table.create: no columns"
  in
  let valid_bits =
    match valid with Some v -> v | None -> Array.make nrows 1
  in
  {
    ctx;
    name;
    cols =
      List.map
        (fun (n, w, v) ->
          if Array.length v <> nrows then
            invalid_arg ("Table.create: ragged column " ^ n);
          (n, Column.of_plaintext ctx ~width:w v))
        cols;
    valid = Share.share ctx Bool valid_bits;
    nrows;
    facts = [];
  }

let of_columns (ctx : Ctx.t) name ~(valid : Share.shared)
    (cols : (string * Column.t) list) : t =
  let nrows = Share.length valid in
  List.iter
    (fun (n, c) ->
      if Column.length c <> nrows then
        invalid_arg ("Table.of_columns: ragged column " ^ n))
    cols;
  { ctx; name; cols; valid; nrows; facts = [] }

let rename t name = { t with name }

let fact_cols = function
  | Le (a, b) -> [ a; b ]
  | Sum_of { col; _ } -> [ col ]
  | Ordered specs -> List.map fst specs

(* Keep the facts whose columns all pass [keep]. *)
let keep_facts t keep =
  { t with facts = List.filter (fun f -> List.for_all keep (fact_cols f)) t.facts }

let add_facts t fs = { t with facts = t.facts @ fs }
let le t a b =
  List.exists
    (function Le (x, y) -> x = a && y = b | Sum_of _ | Ordered _ -> false)
    t.facts

let set_col t name (c : Column.t) : t =
  let t = keep_facts t (fun n -> n <> name) in
  if mem t name then
    { t with cols = List.map (fun (n, c0) -> (n, if n = name then c else c0)) t.cols }
  else { t with cols = t.cols @ [ (name, c) ] }

(** PROJECT: keep only the named columns (validity is always kept). *)
let project t names =
  let t = keep_facts t (fun n -> List.mem n names) in
  { t with cols = List.map (fun n -> (n, find t n)) names }

let rename_col t ~from ~into =
  let t = keep_facts t (fun n -> n <> from && n <> into) in
  { t with cols = List.map (fun (n, c) -> ((if n = from then into else n), c)) t.cols }

(** Restrict to the first [k] physical rows (public row-count change; used
    by LIMIT after an ORDER BY that floated valid rows to the top). *)
let take_rows t k =
  let k = min k t.nrows in
  {
    t with
    cols = List.map (fun (n, c) -> (n, Column.sub_range c 0 k)) t.cols;
    valid = Share.sub_range t.valid 0 k;
    nrows = k;
  }

(** Data-owner padding (§3.1): append [extra] dummy (invalid, zero-valued)
    rows, hiding the true input cardinality from everyone — including the
    computing parties, since validity bits are secret-shared. *)
let pad_rows (t : t) extra : t =
  if extra <= 0 then t
  else
    {
      t with
      cols =
        List.map
          (fun (n, c) ->
            let pad = Column.with_data c (Share.public t.ctx (Column.enc c) extra 0) in
            (* Column.append reuses a parked column's chunks *)
            (n, Column.append c pad))
          t.cols;
      valid = Share.append t.valid (Share.public t.ctx Share.Bool extra 0);
      nrows = t.nrows + extra;
    }

(** Park every data column into budget-managed chunks (a streaming
    operator boundary; no-op for already-parked columns). The validity
    column stays monolithic — it is a single bit per row. *)
let park (t : t) : unit = List.iter (fun (_, c) -> Column.park c) t.cols

(** AND predicate flags into the validity column (oblivious filter:
    physical size unchanged, selectivity hidden): validity packs for the
    packed AND and unpacks back into the column's 0/1 words. *)
let and_valid t (bit : Share.flags) =
  {
    t with
    valid = Share.unpack_flags (Mpc.band_f t.ctx (Share.pack_flags t.valid) bit);
  }

(* ------------------------------------------------------------------ *)
(* Opening results to the analyst                                      *)
(* ------------------------------------------------------------------ *)

(** Open the table to the analyst: invalid rows are masked to zero and the
    table is shuffled before opening (§3.1), so only the valid result rows
    carry information. Returns the valid rows as plaintext columns. The
    masking is one fused AND; the shuffle opens every column at its width
    ({!Orq_shuffle.Permops.shuffle_open_table}: under SH-HM in the
    shuffle's last round, elsewhere one fused open after it). The shuffle
    hides which physical rows were valid and the order of ties; an
    [Ordered] table's valid rows are then sorted by its spec in the clear
    (signed keys read as two's complement at their width; ties keep their
    shuffled order). *)
let reveal (t : t) : (string * int array) list =
  let ctx = t.ctx in
  Ctx.with_label ctx "reveal" @@ fun () ->
  let names = List.map fst t.cols in
  let cols = Array.of_list (List.map snd t.cols) in
  let widths = Array.map (fun c -> c.Column.width) cols in
  let datas = Array.map (Column.as_bool ctx) cols in
  let ext = Share.extend_flags (Share.pack_flags t.valid) in
  let masked =
    Mpc.band_many ~widths ctx (Array.map (fun _ -> ext) datas) datas
  in
  let opened, _ =
    Orq_shuffle.Permops.shuffle_open_table ctx
      ~opened:
        (List.map2
           (fun s w -> (Share.wrap s, w))
           (t.valid :: Array.to_list masked)
           (1 :: Array.to_list widths))
      []
  in
  let opened = Array.of_list opened in
  let keep = ref [] in
  Array.iteri (fun i b -> if b = 1 then keep := i :: !keep) opened.(0);
  let keep = Array.of_list (List.rev !keep) in
  let keep =
    match List.find_map (function Ordered s -> Some s | _ -> None) t.facts with
    | None -> keep
    | Some specs ->
        let key r (name, o) =
          let i = List.assoc name (List.mapi (fun i n -> (n, i)) names) in
          let { Column.width = w; signed; _ } = cols.(i) in
          let v = opened.(i + 1).(r) in
          let neg = signed && (v lsr (w - 1)) land 1 = 1 in
          let v = if neg then v - (1 lsl w) else v in
          if o = Desc then -v else v
        in
        let keyed = Array.map (fun r -> (List.map (key r) specs, r)) keep in
        Array.stable_sort (fun (a, _) (b, _) -> compare a b) keyed;
        Array.map snd keyed
  in
  List.mapi
    (fun i name -> (name, Array.map (fun r -> opened.(i + 1).(r)) keep))
    names

(** Test-only: reconstruct all columns and the validity bits without the
    masking/shuffling/opening protocol (no party could do this). *)
let peek (t : t) : (string * int array) list * int array =
  ( List.map (fun (n, c) -> (n, Column.reconstruct c)) t.cols,
    Share.reconstruct t.valid )

(** Test-only: the multiset of valid rows, each row restricted to [names],
    sorted — a canonical form for comparing against a reference engine. *)
let valid_rows_sorted (t : t) (names : string list) : int list list =
  let cols, v = peek t in
  let rows = ref [] in
  for i = 0 to t.nrows - 1 do
    if v.(i) = 1 then
      rows := List.map (fun n -> (List.assoc n cols).(i)) names :: !rows
  done;
  List.sort compare !rows
