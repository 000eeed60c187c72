(** Plaintext reference relational engine.

    The paper validates every query against SQLite (§5.1); this module
    plays that role offline: a small, obviously correct, in-memory
    relational evaluator over integer columns. Every MPC query in the test
    suite is checked against its plaintext twin, row-multiset for
    row-multiset. *)

type row = int list

type t = { schema : string list; rows : row list }

let create schema rows =
  List.iter
    (fun r ->
      if List.length r <> List.length schema then
        invalid_arg "Ptable.create: ragged row")
    rows;
  { schema; rows }

let of_cols (cols : (string * int array) list) : t =
  let schema = List.map fst cols in
  let n = match cols with (_, v) :: _ -> Array.length v | [] -> 0 in
  let rows =
    List.init n (fun i -> List.map (fun (_, v) -> v.(i)) cols)
  in
  { schema; rows }

let nrows t = List.length t.rows
let schema t = t.schema

let col_idx t name =
  let rec go i = function
    | [] -> invalid_arg ("Ptable: no column " ^ name)
    | c :: _ when c = name -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 t.schema

(** Accessor for a row: [get t name row]. *)
let get t name =
  let i = col_idx t name in
  fun (r : row) -> List.nth r i

let filter t pred = { t with rows = List.filter (pred (get t)) t.rows }

(** Add a derived column computed from each row. *)
let map t ~dst f =
  {
    schema = t.schema @ [ dst ];
    rows = List.map (fun r -> r @ [ f (get t) r ]) t.rows;
  }

let project t names =
  let idxs = List.map (col_idx t) names in
  { schema = names; rows = List.map (fun r -> List.map (List.nth r) idxs) t.rows }

let rename_col t ~from ~into =
  { t with schema = List.map (fun n -> if n = from then into else n) t.schema }

let distinct t names =
  let key = project t names in
  let seen = Hashtbl.create 16 in
  let rows =
    List.filteri
      (fun i r ->
        let k = List.nth key.rows i in
        ignore r;
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      t.rows
  in
  { t with rows }

(** Sort by named columns; [dirs] gives +1 (asc) or -1 (desc) per key. *)
let sort t (specs : (string * int) list) =
  let keyf r = List.map (fun (n, d) -> d * get t n r) specs in
  { t with rows = List.stable_sort (fun a b -> compare (keyf a) (keyf b)) t.rows }

let limit t k = { t with rows = List.filteri (fun i _ -> i < k) t.rows }

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

let key_of t on r = List.map (fun k -> get t k r) on

(** Natural inner join on the named key columns; non-key column names must
    be disjoint (as in the MPC engine). *)
let inner_join (l : t) (r : t) ~on : t =
  let l_rest = List.filter (fun n -> not (List.mem n on)) l.schema in
  let r_rest = List.filter (fun n -> not (List.mem n on)) r.schema in
  List.iter
    (fun n -> if List.mem n r_rest then invalid_arg ("join collision: " ^ n))
    l_rest;
  let lkey = key_of l on and rkey = key_of r on in
  let lproj = project l l_rest and rproj = project r r_rest in
  let rows =
    List.concat_map
      (fun (lr, lrest) ->
        List.filter_map
          (fun (rr, rrest) ->
            if lkey lr = rkey rr then Some (lkey lr @ lrest @ rrest) else None)
          (List.combine r.rows rproj.rows))
      (List.combine l.rows lproj.rows)
  in
  { schema = on @ l_rest @ r_rest; rows }

let semi_join (l : t) (r : t) ~on : t =
  let rkeys = Hashtbl.create 16 in
  List.iter (fun rr -> Hashtbl.replace rkeys (key_of r on rr) ()) r.rows;
  { l with rows = List.filter (fun lr -> Hashtbl.mem rkeys (key_of l on lr)) l.rows }

let anti_join (l : t) (r : t) ~on : t =
  let rkeys = Hashtbl.create 16 in
  List.iter (fun rr -> Hashtbl.replace rkeys (key_of r on rr) ()) r.rows;
  {
    l with
    rows = List.filter (fun lr -> not (Hashtbl.mem rkeys (key_of l on lr))) l.rows;
  }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type aggfn = Sum | Count | Min | Max | Avg

type agg = { src : string; dst : string; fn : aggfn }

let apply_agg fn (vals : int list) =
  match fn with
  | Sum -> List.fold_left ( + ) 0 vals
  | Count -> List.length vals
  | Min -> List.fold_left min max_int vals
  | Max -> List.fold_left max min_int vals
  | Avg -> List.fold_left ( + ) 0 vals / List.length vals

(** GROUP BY with aggregate functions; output schema is keys @ agg dsts. *)
let group_by (t : t) ~(keys : string list) ~(aggs : agg list) : t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      let k = List.map (fun n -> get t n r) keys in
      if not (Hashtbl.mem tbl k) then begin
        order := k :: !order;
        Hashtbl.add tbl k []
      end;
      Hashtbl.replace tbl k (r :: Hashtbl.find tbl k))
    t.rows;
  let rows =
    List.rev_map
      (fun k ->
        let group = List.rev (Hashtbl.find tbl k) in
        k
        @ List.map
            (fun a ->
              let vals =
                match a.fn with
                | Count -> List.map (fun _ -> 1) group
                | _ -> List.map (fun r -> get t a.src r) group
              in
              apply_agg a.fn vals)
            aggs)
      !order
  in
  { schema = keys @ List.map (fun a -> a.dst) aggs; rows }

(** Canonical form for comparisons: multiset of rows over [names], sorted. *)
let rows_sorted (t : t) (names : string list) : int list list =
  List.sort compare (project t names).rows

let concat (a : t) (b : t) : t =
  if a.schema <> b.schema then invalid_arg "Ptable.concat: schema mismatch";
  { a with rows = a.rows @ b.rows }
