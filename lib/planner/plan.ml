(** Logical query plans — the automatic query planner the paper names as
    future work ("future work includes integrating ORQ with an automatic
    query planner", §7), with candidate keys as public schema metadata
    (§2.1: "analysts can leverage these constraints, if they exist, to
    improve execution performance"). *)

open Orq_core

type node =
  | Scan of scan
  | Filter of Expr.pred * node
  | Project of (string * string) list * node
      (** keep the listed (source, output name) columns *)
  | Map of string * Expr.num * node
  | Join of join
  | Aggregate of agg_node
  | Distinct of string list * node
  | With_scalar of scalar
  | Order_limit of (string * Tablesort.order) list * int option * node

and scan = {
  s_table : Table.t;
  s_keys : string list list;  (** candidate keys declared by the schema *)
}

and join_kind = Inner | Semi | Anti | Left_outer

and join = {
  j_kind : join_kind;
  j_left : node;
  j_right : node;
  j_on : string list;
}

and agg_node = {
  a_keys : string list;  (** [[]]: one whole-table row *)
  a_aggs : Dataflow.agg list;
  a_input : node;
}

and scalar = { w_input : node; w_scalar : node; w_src : string; w_dst : string }

(* -------- constructors -------- *)

let scan ?(keys = []) t = Scan { s_table = t; s_keys = keys }
let filter p n = Filter (p, n)
let select pairs n = Project (pairs, n)
let map dst e n = Map (dst, e, n)
let join_kind j_kind l r ~on = Join { j_kind; j_left = l; j_right = r; j_on = on }
let join = join_kind Inner
let semi_join = join_kind Semi
let anti_join = join_kind Anti
let outer_join = join_kind Left_outer
let aggregate ~keys ~aggs n = Aggregate { a_keys = keys; a_aggs = aggs; a_input = n }
let global ~aggs n = aggregate ~keys:[] ~aggs n
let distinct keys n = Distinct (keys, n)

let with_scalar n ~scalar ~src ~dst =
  With_scalar { w_input = n; w_scalar = scalar; w_src = src; w_dst = dst }

let order_by specs n = Order_limit (specs, None, n)
let top specs k n = Order_limit (specs, Some k, n)

(* -------- structure -------- *)

let children = function
  | Scan _ -> []
  | Filter (_, m) | Project (_, m) | Map (_, _, m) | Distinct (_, m) | Order_limit (_, _, m) -> [ m ]
  | Join j -> [ j.j_left; j.j_right ]
  | Aggregate a -> [ a.a_input ]
  | With_scalar w -> [ w.w_input; w.w_scalar ]

let descend f = function
  | Scan _ as n -> n
  | Filter (p, m) -> Filter (p, f m)
  | Project (c, m) -> Project (c, f m)
  | Map (d, e, m) -> Map (d, e, f m)
  | Distinct (k, m) -> Distinct (k, f m)
  | Order_limit (s, k, m) -> Order_limit (s, k, f m)
  | Join j -> Join { j with j_left = f j.j_left; j_right = f j.j_right }
  | Aggregate a -> Aggregate { a with a_input = f a.a_input }
  | With_scalar w -> With_scalar { w with w_input = f w.w_input; w_scalar = f w.w_scalar }

(* -------- schema and candidate-key inference -------- *)

type info = {
  i_cols : string list;  (** output columns *)
  i_keys : string list list;  (** candidate keys (column sets) *)
  i_rows : int;  (** physical row bound *)
}

let subset a b = List.for_all (fun x -> List.mem x b) a

(* A renaming projection's keys: those whose columns all survive, renamed. *)
let rename_keys pairs keys =
  List.filter_map
    (fun k ->
      let k' = List.filter_map (fun c -> List.assoc_opt c pairs) k in
      if List.length k' = List.length k then Some k' else None)
    keys

let rec infer (n : node) : info =
  match n with
  | Scan s ->
      {
        i_cols = Table.col_names s.s_table;
        i_keys = s.s_keys;
        i_rows = Table.nrows s.s_table;
      }
  | Filter (_, m) | Order_limit (_, None, m) -> infer m
  | Project (pairs, m) ->
      let i = infer m in
      { i with i_cols = List.map snd pairs; i_keys = rename_keys pairs i.i_keys }
  | Map (dst, _, m) ->
      let i = infer m in
      { i with i_cols = List.filter (( <> ) dst) i.i_cols @ [ dst ] }
  | Join { j_kind = Semi | Anti; j_left; _ } -> infer j_left
  | Join { j_left; j_right; j_on; _ } ->
      let il = infer j_left and ir = infer j_right in
      let l_unique = List.exists (fun k -> subset k j_on) il.i_keys in
      let r_unique = List.exists (fun k -> subset k j_on) ir.i_keys in
      let cols =
        j_on
        @ List.filter (fun c -> not (List.mem c j_on)) il.i_cols
        @ List.filter (fun c -> not (List.mem c j_on)) ir.i_cols
      in
      (* keys of the many side survive a one-to-many join *)
      let keys =
        (if l_unique then ir.i_keys else [])
        @ (if r_unique then il.i_keys else [])
        @ if l_unique && r_unique then [ j_on ] else []
      in
      let rows =
        if l_unique || r_unique then max il.i_rows ir.i_rows + min il.i_rows ir.i_rows
        else il.i_rows * ir.i_rows
      in
      { i_cols = cols; i_keys = keys; i_rows = rows }
  | Aggregate a ->
      let i = infer a.a_input in
      {
        i_cols = a.a_keys @ List.map (fun (g : Dataflow.agg) -> g.Dataflow.dst) a.a_aggs;
        i_keys = [ a.a_keys ];
        i_rows = (if a.a_keys = [] then 1 else i.i_rows);
      }
  | Distinct (keys, m) ->
      let i = infer m in
      { i with i_keys = keys :: i.i_keys }
  | With_scalar w ->
      let i = infer w.w_input in
      { i with i_cols = List.filter (( <> ) w.w_dst) i.i_cols @ [ w.w_dst ] }
  | Order_limit (_, Some k, m) ->
      let i = infer m in
      { i with i_rows = min k i.i_rows }

(** Does the subtree expose a candidate key within [cols]? *)
let unique_on (n : node) (cols : string list) =
  List.exists (fun k -> subset k cols) (infer n).i_keys

(* -------- public bounds -------- *)

type shape = {
  sh_rows : int;  (** physical row bound *)
  sh_doms : (string * Dom.t) list;  (** each output column's domain *)
}

let table_shape (t : Table.t) =
  {
    sh_rows = Table.nrows t;
    sh_doms = List.map (fun (n, c) -> (n, c.Column.dom)) t.Table.cols;
  }

(* The bound pass (see the interface): the operators' own domain rules
   over the scans' shapes, without row-wise facts. *)
let rec bounds ?(scan = table_shape) (n : node) : shape =
  let col sh c =
    match List.assoc_opt c sh.sh_doms with
    | Some d -> d
    | None -> invalid_arg ("plan has no column " ^ c)
  in
  let no_facts _ _ = false in
  match n with
  | Scan s -> scan s.s_table
  | Filter (p, m) ->
      let sh = bounds ~scan m in
      Expr.bound_pred ~col:(col sh) ~le:no_facts p;
      sh
  | Project (pairs, m) ->
      let sh = bounds ~scan m in
      { sh with sh_doms = List.map (fun (c, d) -> (d, col sh c)) pairs }
  | Map (dst, e, m) ->
      let sh = bounds ~scan m in
      let d = Expr.bound ~col:(col sh) ~le:no_facts e in
      { sh with sh_doms = List.remove_assoc dst sh.sh_doms @ [ (dst, d) ] }
  | Join { j_kind = Semi | Anti; j_left; _ } -> bounds ~scan j_left
  | Join { j_left; j_right; j_on; _ } ->
      let l = bounds ~scan j_left and r = bounds ~scan j_right in
      let side sh = List.filter (fun (c, _) -> not (List.mem c j_on)) sh.sh_doms in
      (* [infer]'s rule over the shapes' row bounds *)
      let one_to_many = unique_on j_left j_on || unique_on j_right j_on in
      {
        sh_rows =
          (if one_to_many then l.sh_rows + r.sh_rows
           else if l.sh_rows > 0 && r.sh_rows > max_int / l.sh_rows then max_int
           else l.sh_rows * r.sh_rows);
        sh_doms =
          List.map (fun k -> (k, Dom.hull (col l k) (col r k))) j_on @ side l @ side r;
      }
  | Aggregate a ->
      let sh = bounds ~scan a.a_input in
      let rows = sh.sh_rows in
      let agg (g : Dataflow.agg) =
        let src = match g.Dataflow.fn with Dataflow.Count -> Dom.zero | _ -> col sh g.Dataflow.src in
        (g.Dataflow.dst, Dataflow.agg_dom ~rows src g)
      in
      {
        sh_rows = (if a.a_keys = [] then 1 else rows);
        sh_doms = List.map (fun k -> (k, col sh k)) a.a_keys @ List.map agg a.a_aggs;
      }
  | Distinct (_, m) -> bounds ~scan m
  | With_scalar w ->
      let sh = bounds ~scan w.w_input in
      let d = col (bounds ~scan w.w_scalar) w.w_src in
      { sh with sh_doms = List.remove_assoc w.w_dst sh.sh_doms @ [ (w.w_dst, d) ] }
  | Order_limit (_, k, m) ->
      let sh = bounds ~scan m in
      { sh with sh_rows = (match k with Some k -> min k sh.sh_rows | None -> sh.sh_rows) }

(* -------- predicate column analysis -------- *)

let rec num_cols (e : Expr.num) =
  match e with
  | Expr.Col c -> [ c ]
  | Expr.Const _ -> []
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b) ->
      num_cols a @ num_cols b
  | Expr.Div_pub (a, _) -> num_cols a
  | Expr.If (p, a, b) -> pred_cols p @ num_cols a @ num_cols b

and pred_cols (p : Expr.pred) =
  match p with
  | Expr.Cmp (_, a, b) -> num_cols a @ num_cols b
  | Expr.And (a, b) | Expr.Or (a, b) -> pred_cols a @ pred_cols b
  | Expr.Not a -> pred_cols a
  | Expr.True -> []

(** Split a conjunctive predicate into its conjuncts. *)
let rec conjuncts (p : Expr.pred) =
  match p with
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | _ -> [ p ]

let conjoin = function
  | [] -> Expr.True
  | p :: rest -> List.fold_left (fun acc q -> Expr.And (acc, q)) p rest

(* -------- EXPLAIN -------- *)

let kind_label = function
  | Inner -> "Join"
  | Semi -> "SemiJoin"
  | Anti -> "AntiJoin"
  | Left_outer -> "OuterJoin"

(* A node: its label and arguments, then its inputs, each on a line of
   its own indented under the node unless the whole node fits on one. *)
let rec pp ppf (n : node) =
  let node head inputs =
    Fmt.pf ppf "@[<hv 2>%s(%a)@]" head
      (Fmt.list ~sep:(fun ppf () -> Fmt.pf ppf ",@ ") pp)
      inputs
  in
  let with_args head args inputs =
    Fmt.pf ppf "@[<hv 2>%s(%s,@ %a)@]" head args
      (Fmt.list ~sep:(fun ppf () -> Fmt.pf ppf ",@ ") pp)
      inputs
  in
  match n with
  | Scan s ->
      Fmt.pf ppf "Scan(%s, %d rows%s)" s.s_table.Table.name
        (Table.nrows s.s_table)
        (match s.s_keys with
        | [] -> ""
        | ks ->
            ", keys: "
            ^ String.concat "; " (List.map (String.concat ",") ks))
  | Filter (_, m) -> node "Filter" [ m ]
  | Project (pairs, m) ->
      let col (c, d) = if c = d then d else c ^ " AS " ^ d in
      with_args "Project" (String.concat "," (List.map col pairs)) [ m ]
  | Map (dst, _, m) -> with_args "Map" dst [ m ]
  | Join j ->
      with_args (kind_label j.j_kind) ("on " ^ String.concat "," j.j_on)
        [ j.j_left; j.j_right ]
  | Aggregate a ->
      with_args "Aggregate"
        ("by " ^ match a.a_keys with [] -> "()" | ks -> String.concat "," ks)
        [ a.a_input ]
  | Distinct (keys, m) -> with_args "Distinct" (String.concat "," keys) [ m ]
  | With_scalar w ->
      with_args "WithScalar" (w.w_src ^ " AS " ^ w.w_dst) [ w.w_input; w.w_scalar ]
  | Order_limit (specs, k, m) ->
      with_args "OrderLimit"
        (String.concat "," (List.map fst specs)
        ^ match k with Some k -> Printf.sprintf " limit %d" k | None -> "")
        [ m ]

let explain n = Fmt.str "%a" pp n
