(** Logical query plans — the automatic query planner the paper names as
    future work ("As presented, ORQ requires data analysts to translate
    queries into our dataflow API; future work includes integrating ORQ
    with an automatic query planner", §7).

    A plan is a relational-algebra tree over secret-shared base tables.
    The planner infers output schemas and candidate keys (public metadata:
    §2.1 — "analysts can leverage these constraints, if they exist, to
    improve execution performance"), {!Optimize} rewrites the tree
    (filter pushdown, join orientation, §3.6 pre-aggregation), and
    {!Compile} lowers it onto the {!Orq_core.Dataflow} operators — falling
    back to the quadratic oblivious join for queries outside ORQ's
    tractable class, exactly as §2.1 prescribes. *)

open Orq_core

type node =
  | Scan of scan
  | Filter of Expr.pred * node
  | Project of string list * node
  | Map of string * Expr.num * node
  | Join of join
  | Aggregate of agg_node
  | Order_limit of (string * Tablesort.order) list * int option * node

and scan = {
  s_table : Table.t;
  s_keys : string list list;  (** candidate keys declared by the schema *)
}

and join = { j_left : node; j_right : node; j_on : string list }

and agg_node = {
  a_keys : string list;
  a_aggs : Dataflow.agg list;
  a_input : node;
}

(* -------- constructors -------- *)

let scan ?(keys = []) t = Scan { s_table = t; s_keys = keys }
let filter p n = Filter (p, n)
let project cols n = Project (cols, n)
let map dst e n = Map (dst, e, n)
let join l r ~on = Join { j_left = l; j_right = r; j_on = on }
let aggregate ~keys ~aggs n = Aggregate { a_keys = keys; a_aggs = aggs; a_input = n }
let order_by specs n = Order_limit (specs, None, n)
let top specs k n = Order_limit (specs, Some k, n)

(* -------- schema and candidate-key inference -------- *)

type info = {
  i_cols : string list;  (** output columns *)
  i_keys : string list list;  (** candidate keys (column sets) *)
  i_rows : int;  (** physical row bound *)
}

let subset a b = List.for_all (fun x -> List.mem x b) a

let rec infer (n : node) : info =
  match n with
  | Scan s ->
      {
        i_cols = Table.col_names s.s_table;
        i_keys = s.s_keys;
        i_rows = Table.nrows s.s_table;
      }
  | Filter (_, m) -> infer m
  | Project (cols, m) ->
      let i = infer m in
      {
        i with
        i_cols = cols;
        i_keys = List.filter (fun k -> subset k cols) i.i_keys;
      }
  | Map (dst, _, m) ->
      let i = infer m in
      { i with i_cols = i.i_cols @ [ dst ] }
  | Join { j_left; j_right; j_on } ->
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
        i_cols = i.i_cols @ List.map (fun (g : Dataflow.agg) -> g.Dataflow.dst) a.a_aggs;
        i_keys = [ a.a_keys ];
        i_rows = i.i_rows;
      }
  | Order_limit (_, k, m) ->
      let i = infer m in
      { i with i_rows = (match k with Some k -> min k i.i_rows | None -> i.i_rows) }

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

(** The bound pass: every output column's public domain, derived from the
    scans' shapes ([scan], by default the shared tables' row counts and
    column domains) alone, with the rules the operators apply at run time
    ({!Expr.bound}, {!Dataflow.agg_dom}) over row bounds at least as large
    as theirs, and without the row-wise facts. It refuses whatever the
    run would, before any share moves.
    @raise Dom.Refused naming the first expression or aggregate whose
    bound exceeds the ring. *)
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
  | Project (cols, m) ->
      let sh = bounds ~scan m in
      { sh with sh_doms = List.map (fun c -> (c, col sh c)) cols }
  | Map (dst, e, m) ->
      let sh = bounds ~scan m in
      let d = Expr.bound ~col:(col sh) ~le:no_facts e in
      { sh with sh_doms = List.remove_assoc dst sh.sh_doms @ [ (dst, d) ] }
  | Join { j_left; j_right; j_on } ->
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
        sh_rows = rows;
        sh_doms = List.map (fun k -> (k, col sh k)) a.a_keys @ List.map agg a.a_aggs;
      }
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

let rec pp ppf (n : node) =
  match n with
  | Scan s ->
      Fmt.pf ppf "Scan(%s, %d rows%s)" s.s_table.Table.name
        (Table.nrows s.s_table)
        (match s.s_keys with
        | [] -> ""
        | ks ->
            ", keys: "
            ^ String.concat "; " (List.map (String.concat ",") ks))
  | Filter (_, m) -> Fmt.pf ppf "Filter(@[%a@])" pp m
  | Project (cols, m) ->
      Fmt.pf ppf "Project(%s,@ @[%a@])" (String.concat "," cols) pp m
  | Map (dst, _, m) -> Fmt.pf ppf "Map(%s,@ @[%a@])" dst pp m
  | Join j ->
      Fmt.pf ppf "Join(on %s,@ @[%a@],@ @[%a@])"
        (String.concat "," j.j_on)
        pp j.j_left pp j.j_right
  | Aggregate a ->
      Fmt.pf ppf "Aggregate(by %s,@ @[%a@])"
        (String.concat "," a.a_keys)
        pp a.a_input
  | Order_limit (specs, k, m) ->
      Fmt.pf ppf "OrderLimit(%s%s,@ @[%a@])"
        (String.concat "," (List.map fst specs))
        (match k with Some k -> Printf.sprintf " limit %d" k | None -> "")
        pp m

let explain n = Fmt.str "%a" pp n
