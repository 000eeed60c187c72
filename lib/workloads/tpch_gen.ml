(** Deterministic TPC-H-shaped data generator.

    The paper's evaluation standardizes query size on the TPC-H scale
    factor (§5.1): at SF1 the smallest table (supplier) has 10k rows and
    the largest (lineitem) about 6M. This generator reproduces the schema,
    table-size ratios, key relationships (PK-FK with realistic fan-outs)
    and value distributions at laptop micro scale factors, with all values
    integer-encoded exactly as the paper does for its own runs (prices in
    cents, dates as day offsets from 1992-01-01, categorical strings as
    small enums — the paper likewise replaces floats with integers and
    LIKE-patterns with (in)equalities).

    Generation is seeded and deterministic: the MPC engine and the
    plaintext reference engine consume the *same* plaintext tables, so
    query results can be compared row for row. *)

open Orq_util

(* ------------------------------------------------------------------ *)
(* Schema constants                                                    *)
(* ------------------------------------------------------------------ *)

(* column widths (bits) for MPC sharing *)
let w_key = 24
let w_small = 8
let w_date = 12 (* day offsets 0 .. ~2557 *)
let w_price = 28
let w_qty = 8

(* date helpers: days since 1992-01-01, 7 years of data *)
let date_range = 2557
let day_of ~year ~month ~day =
  (* close-enough civil date -> offset; only used to define the paper's
     query parameters consistently with generated data *)
  ((year - 1992) * 365) + ((month - 1) * 30) + (day - 1)

type plain = {
  region : Orq_plaintext.Ptable.t;
  nation : Orq_plaintext.Ptable.t;
  supplier : Orq_plaintext.Ptable.t;
  customer : Orq_plaintext.Ptable.t;
  part : Orq_plaintext.Ptable.t;
  partsupp : Orq_plaintext.Ptable.t;
  orders : Orq_plaintext.Ptable.t;
  lineitem : Orq_plaintext.Ptable.t;
}

type mpc = {
  m_region : Orq_core.Table.t;
  m_nation : Orq_core.Table.t;
  m_supplier : Orq_core.Table.t;
  m_customer : Orq_core.Table.t;
  m_part : Orq_core.Table.t;
  m_partsupp : Orq_core.Table.t;
  m_orders : Orq_core.Table.t;
  m_lineitem : Orq_core.Table.t;
}

(* per-table column descriptions: (name, width) *)
let region_cols = [ ("r_regionkey", w_small) ]
let nation_cols = [ ("n_nationkey", w_small); ("n_regionkey", w_small) ]

let supplier_cols =
  [ ("s_suppkey", w_key); ("s_nationkey", w_small); ("s_acctbal", w_price) ]

let customer_cols =
  [
    ("c_custkey", w_key);
    ("c_nationkey", w_small);
    ("c_mktsegment", w_small);
    ("c_acctbal", w_price);
    ("c_phone_cc", w_small);
  ]

let part_cols =
  [
    ("p_partkey", w_key);
    ("p_brand", w_small);
    ("p_type", w_small);
    ("p_size", w_small);
    ("p_container", w_small);
    ("p_retailprice", w_price);
  ]

let partsupp_cols =
  [
    ("ps_partkey", w_key);
    ("ps_suppkey", w_key);
    ("ps_availqty", 14);
    ("ps_supplycost", w_price);
  ]

let orders_cols =
  [
    ("o_orderkey", w_key);
    ("o_custkey", w_key);
    ("o_orderstatus", w_small);
    ("o_totalprice", w_price);
    ("o_orderdate", w_date);
    ("o_orderpriority", w_small);
    ("o_shippriority", w_small);
  ]

let lineitem_cols =
  [
    ("l_orderkey", w_key);
    ("l_partkey", w_key);
    ("l_suppkey", w_key);
    ("l_quantity", w_qty);
    ("l_extendedprice", w_price);
    ("l_discount", w_small);
    ("l_tax", w_small);
    ("l_returnflag", w_small);
    ("l_linestatus", w_small);
    ("l_shipdate", w_date);
    ("l_commitdate", w_date);
    ("l_receiptdate", w_date);
    ("l_shipmode", w_small);
    ("l_shipinstruct", w_small);
  ]

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let rows_at sf base = max 1 (int_of_float (float_of_int base *. sf))

(** Table row counts at a given scale factor (TPC-H ratios). *)
let sizes sf =
  let supplier = rows_at sf 10_000 in
  let customer = rows_at sf 150_000 in
  let part = rows_at sf 200_000 in
  let orders = rows_at sf 1_500_000 in
  (supplier, customer, part, orders)

let generate ?(seed = 2024) (sf : float) : plain =
  let prg = Prg.create seed in
  let r n bound = Array.init n (fun _ -> Prg.int_below prg bound) in
  let n_supplier, n_customer, n_part, n_orders = sizes sf in
  let region =
    Orq_plaintext.Ptable.of_cols [ ("r_regionkey", Array.init 5 Fun.id) ]
  in
  let nation =
    Orq_plaintext.Ptable.of_cols
      [
        ("n_nationkey", Array.init 25 Fun.id);
        ("n_regionkey", Array.init 25 (fun i -> i mod 5));
      ]
  in
  let supplier =
    Orq_plaintext.Ptable.of_cols
      [
        ("s_suppkey", Array.init n_supplier (fun i -> i + 1));
        ("s_nationkey", r n_supplier 25);
        ("s_acctbal", r n_supplier 1_000_000);
      ]
  in
  let customer =
    Orq_plaintext.Ptable.of_cols
      [
        ("c_custkey", Array.init n_customer (fun i -> i + 1));
        ("c_nationkey", r n_customer 25);
        ("c_mktsegment", Array.map (fun x -> x + 1) (r n_customer 5));
        ("c_acctbal", r n_customer 1_000_000);
        ("c_phone_cc", Array.map (fun x -> x + 10) (r n_customer 25));
      ]
  in
  let part =
    Orq_plaintext.Ptable.of_cols
      [
        ("p_partkey", Array.init n_part (fun i -> i + 1));
        ("p_brand", Array.map (fun x -> x + 1) (r n_part 25));
        ("p_type", Array.map (fun x -> x + 1) (r n_part 150));
        ("p_size", Array.map (fun x -> x + 1) (r n_part 50));
        ("p_container", Array.map (fun x -> x + 1) (r n_part 40));
        ("p_retailprice", Array.init n_part (fun i -> 90_000 + (i mod 200 * 100)));
      ]
  in
  (* partsupp: up to 4 distinct suppliers per part, deterministic spread;
     (ps_partkey, ps_suppkey) is a primary key as in the TPC-H schema *)
  let per_part = min 4 n_supplier in
  let n_ps = n_part * per_part in
  let ps_partkey = Array.init n_ps (fun i -> (i / per_part) + 1) in
  let ps_suppkey =
    Array.init n_ps (fun i ->
        (((i / per_part) + (i mod per_part)) mod n_supplier) + 1)
  in
  let partsupp =
    Orq_plaintext.Ptable.of_cols
      [
        ("ps_partkey", ps_partkey);
        ("ps_suppkey", ps_suppkey);
        ("ps_availqty", Array.map (fun x -> x + 1) (r n_ps 9999));
        ("ps_supplycost", Array.map (fun x -> x + 100) (r n_ps 99_900));
      ]
  in
  let o_orderdate = r n_orders date_range in
  let orders =
    Orq_plaintext.Ptable.of_cols
      [
        ("o_orderkey", Array.init n_orders (fun i -> i + 1));
        ("o_custkey", Array.map (fun x -> x + 1) (r n_orders n_customer));
        (* 0 = F, 1 = O, 2 = P *)
        ("o_orderstatus", r n_orders 3);
        ("o_totalprice", Array.map (fun x -> x + 10_000) (r n_orders 500_000));
        ("o_orderdate", o_orderdate);
        ("o_orderpriority", Array.map (fun x -> x + 1) (r n_orders 5));
        ("o_shippriority", Array.make n_orders 0);
      ]
  in
  (* lineitem: 1-7 lines per order (avg 4), dates relative to order date *)
  let lines = ref [] in
  for oi = 0 to n_orders - 1 do
    let nl = 1 + Prg.int_below prg 7 in
    for ln = 0 to nl - 1 do
      ignore ln;
      let qty = 1 + Prg.int_below prg 50 in
      let price_per = 900 + Prg.int_below prg 1200 in
      let ship = min (date_range + 120) (o_orderdate.(oi) + 1 + Prg.int_below prg 121) in
      let commit = min (date_range + 120) (o_orderdate.(oi) + 30 + Prg.int_below prg 61) in
      let receipt = ship + 1 + Prg.int_below prg 30 in
      lines :=
        [|
          oi + 1;
          1 + Prg.int_below prg n_part;
          1 + Prg.int_below prg n_supplier;
          qty;
          qty * price_per;
          Prg.int_below prg 11;
          Prg.int_below prg 9;
          Prg.int_below prg 3;
          Prg.int_below prg 2;
          ship;
          commit;
          receipt;
          1 + Prg.int_below prg 7;
          1 + Prg.int_below prg 4;
        |]
        :: !lines
    done
  done;
  let lines = Array.of_list (List.rev !lines) in
  let n_li = Array.length lines in
  let li_col j = Array.init n_li (fun i -> lines.(i).(j)) in
  let lineitem =
    Orq_plaintext.Ptable.of_cols
      (List.mapi (fun j (name, _) -> (name, li_col j)) lineitem_cols)
  in
  { region; nation; supplier; customer; part; partsupp; orders; lineitem }

(* ------------------------------------------------------------------ *)
(* Sharing the database                                                *)
(* ------------------------------------------------------------------ *)

(* Columns are shared in schema order, then the validity column. Under
   streaming each column's share vectors enter the budget-managed store
   chunk by chunk (evictable immediately), so the peak resident share data
   of catalog loading is bounded by the budget, not the table size;
   otherwise each column is one whole untracked vector. Draws are
   element-major either way, identical to sharing the whole column. *)
let share_table (ctx : Orq_proto.Ctx.t) name (cols : (string * int) list)
    (p : Orq_plaintext.Ptable.t) : Orq_core.Table.t =
  let n = Orq_plaintext.Ptable.nrows p in
  let tracked = Orq_util.Chunkvec.streaming_enabled () in
  let rows = Array.of_list p.Orq_plaintext.Ptable.rows in
  let shared_cols =
    List.map
      (fun (cname, w) ->
        let ci = Orq_plaintext.Ptable.col_idx p cname in
        let get pos len =
          Array.init len (fun i -> List.nth rows.(pos + i) ci)
        in
        let ck =
          Orq_proto.Share.share_chunked ctx Orq_proto.Share.Bool ~tracked ~n get
        in
        (cname, Orq_core.Column.of_chunked ~width:w ck))
      cols
  in
  let valid = Orq_proto.Share.share ctx Orq_proto.Share.Bool (Array.make n 1) in
  Orq_core.Table.of_columns ctx name ~valid shared_cols

(** Secret-share a generated database for the computing parties. *)
let share (ctx : Orq_proto.Ctx.t) (db : plain) : mpc =
  {
    m_region = share_table ctx "region" region_cols db.region;
    m_nation = share_table ctx "nation" nation_cols db.nation;
    m_supplier = share_table ctx "supplier" supplier_cols db.supplier;
    m_customer = share_table ctx "customer" customer_cols db.customer;
    m_part = share_table ctx "part" part_cols db.part;
    m_partsupp = share_table ctx "partsupp" partsupp_cols db.partsupp;
    m_orders = share_table ctx "orders" orders_cols db.orders;
    m_lineitem = share_table ctx "lineitem" lineitem_cols db.lineitem;
  }

(** [map_plain f db] replaces every table [t] by [f schema t], [schema]
    being the (column, width) list {!share} shares it under. *)
let map_plain f (db : plain) : plain =
  {
    region = f region_cols db.region;
    nation = f nation_cols db.nation;
    supplier = f supplier_cols db.supplier;
    customer = f customer_cols db.customer;
    part = f part_cols db.part;
    partsupp = f partsupp_cols db.partsupp;
    orders = f orders_cols db.orders;
    lineitem = f lineitem_cols db.lineitem;
  }

(** Total input rows of a database (the paper's query-size metric). *)
let total_rows (db : plain) =
  let n t = Orq_plaintext.Ptable.nrows t in
  n db.region + n db.nation + n db.supplier + n db.customer + n db.part
  + n db.partsupp + n db.orders + n db.lineitem

(* ------------------------------------------------------------------ *)
(* Planner catalog                                                     *)
(* ------------------------------------------------------------------ *)

(** Resolve TPC-H table names for the SQL planner, with each table's
    declared candidate keys (used by the optimizer's key reasoning).
    Raises [Not_found] for unknown names — the planner converts that to a
    [Parse_error]. *)
let catalog (db : mpc) (name : string) :
    Orq_core.Table.t * string list list =
  match name with
  | "region" -> (db.m_region, [ [ "r_regionkey" ] ])
  | "nation" -> (db.m_nation, [ [ "n_nationkey" ] ])
  | "supplier" -> (db.m_supplier, [ [ "s_suppkey" ] ])
  | "customer" -> (db.m_customer, [ [ "c_custkey" ] ])
  | "part" -> (db.m_part, [ [ "p_partkey" ] ])
  | "partsupp" -> (db.m_partsupp, [ [ "ps_partkey"; "ps_suppkey" ] ])
  | "orders" -> (db.m_orders, [ [ "o_orderkey" ] ])
  | "lineitem" -> (db.m_lineitem, [])
  | _ -> raise Not_found
