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

module Dom = Orq_core.Dom

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

(* ------------------------------------------------------------------ *)
(* Schema: every column's public domain                                *)
(* ------------------------------------------------------------------ *)

(* The latest ship, commit and receipt days: 120 days past the last
   order date, receipts up to 30 days after shipping. *)
let last_ship = date_range + 120

(** Each table's (column, domain) schema, in sharing order. The domains
    are the generator's own value ranges; keys are bounded by the public
    cardinality of the table they identify ([o_orderkey] ∈ [1, |orders|]),
    so a key's width grows with the scale factor and reveals nothing
    beyond the table sizes, which are public anyway. *)
let schemas ~supplier ~customer ~part ~orders : (string * Ingress.schema) list =
  let d = Dom.v in
  [
    ("region", [ ("r_regionkey", d 0 4) ]);
    ("nation", [ ("n_nationkey", d 0 24); ("n_regionkey", d 0 4) ]);
    ( "supplier",
      [ ("s_suppkey", d 1 supplier); ("s_nationkey", d 0 24); ("s_acctbal", d 0 999_999) ] );
    ( "customer",
      [
        ("c_custkey", d 1 customer);
        ("c_nationkey", d 0 24);
        ("c_mktsegment", d 1 5);
        ("c_acctbal", d 0 999_999);
        ("c_phone_cc", d 10 34);
      ] );
    ( "part",
      [
        ("p_partkey", d 1 part);
        ("p_brand", d 1 25);
        ("p_type", d 1 150);
        ("p_size", d 1 50);
        ("p_container", d 1 40);
        ("p_retailprice", d 90_000 109_900);
      ] );
    ( "partsupp",
      [
        ("ps_partkey", d 1 part);
        ("ps_suppkey", d 1 supplier);
        ("ps_availqty", d 1 9_999);
        ("ps_supplycost", d 100 99_999);
      ] );
    ( "orders",
      [
        ("o_orderkey", d 1 orders);
        ("o_custkey", d 1 customer);
        ("o_orderstatus", d 0 2);
        ("o_totalprice", d 10_000 509_999);
        ("o_orderdate", d 0 (date_range - 1));
        ("o_orderpriority", d 1 5);
        ("o_shippriority", d 0 0);
      ] );
    ( "lineitem",
      [
        ("l_orderkey", d 1 orders);
        ("l_partkey", d 1 part);
        ("l_suppkey", d 1 supplier);
        ("l_quantity", d 1 50);
        ("l_extendedprice", d 900 (50 * 2_099));
        ("l_discount", d 0 10);
        ("l_tax", d 0 8);
        ("l_returnflag", d 0 2);
        ("l_linestatus", d 0 1);
        ("l_shipdate", d 1 last_ship);
        ("l_commitdate", d 30 last_ship);
        ("l_receiptdate", d 2 (last_ship + 30));
        ("l_shipmode", d 1 7);
        ("l_shipinstruct", d 1 4);
      ] );
  ]

(* The schemas of a generated database, from its public table sizes. *)
let schemas_of (db : plain) =
  let n = Orq_plaintext.Ptable.nrows in
  schemas ~supplier:(n db.supplier) ~customer:(n db.customer) ~part:(n db.part)
    ~orders:(n db.orders)

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
      (List.mapi
         (fun j (name, _) -> (name, li_col j))
         (List.assoc "lineitem"
            (schemas ~supplier:n_supplier ~customer:n_customer ~part:n_part
               ~orders:n_orders)))
  in
  { region; nation; supplier; customer; part; partsupp; orders; lineitem }

(* ------------------------------------------------------------------ *)
(* Sharing the database                                                *)
(* ------------------------------------------------------------------ *)

(** Secret-share a generated database for the computing parties, each
    table under its schema; a value outside its column's domain fails
    with an error naming the table, column, value and domain. *)
let share (ctx : Orq_proto.Ctx.t) (db : plain) : mpc =
  let sch = schemas_of db in
  let share_table name p = Ingress.share_table ctx name (List.assoc name sch) p in
  {
    m_region = share_table "region" db.region;
    m_nation = share_table "nation" db.nation;
    m_supplier = share_table "supplier" db.supplier;
    m_customer = share_table "customer" db.customer;
    m_part = share_table "part" db.part;
    m_partsupp = share_table "partsupp" db.partsupp;
    m_orders = share_table "orders" db.orders;
    m_lineitem = share_table "lineitem" db.lineitem;
  }

(** [map_plain f db] replaces every table [t] by [f schema t], [schema]
    being the (column, domain) list {!share} shares it under. *)
let map_plain f (db : plain) : plain =
  let sch = schemas_of db in
  let f name = f (List.assoc name sch) in
  {
    region = f "region" db.region;
    nation = f "nation" db.nation;
    supplier = f "supplier" db.supplier;
    customer = f "customer" db.customer;
    part = f "part" db.part;
    partsupp = f "partsupp" db.partsupp;
    orders = f "orders" db.orders;
    lineitem = f "lineitem" db.lineitem;
  }

(** Every table's row bound and schema at scale factor [sf], from public
    sizes alone: lineitem is bounded by its 7 lines per order. *)
let shapes sf =
  let supplier, customer, part, orders = sizes sf in
  let rows = function
    | "region" -> 5
    | "nation" -> 25
    | "supplier" -> supplier
    | "customer" -> customer
    | "part" -> part
    | "partsupp" -> part * min 4 supplier
    | "orders" -> orders
    | _ -> 7 * orders
  in
  List.map
    (fun (name, schema) -> (name, (rows name, schema)))
    (schemas ~supplier ~customer ~part ~orders)

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
