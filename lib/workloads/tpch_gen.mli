(** Deterministic TPC-H-shaped data generator (§5.1 "Inputs").

    Reproduces the TPC-H schema, table-size ratios, key relationships and
    value distributions at laptop micro scale factors, with all values
    integer-encoded as the paper does (prices in cents, dates as day
    offsets from 1992-01-01, categorical strings as enums). Generation is
    seeded; the MPC engine and the plaintext reference consume the same
    tables, so results compare row for row. *)

(** {2 Schema constants} *)

val day_of : year:int -> month:int -> day:int -> int
(** Civil date -> day offset, used to define query parameters. *)

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

val sizes : float -> int * int * int * int
(** (supplier, customer, part, orders) row counts at a scale factor. *)

val generate : ?seed:int -> float -> plain
val share : Orq_proto.Ctx.t -> plain -> mpc
(** Secret-share every table under its schema.
    @raise Invalid_argument naming the table, column, value and domain of
    a value outside its column's domain. *)

(** {2 Schema} *)

val shapes : float -> (string * (int * Ingress.schema)) list
(** Every table's row bound and (column, public domain) schema at a scale
    factor, from public sizes alone: the generator's value ranges, every
    key bounded by the cardinality of the table it identifies, lineitem
    bounded by 7 lines per order. Widths follow from the domains. This is
    what the planner's bound pass reads, without generating the data. *)

val map_plain :
  (Ingress.schema -> Orq_plaintext.Ptable.t -> Orq_plaintext.Ptable.t) ->
  plain -> plain
(** [map_plain f db] replaces every table [t] by [f schema t], [schema]
    being the (column, domain) list {!share} shares [t] under. *)

val total_rows : plain -> int
(** Total input rows — the paper's query-size metric. *)

val catalog : mpc -> string -> Orq_core.Table.t * string list list
(** Planner catalog over the shared database: table name -> (shared
    table, candidate keys). Matches {!Orq_planner.Sql.catalog}; raises
    [Not_found] for unknown tables. *)
