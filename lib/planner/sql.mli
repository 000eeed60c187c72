(** A small SQL front-end over the logical planner (see the .ml header for
    the supported grammar). Parsed queries become {!Plan} trees; the
    optimizer applies the paper's rewrites — including automatic §3.6
    pre-aggregation — before compilation. *)

exception Parse_error of string

type token =
  | Ident of string
  | Int of int
  | Kw of string
  | Sym of string
  | Eof

val lex : string -> token list

type catalog = string -> Orq_core.Table.t * string list list
(** Resolve a table name to its shared table and declared candidate keys;
    raise [Not_found] for unknown names. *)

val parse_query : catalog -> string -> Plan.node * string list
(** Parse into a logical plan plus the SELECT-list output columns.
    @raise Parse_error on malformed input. *)

val run : catalog -> string -> Orq_core.Table.t * string list * int
(** Parse, optimize, bound ({!Plan.bounds}), compile and execute; returns
    the projected result, the output column order, and the
    quadratic-fallback count.
    @raise Parse_error on malformed input.
    @raise Orq_core.Dom.Refused before any share moves when an expression
    or aggregate's public bound exceeds the ring. *)
