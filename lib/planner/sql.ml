(** A small SQL front-end over the logical planner.

    The paper deliberately exposes a dataflow API instead of SQL (§2.2,
    citing the CIDR'24 critique), but names automatic planning as future
    work; this module closes the loop for the SQL subset ORQ's operator
    class supports:

    {v
    SELECT item [, item ...]
    FROM table [JOIN table USING (col [, col])
               | JOIN table ON col = col [AND col = col ...]] ...
    [WHERE predicate]
    [GROUP BY col [, col ...]]
    [ORDER BY col [ASC|DESC] [, ...]]
    [LIMIT k]
    v}

    where [item] is a column, [expr AS name], or
    [SUM|COUNT|MIN|MAX|AVG(col) AS name], predicates are boolean
    combinations of comparisons over integer expressions, and join
    conditions are column equalities: [USING] follows the engine's
    natural-join convention, while [ON a = b] with distinct names
    renames the right table's column into the left's, so
    differently-prefixed schemas (TPC-H) join directly. Parsed queries become {!Plan} trees; the
    optimizer and compiler then apply the paper's rewrites, including the
    automatic §3.6 pre-aggregation for many-to-many joins. *)

open Orq_core

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Int of int
  | Kw of string  (** uppercased keyword *)
  | Sym of string
  | Eof

let keywords =
  [
    "SELECT"; "FROM"; "JOIN"; "USING"; "ON"; "WHERE"; "GROUP"; "BY";
    "ORDER"; "LIMIT"; "AND"; "OR"; "NOT"; "AS"; "ASC"; "DESC"; "SUM";
    "COUNT"; "MIN"; "MAX"; "AVG";
  ]

let lex (s : string) : token list =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_digit c = c >= '0' && c <= '9' in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if is_alpha c then begin
      let j = ref !i in
      while !j < n && (is_alpha s.[!j] || is_digit s.[!j]) do
        incr j
      done;
      let word = String.sub s !i (!j - !i) in
      let up = String.uppercase_ascii word in
      if List.mem up keywords then push (Kw up) else push (Ident word);
      i := !j
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit s.[!j] do
        incr j
      done;
      push (Int (int_of_string (String.sub s !i (!j - !i))));
      i := !j
    end
    else begin
      let two = if !i + 1 < n then String.sub s !i 2 else "" in
      match two with
      | "<=" | ">=" | "<>" | "!=" ->
          push (Sym (if two = "!=" then "<>" else two));
          i := !i + 2
      | _ -> (
          match c with
          | '=' | '<' | '>' | '+' | '-' | '*' | '/' | '(' | ')' | ',' ->
              push (Sym (String.make 1 c));
              incr i
          | _ -> fail "unexpected character %c" c)
    end
  done;
  List.rev (Eof :: !toks)

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent over a token-list state)                  *)
(* ------------------------------------------------------------------ *)

type state = { mutable toks : token list }

let peek st = match st.toks with t :: _ -> t | [] -> Eof

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect_kw st kw =
  match peek st with
  | Kw k when k = kw -> advance st
  | t ->
      fail "expected %s, found %s" kw
        (match t with
        | Ident s -> s
        | Int i -> string_of_int i
        | Kw k -> k
        | Sym s -> s
        | Eof -> "<eof>")

let expect_sym st sym =
  match peek st with
  | Sym s when s = sym -> advance st
  | _ -> fail "expected '%s'" sym

let accept_kw st kw =
  match peek st with
  | Kw k when k = kw ->
      advance st;
      true
  | _ -> false

let accept_sym st sym =
  match peek st with
  | Sym s when s = sym ->
      advance st;
      true
  | _ -> false

let ident st =
  match peek st with
  | Ident s ->
      advance st;
      s
  | _ -> fail "expected identifier"

let integer st =
  match peek st with
  | Int v ->
      advance st;
      v
  | Sym "-" ->
      advance st;
      (match peek st with
      | Int v ->
          advance st;
          -v
      | _ -> fail "expected integer")
  | _ -> fail "expected integer"

(* expressions: term (('+'|'-') term)*; term: factor (('*'|'/') factor)*;
   both levels left-associative, so a * b / c = (a * b) / c *)
let rec parse_expr st : Expr.num =
  let lhs = ref (parse_term st) in
  let looping = ref true in
  while !looping do
    if accept_sym st "+" then lhs := Expr.Add (!lhs, parse_term st)
    else if accept_sym st "-" then lhs := Expr.Sub (!lhs, parse_term st)
    else looping := false
  done;
  !lhs

and parse_term st : Expr.num =
  let lhs = ref (parse_factor st) in
  let looping = ref true in
  while !looping do
    if accept_sym st "*" then lhs := Expr.Mul (!lhs, parse_factor st)
    else if accept_sym st "/" then
      (* public divisors compile to the cheaper public-division circuit *)
      lhs :=
        (match parse_factor st with
        | Expr.Const d -> Expr.Div_pub (!lhs, d)
        | e -> Expr.Div (!lhs, e))
    else looping := false
  done;
  !lhs

and parse_factor st : Expr.num =
  match peek st with
  | Int v ->
      advance st;
      Expr.Const v
  | Sym "-" ->
      advance st;
      Expr.Sub (Expr.Const 0, parse_factor st)
  | Ident c ->
      advance st;
      Expr.Col c
  | Sym "(" ->
      advance st;
      let e = parse_expr st in
      expect_sym st ")";
      e
  | _ -> fail "expected expression"

(* predicates: or_pred; and_pred; atom *)
let rec parse_pred st : Expr.pred =
  let lhs = parse_and st in
  if accept_kw st "OR" then Expr.Or (lhs, parse_pred st) else lhs

and parse_and st : Expr.pred =
  let lhs = parse_atom st in
  if accept_kw st "AND" then Expr.And (lhs, parse_and st) else lhs

and parse_atom st : Expr.pred =
  if accept_kw st "NOT" then Expr.Not (parse_atom st)
  else if
    (* a parenthesis may open a nested predicate or a numeric expr *)
    peek st = Sym "("
    &&
    (* try as predicate; on failure rewind *)
    let saved = st.toks in
    advance st;
    try
      let _ = parse_pred st in
      st.toks <- saved;
      true
    with Parse_error _ ->
      st.toks <- saved;
      false
  then begin
    expect_sym st "(";
    let p = parse_pred st in
    expect_sym st ")";
    p
  end
  else begin
    let lhs = parse_expr st in
    let op =
      if accept_sym st "=" then `Eq
      else if accept_sym st "<>" then `Neq
      else if accept_sym st "<=" then `Le
      else if accept_sym st ">=" then `Ge
      else if accept_sym st "<" then `Lt
      else if accept_sym st ">" then `Gt
      else fail "expected comparison operator"
    in
    Expr.Cmp (op, lhs, parse_expr st)
  end

(* select items *)
type item =
  | It_col of string
  | It_agg of Dataflow.aggfn * string * string  (** fn, src, dst *)
  | It_expr of Expr.num * string  (** expr AS name *)

let parse_item st : item =
  let aggfn =
    match peek st with
    | Kw "SUM" -> Some Dataflow.Sum
    | Kw "COUNT" -> Some Dataflow.Count
    | Kw "MIN" -> Some Dataflow.Min
    | Kw "MAX" -> Some Dataflow.Max
    | Kw "AVG" -> Some Dataflow.Avg
    | _ -> None
  in
  match aggfn with
  | Some fn ->
      advance st;
      expect_sym st "(";
      let src = match peek st with Sym "*" -> advance st; "*" | _ -> ident st in
      expect_sym st ")";
      expect_kw st "AS";
      let dst = ident st in
      It_agg (fn, src, dst)
  | None -> (
      let e = parse_expr st in
      match e with
      | Expr.Col c when peek st <> Kw "AS" -> It_col c
      | _ ->
          expect_kw st "AS";
          It_expr (e, ident st))

(* ------------------------------------------------------------------ *)
(* Query assembly                                                      *)
(* ------------------------------------------------------------------ *)

type catalog = string -> Table.t * string list list
(** Resolve a table name to its shared table and declared candidate keys. *)

let parse_query (cat : catalog) (sql : string) : Plan.node * string list =
  let st = { toks = lex sql } in
  expect_kw st "SELECT";
  let items = ref [ parse_item st ] in
  while accept_sym st "," do
    items := parse_item st :: !items
  done;
  let items = List.rev !items in
  expect_kw st "FROM";
  (* Catalogs signal unknown names with [Not_found]; convert here so a
     bad table name surfaces as a clean [Parse_error] (the query service
     turns it into an error frame) instead of a raw [Not_found]. *)
  let scan_of name =
    match cat name with
    | t, keys -> Plan.scan ~keys t
    | exception Not_found -> fail "unknown table: %s" name
  in
  let plan = ref (scan_of (ident st)) in
  while accept_kw st "JOIN" do
    let rname = ident st in
    let rtbl, rkeys =
      match cat rname with
      | t, keys -> (ref t, ref keys)
      | exception Not_found -> fail "unknown table: %s" rname
    in
    let cols = ref [] in
    if accept_kw st "USING" then begin
      expect_sym st "(";
      cols := [ ident st ];
      while accept_sym st "," do
        cols := ident st :: !cols
      done;
      expect_sym st ")"
    end
    else begin
      expect_kw st "ON";
      let eq () =
        let a = ident st in
        expect_sym st "=";
        let b = ident st in
        (a, b)
      in
      let pairs = ref [ eq () ] in
      while accept_kw st "AND" do
        pairs := eq () :: !pairs
      done;
      (* [ON a = b] with distinct names renames the right side's column
         into the left's (either written order), so differently-prefixed
         schemas like TPC-H join without a rename view; the engine's
         natural-join convention is restored underneath. *)
      List.iter
        (fun (a, b) ->
          if a = b then cols := a :: !cols
          else begin
            let lcols = (Plan.infer !plan).Plan.i_cols in
            let rcols = Table.col_names !rtbl in
            let lname, rcol =
              if List.mem a lcols && List.mem b rcols then (a, b)
              else if List.mem b lcols && List.mem a rcols then (b, a)
              else
                fail
                  "ON %s = %s: one side must name a column of the tables \
                   joined so far, the other a column of %s"
                  a b rname
            in
            if List.mem lname (Table.col_names !rtbl) then
              fail
                "ON %s = %s: %s already has a column named %s — the rename \
                 would be ambiguous (use USING (%s))"
                a b rname lname lname;
            rtbl := Table.rename_col !rtbl ~from:rcol ~into:lname;
            rkeys :=
              List.map
                (List.map (fun k -> if k = rcol then lname else k))
                !rkeys;
            cols := lname :: !cols
          end)
        !pairs
    end;
    plan := Plan.join !plan (Plan.scan ~keys:!rkeys !rtbl) ~on:(List.rev !cols)
  done;
  if accept_kw st "WHERE" then plan := Plan.filter (parse_pred st) !plan;
  (* derived columns materialize before grouping *)
  List.iter
    (function
      | It_expr (e, name) -> plan := Plan.map name e !plan
      | It_col _ | It_agg _ -> ())
    items;
  let group_keys =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      let ks = ref [ ident st ] in
      while accept_sym st "," do
        ks := ident st :: !ks
      done;
      Some (List.rev !ks)
    end
    else None
  in
  let aggs =
    List.filter_map
      (function
        | It_agg (fn, src, dst) ->
            let src = if src = "*" then "" else src in
            Some { Dataflow.src; dst; fn }
        | It_col _ | It_expr _ -> None)
      items
  in
  (match (group_keys, aggs) with
  | Some keys, _ :: _ ->
      let aggs =
        List.map
          (fun (a : Dataflow.agg) ->
            if a.Dataflow.src = "" then { a with Dataflow.src = List.hd keys }
            else a)
          aggs
      in
      plan := Plan.aggregate ~keys ~aggs !plan
  | Some keys, [] -> plan := Plan.distinct keys !plan
  | None, _ :: _ -> fail "aggregates require GROUP BY (use a constant key)"
  | None, [] -> ());
  if accept_kw st "ORDER" then begin
    expect_kw st "BY";
    let spec () =
      let c = ident st in
      let d =
        if accept_kw st "DESC" then Tablesort.Desc
        else begin
          ignore (accept_kw st "ASC");
          Tablesort.Asc
        end
      in
      (c, d)
    in
    let specs = ref [ spec () ] in
    while accept_sym st "," do
      specs := spec () :: !specs
    done;
    let k = if accept_kw st "LIMIT" then Some (integer st) else None in
    plan :=
      (match k with
      | Some k -> Plan.top (List.rev !specs) k !plan
      | None -> Plan.order_by (List.rev !specs) !plan)
  end
  else if accept_kw st "LIMIT" then
    fail "LIMIT requires ORDER BY (deterministic top-k)";
  (match peek st with
  | Eof -> ()
  | _ -> fail "trailing tokens after query");
  let out_cols =
    List.map
      (function
        | It_col c -> c
        | It_agg (_, _, dst) -> dst
        | It_expr (_, name) -> name)
      items
  in
  (!plan, out_cols)

(** Parse, optimize, bound, compile and execute a SQL query against a
    catalog. Returns the result table (projected to the SELECT list), the
    output column order, and the number of quadratic fallbacks taken. The
    bound pass ({!Plan.bounds}) runs on the optimized plan before any
    share moves. *)
let run (cat : catalog) (sql : string) : Table.t * string list * int =
  let plan, out_cols = parse_query cat sql in
  let plan = Optimize.run plan in
  ignore (Plan.bounds plan);
  let t, fb = Compile.run ~need:out_cols plan in
  (Table.project t (List.filter (fun c -> Table.mem t c) out_cols), out_cols, fb)
