(** Oblivious-transcript certifier: machine-check that every query's
    communication transcript is a function of public shape only.

    The check materializes the definition of obliviousness (§2.4, Appendix
    C). For each query and protocol it records two structural transcripts
    ({!Orq_net.Comm.start_recording}):

    - {b measured} — the query over the real benchmark data, validated
      against the plaintext reference engine while recording;
    - {b predicted} — the cost model's whole-plan prediction: the same
      plan evaluated over a {e shape twin} of the database, in which every
      value has been replaced by a deterministic function of its (table,
      column, row index) coordinate. The twin shares nothing with the data
      but its public shape, so this run is exactly the symbolic evaluation
      of the {!Orq_proto.Primcost} cost semantics over (rows, widths,
      protocol).

    If the two transcripts are event-for-event identical, no event of the
    trace — round boundary, payload size, message count, operator label —
    depended on anything secret: a certificate of zero leakage for that
    (query, protocol) pair.

    Shuffle-then-reveal quicksort (triggered by sort keys wider than the
    radixsort threshold) is the engine's one {e distributionally} oblivious
    component: its partition trace is drawn fresh per run from a
    data-independent distribution (Appendix B.1), so it cannot be certified
    by transcript equality. Those queries are certified {e
    modulo-quicksort}: events under a "quicksort" label — the exact site
    quarantined in {!Declass} — are projected out of both transcripts and
    the remainders must still be identical, which certifies everything
    outside the quarantined declassification. *)

open Orq_proto
open Orq_workloads
module Comm = Orq_net.Comm
module Ptable = Orq_plaintext.Ptable
module Dom = Orq_core.Dom

(* ------------------------------------------------------------------ *)
(* Shape twins                                                         *)
(* ------------------------------------------------------------------ *)

(** Replace every value of a plaintext table by a deterministic function of
    its (column, row) coordinate, drawn inside the column's public domain
    in [schema] — same schema, same row count, same domains (they are
    public), nothing else in common with the data. *)
let twin_ptable (schema : Ingress.schema) (p : Ptable.t) : Ptable.t =
  let doms = List.map (fun name -> List.assoc name schema) p.Ptable.schema in
  {
    p with
    Ptable.rows =
      List.mapi
        (fun i _ ->
          List.mapi
            (fun j (d : Dom.t) ->
              let f = ((i * 31) + (j * 17) + 5) land 0xFFFF in
              d.lo + (f mod (d.hi - d.lo + 1)))
            doms)
        p.Ptable.rows;
  }

let twin_tpch = Tpch_gen.map_plain twin_ptable
let twin_other = Other_gen.map_plain twin_ptable

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

type mode =
  | Exact  (** transcripts event-for-event identical *)
  | Modulo_quicksort
      (** identical after projecting out the quarantined quicksort events
          (distributional obliviousness, Appendix B.1) *)

let mode_label = function
  | Exact -> "exact"
  | Modulo_quicksort -> "modulo-quicksort"

type cert = {
  c_query : string;
  c_protocol : string;
  c_mode : mode;
  c_ok : bool;
  c_validated : bool;  (** measured run also matched the plaintext engine *)
  c_events : int;  (** measured transcript length *)
  c_tally : Comm.tally;  (** measured online traffic *)
  c_detail : string;  (** first divergence on failure, "" otherwise *)
}

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let quicksort_event (e : Comm.event) = contains ~sub:"quicksort" e.Comm.ev_label

let project_quicksort evs =
  Array.of_list
    (List.filter (fun e -> not (quicksort_event e)) (Array.to_list evs))

let diff_detail which = function
  | None -> ""
  | Some (i, a, b) ->
      let pp = function
        | None -> "<end of transcript>"
        | Some e -> Fmt.str "%a" Comm.pp_event e
      in
      Fmt.str "%s event %d: measured %s vs predicted %s" which i (pp a) (pp b)

(* Record the transcript of [f] on [ctx]'s online meter. *)
let record ?(capacity = 1 lsl 20) (ctx : Ctx.t) f =
  Comm.start_recording ~capacity ctx.Ctx.comm;
  let finish () =
    let tr = Comm.transcript ctx.Ctx.comm in
    let dropped = Comm.dropped_events ctx.Ctx.comm in
    Comm.stop_recording ctx.Ctx.comm;
    (tr, dropped)
  in
  let r = try f () with e -> ignore (finish ()); raise e in
  let tr, dropped = finish () in
  (r, tr, dropped)

(** Certify one query given the two runs as closures over fresh, same-seed
    contexts: [measured] validates over the real data, [predicted] runs the
    plan over the shape twin. *)
let certify_one ~query ~kind ~(measured : Ctx.t -> bool) ~(predicted : Ctx.t -> unit) : cert =
  let seed = 5 in
  let ctx_m = Ctx.create ~seed kind in
  let validated, tr_m, drop_m = record ctx_m (fun () -> measured ctx_m) in
  let ctx_p = Ctx.create ~seed kind in
  let (), tr_p, drop_p = record ctx_p (fun () -> predicted ctx_p) in
  let base =
    {
      c_query = query;
      c_protocol = Ctx.kind_label kind;
      c_mode = Exact;
      c_ok = false;
      c_validated = validated;
      c_events = Array.length tr_m;
      c_tally = Primcost.tally_of tr_m;
      c_detail = "";
    }
  in
  if drop_m > 0 || drop_p > 0 then
    { base with c_detail = "transcript ring overflow; raise capacity" }
  else
    match Comm.transcript_diff tr_m tr_p with
    | None -> { base with c_ok = true }
    | Some _ as d ->
        let qs_m = Array.exists quicksort_event tr_m in
        let qs_p = Array.exists quicksort_event tr_p in
        if not (qs_m && qs_p) then
          { base with c_detail = diff_detail "full" d }
        else begin
          (* quarantined distributional component present in both runs:
             certify everything outside it *)
          match
            Comm.transcript_diff (project_quicksort tr_m)
              (project_quicksort tr_p)
          with
          | None -> { base with c_mode = Modulo_quicksort; c_ok = true }
          | Some _ as d ->
              {
                base with
                c_mode = Modulo_quicksort;
                c_detail = diff_detail "quicksort-projected" d;
              }
        end

(* ------------------------------------------------------------------ *)
(* The 36-query suite                                                  *)
(* ------------------------------------------------------------------ *)

(* Certify one catalog's registered queries under [kind]: measured over
   [plain], predicted over its shape [twin]. *)
let certify_catalog ~kind ~keep ~share ~plain ~twin (qs : ('db, 'p) Query.t list) =
  List.filter_map
    (fun (q : ('db, 'p) Query.t) ->
      if not (keep q.Query.name) then None
      else
        Some
          (certify_one ~query:q.Query.name ~kind
             ~measured:(fun ctx ->
               let ok, _, _ = Query.validate q plain (share ctx plain) in
               ok)
             ~predicted:(fun ctx -> ignore (q.Query.run (share ctx twin)))))
    qs

(** Certify the full workload (the TPC-H catalog's 22 TPC-H and 5
    SecretFlow queries, then the 9 prior-work queries) under the given
    protocols. [names] restricts the query set (quick mode). *)
let run_suite ?(sf = 0.0002) ?(other_n = 400) ?(kinds = Ctx.all_kinds)
    ?(names : string list option) () : cert list =
  let keep n = match names with None -> true | Some ns -> List.mem n ns in
  let plain = Tpch_gen.generate ~seed:99 sf in
  let oplain = Other_gen.generate ~seed:31 other_n in
  let twin = twin_tpch plain and otwin = twin_other oplain in
  List.concat_map
    (fun kind ->
      certify_catalog ~kind ~keep ~share:Tpch_gen.share ~plain ~twin Tpch.all
      @ certify_catalog ~kind ~keep ~share:Other_gen.share ~plain:oplain
          ~twin:otwin Other_queries.all)
    kinds

let all_ok certs = List.for_all (fun c -> c.c_ok && c.c_validated) certs

let pp_cert ppf c =
  Fmt.pf ppf "%-14s %-7s %-17s %-9s %8d events  %a%s" c.c_query c.c_protocol
    (if c.c_ok then "certified" else "NOT-OBLIVIOUS")
    (mode_label c.c_mode) c.c_events Comm.pp_tally c.c_tally
    (if c.c_detail = "" then "" else "\n    " ^ c.c_detail)

(** A JSON string body: quotes, backslashes and every control byte
    escaped, so any detail text stays one valid JSON string. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** The certificate report uploaded by CI. *)
let report_json ?(sf = 0.0002) ?(other_n = 400) (certs : cert list) : string =
  let rows =
    List.map
      (fun c ->
        Printf.sprintf
          "    {\"query\":\"%s\",\"protocol\":\"%s\",\"mode\":\"%s\",\
           \"certified\":%b,\"validated\":%b,\"events\":%d,\"rounds\":%d,\
           \"bits\":%d,\"messages\":%d,\"detail\":\"%s\"}"
          (json_escape c.c_query) c.c_protocol (mode_label c.c_mode) c.c_ok
          c.c_validated c.c_events c.c_tally.Comm.t_rounds
          c.c_tally.Comm.t_bits c.c_tally.Comm.t_messages
          (json_escape c.c_detail))
      certs
  in
  Printf.sprintf
    "{\n  \"sf\": %g,\n  \"other_n\": %d,\n  \"certified\": %b,\n\
    \  \"certificates\": [\n%s\n  ]\n}\n"
    sf other_n (all_ok certs)
    (String.concat ",\n" rows)

(* A minimal JSON reader, enough for the certificate files. *)
type json =
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let n = String.length s and i = ref 0 in
  let fail () = failwith (Printf.sprintf "malformed JSON at byte %d" !i) in
  let rec ws () =
    if !i < n && String.contains " \t\r\n" s.[!i] then begin
      incr i;
      ws ()
    end
  in
  let eat c =
    ws ();
    if !i < n && s.[!i] = c then incr i else fail ()
  in
  let peek c =
    ws ();
    !i < n && s.[!i] = c
  in
  let lit w v =
    let k = String.length w in
    if !i + k <= n && String.sub s !i k = w then begin
      i := !i + k;
      v
    end
    else fail ()
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail ();
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !i >= n then fail ();
          let e = s.[!i] in
          incr i;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !i + 4 > n then fail ();
              Buffer.add_char b
                (Char.chr (int_of_string ("0x" ^ String.sub s !i 4) land 0xff));
              i := !i + 4
          | e -> Buffer.add_char b e);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !i >= n then fail ();
    match s.[!i] with
    | '{' ->
        incr i;
        Obj (seq '}' (fun () ->
                 let k = str () in
                 eat ':';
                 (k, value ())))
    | '[' ->
        incr i;
        Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> (
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do
          incr i
        done;
        match float_of_string_opt (String.sub s j (!i - j)) with
        | Some f -> Num f
        | None -> fail ())
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    if peek close then begin
      incr i;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        if peek ',' then begin
          incr i;
          go acc
        end
        else begin
          eat close;
          List.rev acc
        end
      in
      go []
  in
  let v = value () in
  ws ();
  if !i <> n then fail ();
  v

type report_row = {
  r_certified : bool;
  r_validated : bool;
  r_counts : int list;  (** rounds, bits, messages, events *)
}

let report_counts = [ "rounds"; "bits"; "messages"; "events" ]

(** The rows of a {!report_json} file, keyed by (query, protocol): its
    certified and validated flags and its {!report_counts}. *)
let read_report path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let field row k = Option.value (List.assoc_opt k row) ~default:Null in
  let row = function
    | Obj r ->
        let str k = match field r k with Str v -> v | _ -> failwith ("missing " ^ k) in
        let flag k = field r k = Bool true in
        let count k =
          match field r k with Num v -> int_of_float v | _ -> failwith ("missing " ^ k)
        in
        ( (str "query", str "protocol"),
          {
            r_certified = flag "certified";
            r_validated = flag "validated";
            r_counts = List.map count report_counts;
          } )
    | _ -> failwith "certificate row is not an object"
  in
  match parse_json text with
  | Obj top -> (
      match field top "certificates" with
      | Arr rows -> List.map row rows
      | _ -> failwith "no certificates array")
  | _ -> failwith "not a certificate file"
