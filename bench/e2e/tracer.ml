(* Outside-in tracing: per-operator numbers obtained from the benchmark's
   own files, by hooking the public metering interface of the benchmark's
   own protocol context.

   A [Comm.channel] is installed on the context's online meter and label
   recording is switched on ([Comm.start_recording]), so [Comm.current_label]
   names the operator stack ([Ctx.with_label]) active at every metering
   event. Each event closes the interval since the previous event and
   charges it — wall time, the event's rounds/bits/messages, and the words
   allocated meanwhile — to the innermost known operator of that stack.
   Rounds, bits and messages are therefore attributed exactly: per query,
   the charged totals must equal the query's Comm tally, which [end_query]
   checks. Times are approximate at operator boundaries (an interval is
   charged to the operator of the event that closes it).

   Spans (queries, probes, client requests) are kept in memory and
   written as one JSON file when the run ends. *)

open Orq_proto
module Comm = Orq_net.Comm

(* The per-layer buckets, in report order. *)
let buckets =
  [
    "sort.quicksort"; "sort.radixsort"; "shuffle.applyperm"; "shuffle.shuffle";
    "shuffle.permother"; "core.aggnet"; "core.aggregate"; "core.join";
    "core.linjoin"; "core.filter"; "core.orderby"; "core.reveal"; "unlabeled";
  ]

let bucket_of_op = function
  | "quicksort" -> Some "sort.quicksort"
  | "radixsort" -> Some "sort.radixsort"
  | "applyperm" -> Some "shuffle.applyperm"
  | "shuffle" -> Some "shuffle.shuffle"
  | "permcompose" | "perminvert" | "permconvert" -> Some "shuffle.permother"
  | "aggnet" -> Some "core.aggnet"
  | "aggregate" | "globalagg" | "distinct" -> Some "core.aggregate"
  | "join" | "joinunique" | "quadjoin" -> Some "core.join"
  | "linjoin" -> Some "core.linjoin"
  | "filter" -> Some "core.filter"
  | "orderby" -> Some "core.orderby"
  | "reveal" -> Some "core.reveal"
  | _ -> None

(* Innermost operator of a "/"-joined label stack that has a bucket; a
   label this table does not know is charged to its nearest known
   ancestor, and no known label at all to "unlabeled". *)
let bucket_of_label label =
  let rec find = function
    | [] -> "unlabeled"
    | op :: outer -> ( match bucket_of_op op with Some b -> b | None -> find outer)
  in
  find (List.rev (String.split_on_char '/' label))

type acc = {
  mutable self_s : float;
  mutable rounds : int;
  mutable bits : int;
  mutable msgs : int;
  mutable words : float;
}

let fresh_acc () = { self_s = 0.; rounds = 0; bits = 0; msgs = 0; words = 0. }

type span = {
  sp_id : int;
  sp_name : string;
  sp_qid : int;  (** query or request id; -1 = none *)
  sp_start : float;
  sp_end : float;
  sp_attrs : (string * Json.t) list;
}

type t = {
  origin : float;
  totals : (string, acc) Hashtbl.t;
  query : (string, acc) Hashtbl.t;
  mutable last_t : float;
  mutable last_w : float;
  mutable spans : span list;
  mutable next_id : int;
}

let create () =
  {
    origin = Common.now ();
    totals = Hashtbl.create 16;
    query = Hashtbl.create 16;
    last_t = 0.;
    last_w = 0.;
    spans = [];
    next_id = 0;
  }

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let acc_of tbl b =
  match Hashtbl.find_opt tbl b with
  | Some a -> a
  | None ->
      let a = fresh_acc () in
      Hashtbl.replace tbl b a;
      a

(* Close the interval since the last event and charge it to [label]. *)
let charge tr label ~rounds ~bits ~msgs =
  let t = Common.now () and w = allocated_words () in
  let a = acc_of tr.query (bucket_of_label label) in
  a.self_s <- a.self_s +. (t -. tr.last_t);
  a.words <- a.words +. (w -. tr.last_w);
  a.rounds <- a.rounds + rounds;
  a.bits <- a.bits + bits;
  a.msgs <- a.msgs + msgs;
  tr.last_t <- t;
  tr.last_w <- allocated_words ()

(* Hook the context's online meter. Recording only serves the label
   stack, so the event ring is kept tiny. *)
let attach tr (ctx : Ctx.t) =
  let comm = ctx.Ctx.comm in
  Comm.start_recording ~capacity:64 comm;
  let here ~rounds ~bits ~msgs = charge tr (Comm.current_label comm) ~rounds ~bits ~msgs in
  Channel.attach ctx
    {
      Channel.ch_round = (fun ~bits ~messages -> here ~rounds:1 ~bits ~msgs:messages);
      ch_traffic = (fun ~bits ~messages -> here ~rounds:0 ~bits ~msgs:messages);
      ch_barrier = (fun k -> here ~rounds:k ~bits:0 ~msgs:0);
      ch_refund = (fun k -> here ~rounds:(-k) ~bits:0 ~msgs:0);
    }

let detach (ctx : Ctx.t) =
  Channel.detach ctx;
  Comm.stop_recording ctx.Ctx.comm

(* Spans are flat: every span is top-level (parent -1). *)
let add_span tr ?(qid = -1) ?(attrs = []) name t0 t1 =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  tr.spans <-
    {
      sp_id = id;
      sp_name = name;
      sp_qid = qid;
      sp_start = t0 -. tr.origin;
      sp_end = t1 -. tr.origin;
      sp_attrs = attrs;
    }
    :: tr.spans

let begin_query tr =
  Hashtbl.reset tr.query;
  tr.last_w <- allocated_words ();
  tr.last_t <- Common.now ()

let acc_json (a : acc) =
  Json.Obj
    [
      ("self_s", Json.Num a.self_s);
      ("rounds", Json.Num (float_of_int a.rounds));
      ("mib", Json.Num (Common.mib_of_bits a.bits));
      ("messages", Json.Num (float_of_int a.msgs));
      ("alloc_mw", Json.Num (a.words /. 1e6));
    ]

(* End a query begun with [begin_query]: charge the tail to the unlabeled
   bucket, check that the per-operator rounds/bits/messages add up to the
   query's own tally, fold the query into the run totals, and record its
   span with the per-operator breakdown. Returns the check's errors. *)
let end_query tr ~qid ~name ~t0 ~(tally : Comm.tally) =
  charge tr "" ~rounds:0 ~bits:0 ~msgs:0;
  let t1 = Common.now () in
  let r = ref 0 and b = ref 0 and m = ref 0 in
  Hashtbl.iter
    (fun k (a : acc) ->
      r := !r + a.rounds;
      b := !b + a.bits;
      m := !m + a.msgs;
      let tot = acc_of tr.totals k in
      tot.self_s <- tot.self_s +. a.self_s;
      tot.rounds <- tot.rounds + a.rounds;
      tot.bits <- tot.bits + a.bits;
      tot.msgs <- tot.msgs + a.msgs;
      tot.words <- tot.words +. a.words)
    tr.query;
  let per_op =
    List.filter_map
      (fun k -> Option.map (fun a -> (k, acc_json a)) (Hashtbl.find_opt tr.query k))
      buckets
  in
  add_span tr ~qid
    ~attrs:
      [
        ("rounds", Json.Num (float_of_int tally.Comm.t_rounds));
        ("bits", Json.Num (float_of_int tally.Comm.t_bits));
        ("messages", Json.Num (float_of_int tally.Comm.t_messages));
        ("operators", Json.Obj per_op);
      ]
    name t0 t1;
  if
    !r = tally.Comm.t_rounds && !b = tally.Comm.t_bits
    && !m = tally.Comm.t_messages
  then []
  else
    [
      Printf.sprintf
        "%s: per-operator sums (rounds=%d bits=%d msgs=%d) differ from the \
         query tally (rounds=%d bits=%d msgs=%d)"
        name !r !b !m tally.Comm.t_rounds tally.Comm.t_bits
        tally.Comm.t_messages;
    ]

(* Per-layer metrics of the operator buckets, summed over the traced
   queries and divided by [passes] (the number of times the suite ran). *)
let operator_metrics tr ~passes =
  let per v = v /. float_of_int (max 1 passes) in
  List.concat_map
    (fun b ->
      let a = Option.value (Hashtbl.find_opt tr.totals b) ~default:(fresh_acc ()) in
      [
        Common.metric (b ^ ".self_s") (per a.self_s);
        Common.metric (b ^ ".rounds") (per (float_of_int a.rounds));
        Common.metric (b ^ ".mib") (per (Common.mib_of_bits a.bits));
        Common.metric (b ^ ".alloc_mw") (per (a.words /. 1e6));
      ])
    buckets

let span_json s =
  Json.Obj
    ([
       ("id", Json.Num (float_of_int s.sp_id));
       ("name", Json.Str s.sp_name);
       ("parent", Json.Num (-1.));
       ("qid", Json.Num (float_of_int s.sp_qid));
       ("start", Json.Num s.sp_start);
       ("end", Json.Num s.sp_end);
     ]
    @ match s.sp_attrs with [] -> [] | a -> [ ("attrs", Json.Obj a) ])

let to_json tr ~workload ~seed =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ( "operators",
        Json.Obj
          (List.filter_map
             (fun b ->
               Option.map (fun a -> (b, acc_json a)) (Hashtbl.find_opt tr.totals b))
             buckets) );
      ("spans", Json.Arr (List.rev_map span_json tr.spans));
    ]
