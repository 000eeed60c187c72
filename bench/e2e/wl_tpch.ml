(* tpch-mem and tpch-spill: the paper's hand-built TPC-H plans, in process,
   under 3PC (sh-hm), one domain. tpch-mem keeps every share vector whole
   (no chunk store); tpch-spill streams the same operators through the
   chunk store with lineitem four times the memory budget. *)

open Orq_proto
open Orq_workloads
open Common
module Table = Orq_core.Table
module Ptable = Orq_plaintext.Ptable
module Service = Orq_service.Service

type spec = {
  name : string;
  sf : float;
  chunk_rows : int option;  (** streamed through the chunk store, or whole *)
  queries : string list;
}

let mem =
  {
    name = "tpch-mem";
    sf = 0.0005;
    chunk_rows = None;
    queries = [ "Q1"; "Q3"; "Q6"; "Q9"; "Q12"; "Q13"; "Q18" ];
  }

let spill =
  { name = "tpch-spill"; sf = 0.0015; chunk_rows = Some 2048; queries = [ "Q6"; "Q12"; "Q3"; "Q18" ] }

let kind = Ctx.Sh_hm
let proto_label = Ctx.kind_label kind

type db = { plain : Tpch_gen.plain; ctx : Ctx.t; mdb : Tpch_gen.mpc; cseed : int }

(* Lineitem's share bytes: every column plus validity, one word per share
   vector and row. The spill budget is a quarter of it. *)
let lineitem_bytes (p : Tpch_gen.plain) =
  Ptable.nrows p.Tpch_gen.lineitem
  * (List.length (Ptable.schema p.Tpch_gen.lineitem) + 1)
  * Ctx.nvec_of kind * 8

(* Secret-share catalog [cseed] as [spec] runs it. *)
let share spec cseed plain =
  Option.iter
    (fun rows ->
      Chunkvec.set_chunk_rows rows;
      Chunkvec.set_budget (lineitem_bytes plain / 4))
    spec.chunk_rows;
  let ctx = Ctx.create ~seed:cseed kind in
  { plain; ctx; mdb = Tpch_gen.share ctx plain; cseed }

(* One set-up: generate the catalog, then secret-share it; [split]
   collects the (generate, share) times. *)
let set_up spec ~seed split () =
  (* a store entry releases the chunks of catalogs collected since the last
     set-up, so that work stays out of the timed span *)
  ignore (Chunkvec.stats ());
  let t0 = now () in
  let cseed, plain = Catalog.generate ~sf:spec.sf ~seed in
  let t1 = now () in
  let db = share spec cseed plain in
  let t2 = now () in
  split := (t1 -. t0, t2 -. t1) :: !split;
  (db, t2 -. t0)

(* Plaintext reference rows of [spec]'s queries. *)
let references spec plain =
  List.map
    (fun name ->
      let q = Tpch.find name in
      (name, Ptable.rows_sorted (q.Tpch.reference plain) q.Tpch.compare_cols))
    spec.queries

let mask widths rows =
  List.sort compare
    (List.map (List.map2 (fun w v -> v land Orq_util.Ring.mask w) widths) rows)

(* Run one query as the analyst would — plan, then open the result columns
   — reseeded so its tallies are a function of (catalog, query) alone; then,
   outside the timed span, compare the opened rows with the plaintext
   reference computed at set-up. *)
let exec db refs tracer ~qid (e : Suite.entry) =
  let q = Tpch.find e.Suite.key in
  Ctx.reseed db.ctx (Service.query_seed_for ~seed:db.cseed ~proto_label ~sql:q.Tpch.name);
  let c0 = Comm.snapshot db.ctx.Ctx.comm and p0 = Comm.snapshot db.ctx.Ctx.preproc in
  Option.iter Tracer.begin_query tracer;
  let t0 = now () in
  let r = Table.project (q.Tpch.run db.mdb) q.Tpch.compare_cols in
  let opened = Table.reveal r in
  let t1 = now () in
  let on = Comm.since db.ctx.Ctx.comm c0 and pre = Comm.since db.ctx.Ctx.preproc p0 in
  let traced =
    match tracer with
    | Some tr -> Tracer.end_query tr ~qid ~name:q.Tpch.name ~t0 ~tally:on
    | None -> []
  in
  let cols = q.Tpch.compare_cols in
  let widths = List.map (Table.width r) cols in
  let n = match opened with (_, a) :: _ -> Array.length a | [] -> 0 in
  let got = List.init n (fun i -> List.map (fun c -> (List.assoc c opened).(i)) cols) in
  let want = List.assoc q.Tpch.name refs in
  let wrong =
    if mask widths got = mask widths want then []
    else
      [ Printf.sprintf "%s: %d opened rows differ from the %d plaintext reference rows"
          q.Tpch.name n (List.length want) ]
  in
  { Suite.wall = t1 -. t0; on; pre; errors = wrong @ traced }

let run spec ~seed ~until ~trace_file : result =
  let outcome = outcome () in
  let split = ref [] in
  let setup_speed = speed () and speed = speed () in
  let db, setup =
    set_up_repeatedly ~speed:setup_speed ~set_up:(set_up spec ~seed split) ~tear_down:ignore
  in
  let refs = references spec db.plain in
  let rows = Ptable.nrows db.plain.Tpch_gen.lineitem in
  let facts =
    [
      ("protocol", Json.Str proto_label);
      ("sf", Json.Num spec.sf);
      ("catalog_seed", Json.Num (float_of_int db.cseed));
      ("lineitem_rows", Json.Num (float_of_int rows));
    ]
  in
  let fresh () = List.map Suite.entry spec.queries in
  let loop ~until es tracer = Suite.loop ~outcome ~speed ~until es (exec db refs tracer) in
  match trace_file with
  | None ->
      let es = fresh () in
      let r = loop ~until es None in
      let metrics, e2e_facts =
        Suite.run_e2e ~setup ~setup_speed ~speed ~rss_kb:(Chunkvec.rss_peak_kb ()) es r
      in
      { workload = spec.name; outcome; metrics; facts = facts @ e2e_facts @ [ Suite.query_facts es ] }
  | Some path ->
      let tr = Tracer.create () in
      let plain_es = fresh () and traced_es = fresh () in
      Chunkvec.reset_peak ();
      let s0 = Chunkvec.stats () in
      let passes =
        Suite.alternate ~until
          ~plain:(fun () -> ignore (loop ~until:0. plain_es None))
          ~traced:(fun () ->
            Tracer.attach tr db.ctx;
            Fun.protect
              ~finally:(fun () -> Tracer.detach db.ctx)
              (fun () -> ignore (loop ~until:0. traced_es (Some tr))))
      in
      let s1 = Chunkvec.stats () in
      let per f = float_of_int (f s1 - f s0) /. float_of_int (2 * passes) in
      let store =
        Chunkvec.
          [
            metric "util.chunkvec.spills" (per (fun s -> s.st_spills));
            metric "util.chunkvec.spilled_mib" (per (fun s -> s.st_spilled_bytes) /. 1048576.);
            metric "util.chunkvec.faults" (per (fun s -> s.st_faults));
            metric "util.chunkvec.faulted_mib" (per (fun s -> s.st_faulted_bytes) /. 1048576.);
            metric "util.chunkvec.peak_live_mib" (mib_of_bytes s1.st_peak_live_bytes);
          ]
      in
      let probes = Probes.run tr kind ~n:rows ~seed:db.cseed in
      Json.to_file path (Tracer.to_json tr ~workload:spec.name ~seed);
      {
        workload = spec.name;
        outcome;
        metrics =
          Tracer.operator_metrics tr ~passes
          @ probes @ store
          @ [
              metric "workloads.generate_s" (median (List.map fst !split));
              metric "workloads.share_s" (median (List.map snd !split));
              metric "trace.overhead_ratio" (Suite.pass_s traced_es /. Suite.pass_s plain_es);
            ];
        facts = facts @ [ ("traced_passes", Json.Num (float_of_int passes)) ];
      }

(* The key of [Catalog.scan]: one checked pass of [spec] on a catalog, as
   its summed online rounds (the count quicksort makes data-dependent),
   with the rest of its tallies for reference. *)
let scan_key spec cseed plain =
  let db = share spec cseed plain in
  let outcome = outcome () in
  let es = List.map Suite.entry spec.queries in
  ignore (Suite.loop ~outcome ~speed:(speed ()) ~until:0. es (exec db (references spec plain) None));
  let on = Suite.total (Suite.tallies (fun e -> e.Suite.online) es)
  and pre = Suite.total (Suite.tallies (fun e -> e.Suite.preproc) es) in
  ( Printf.sprintf "rounds=%d%s" on.Comm.t_rounds (if outcome.failed > 0 then " FAILED" else ""),
    Printf.sprintf "(bits=%d preproc_bits=%d)" on.Comm.t_bits pre.Comm.t_bits )
