(** Physical-join operator benchmark: the join-heavy TPC-H queries run
    once per physical-operator mode — forced sort, forced linear and
    cost-based auto ([Joincost]) — under identical seeds,
    validating every run against the plaintext reference and comparing
    measured rounds/bits/messages plus modeled LAN/WAN/geo network
    times. Writes BENCH_join.json.

    Gates (exit 1 on failure):
    - every run validates against the plaintext engine;
    - the linear join beats the sort join on measured rounds and/or bits
      for at least 3 of the target queries, on every benched protocol;
    - auto is measured-cheapest (modeled seconds under the costing
      profile) on every (query, protocol) pair — it may mix operators
      across a query's join nodes, so it must never lose to a forced
      mode.

    Quick mode (ORQ_JOIN_QUICK=1) restricts to Q3/Q9 under sh-hm. *)

open Orq_proto
open Orq_workloads
open Bench_util
module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim
module Joincost = Orq_core.Joincost

(* The join-heavy queries of the evaluation (§5): multi-way joins over
   customer/orders/lineitem/supplier where operator choice moves the
   bottom line. *)
let targets = [ "Q3"; "Q5"; "Q7"; "Q9"; "Q21" ]
let quick_targets = [ "Q3"; "Q9" ]

let modes =
  [
    ("sort", Joincost.Force Joincost.Sort);
    ("linear", Joincost.Force Joincost.Linear);
    ("auto", Joincost.Auto);
  ]

type mrow = {
  m_mode : string;
  m_ok : bool;
  m_tally : Comm.tally;
  m_joins : string list;  (** operator actually run, per join node *)
}

type qrow = { q_name : string; q_proto : string; q_modes : mrow list }

let with_mode m f =
  let prev = Joincost.mode () in
  Joincost.set_mode m;
  Fun.protect ~finally:(fun () -> Joincost.set_mode prev) f

let run_one kind plain (q : Tpch.query) (label, mode) : mrow =
  with_mode mode (fun () ->
      Joincost.reset_log ();
      let ctx = Ctx.create ~seed:5 kind in
      let mdb = Tpch_gen.share ctx plain in
      let before = Comm.snapshot ctx.Ctx.comm in
      let ok, _, _ = Tpch.validate q plain mdb in
      let m_tally = Comm.since ctx.Ctx.comm before in
      let m_joins =
        List.map
          (fun (d : Joincost.decision) -> Joincost.op_label d.Joincost.jd_chosen)
          (Joincost.log ())
      in
      { m_mode = label; m_ok = ok; m_tally; m_joins })

let find_mode r label = List.find (fun m -> m.m_mode = label) r.q_modes

(* The comparison metric of the auto gate: modeled network seconds under
   the profile the cost model itself prices with. *)
let secs (m : mrow) = Netsim.network_time (Joincost.profile ()) m.m_tally

let linear_beats_sort r =
  let s = (find_mode r "sort").m_tally and l = (find_mode r "linear").m_tally in
  l.Comm.t_rounds < s.Comm.t_rounds || l.Comm.t_bits < s.Comm.t_bits

let auto_cheapest r =
  let auto = secs (find_mode r "auto") in
  let forced =
    List.filter_map
      (fun m -> if m.m_mode = "auto" then None else Some (secs m))
      r.q_modes
  in
  auto <= List.fold_left min infinity forced *. 1.0001

let profiles = [ ("lan", Netsim.lan); ("wan", Netsim.wan); ("geo", Netsim.geo) ]

let json_of_mrow (m : mrow) =
  let net =
    String.concat ","
      (List.map
         (fun (lbl, p) ->
           Printf.sprintf "\"%s\":%.6f" lbl (Netsim.network_time p m.m_tally))
         profiles)
  in
  Printf.sprintf
    "\"%s\":{\"rounds\":%d,\"bits\":%d,\"messages\":%d,\"ok\":%b,\
     \"joins\":[%s],\"net_s\":{%s}}"
    m.m_mode m.m_tally.Comm.t_rounds m.m_tally.Comm.t_bits
    m.m_tally.Comm.t_messages m.m_ok
    (String.concat "," (List.map (Printf.sprintf "\"%s\"") m.m_joins))
    net

let json_of_qrow (r : qrow) =
  Printf.sprintf
    "    {\"name\":\"%s\",\"proto\":\"%s\",\"linear_beats_sort\":%b,\
     \"auto_cheapest\":%b,%s}"
    r.q_name r.q_proto (linear_beats_sort r) (auto_cheapest r)
    (String.concat "," (List.map json_of_mrow r.q_modes))

let run ~sf () =
  let quick =
    match Sys.getenv_opt "ORQ_JOIN_QUICK" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false
  in
  let kinds = if quick then [ Ctx.Sh_hm ] else [ Ctx.Sh_dm; Ctx.Sh_hm; Ctx.Mal_hm ] in
  let names = if quick then quick_targets else targets in
  section
    (Printf.sprintf
       "Physical join selection: sort vs linear vs auto (TPC-H @ SF=%g%s)"
       sf
       (if quick then ", quick" else ""));
  let plain = Tpch_gen.generate ~seed:99 sf in
  let queries =
    List.filter (fun (q : Tpch.query) -> List.mem q.Tpch.name names) Tpch.all
  in
  let rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun (q : Tpch.query) ->
            {
              q_name = q.Tpch.name;
              q_proto = Ctx.kind_label kind;
              q_modes = List.map (run_one kind plain q) modes;
            })
          queries)
      kinds
  in
  hdr "%-6s %-7s %-7s %9s %12s %8s %10s  %s" "query" "proto" "mode" "rounds"
    "bits" "msgs" "est-net" "joins";
  List.iter
    (fun r ->
      List.iter
        (fun m ->
          hdr "%-6s %-7s %-7s %9d %12d %8d %10s  %s" r.q_name r.q_proto
            m.m_mode m.m_tally.Comm.t_rounds m.m_tally.Comm.t_bits
            m.m_tally.Comm.t_messages
            (pretty_time (secs m))
            (String.concat "," m.m_joins))
        r.q_modes)
    rows;
  (* gate 1: every run validates *)
  let bad_valid =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun m ->
            if m.m_ok then None
            else Some (Printf.sprintf "%s/%s/%s" r.q_name r.q_proto m.m_mode))
          r.q_modes)
      rows
  in
  (* gate 2: linear beats sort on >=3 targets, per protocol *)
  let need_beats = min 3 (List.length names) in
  let beats_short =
    List.filter_map
      (fun kind ->
        let lbl = Ctx.kind_label kind in
        let mine = List.filter (fun r -> r.q_proto = lbl) rows in
        let won = List.filter linear_beats_sort mine in
        hdr "%s: linear beats sort (rounds and/or bits) on %d/%d queries" lbl
          (List.length won) (List.length mine);
        if List.length won >= need_beats then None else Some lbl)
      kinds
  in
  (* gate 3: auto is measured-cheapest everywhere *)
  let auto_lost =
    List.filter_map
      (fun r ->
        if auto_cheapest r then None
        else Some (Printf.sprintf "%s/%s" r.q_name r.q_proto))
      rows
  in
  if bad_valid <> [] then
    hdr "VALIDATION FAILURES: %s" (String.concat ", " bad_valid);
  if beats_short <> [] then
    hdr "LINEAR-VS-SORT GATE FAILED under: %s"
      (String.concat ", " beats_short);
  if auto_lost <> [] then
    hdr "AUTO NOT CHEAPEST on: %s" (String.concat ", " auto_lost);
  let oc = open_out "BENCH_join.json" in
  Printf.fprintf oc
    "{\n  \"sf\": %g,\n  \"quick\": %b,\n  \"profile\": \"%s\",\n  \"queries\": [\n%s\n  ],\n\
    \  \"all_validated\": %b,\n  \"linear_beats_sort_gate\": %b,\n\
    \  \"auto_cheapest_gate\": %b\n}\n"
    sf quick
    (Joincost.profile ()).Netsim.label
    (String.concat ",\n" (List.map json_of_qrow rows))
    (bad_valid = []) (beats_short = []) (auto_lost = []);
  close_out oc;
  hdr "wrote BENCH_join.json";
  if bad_valid <> [] || beats_short <> [] || auto_lost <> [] then exit 1
