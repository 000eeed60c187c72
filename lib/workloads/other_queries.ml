(** The nine queries the paper collects from prior relational MPC systems
    (§5.1): Aspirin, C.Diff, Password, Credit Score, Comorbidity and SecQ2
    (Secrecy / Conclave / Senate), Market Share (Conclave), SYan (Wang &
    Yi's Secure Yannakakis Example 1.1), and Patients (the Shrinkwrap
    3-way-join used to showcase the cascading effect, which ORQ avoids by
    pre-aggregating multiplicities, §3.6). Each query ships with its
    plaintext reference twin. Every query but C.Diff is a logical plan
    over {!Other_gen.catalog} that {!Orq_planner.Compile} runs, which
    decides its fusion, pruning and copy lists. C.Diff keeps a hand-built
    MPC body: its adjacent-row test is a window step that neither SQL nor
    {!Orq_planner.Plan} has. *)

open Orq_core
open Orq_planner.Plan
open Tpch_util
module G = Other_gen
module Mpc = Orq_proto.Mpc

type query = (G.mpc, G.plain) Query.t

(* ------------------------------------------------------------------ *)
(* Comorbidity (Secrecy / SMCQL): most common diagnoses in a cohort    *)
(* ------------------------------------------------------------------ *)

let comorbidity_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  semi_join (tbl "diagnosis") (tbl "cohort") ~on:[ "pid" ]
  |> aggregate ~keys:[ "diag" ] ~aggs:[ cnt "pid" "cnt" ]
  |> top [ ("cnt", D.Desc); ("diag", D.Asc) ] 10

let comorbidity_ref (db : G.plain) =
  let d = P.semi_join db.G.diagnosis db.G.cohort ~on:[ "pid" ] in
  let agg = P.group_by d ~keys:[ "diag" ] ~aggs:[ pcnt "pid" "cnt" ] in
  P.limit (P.sort agg [ ("cnt", -1); ("diag", 1) ]) 10

(* ------------------------------------------------------------------ *)
(* Aspirin count (Senate / Secrecy): patients who took aspirin after a *)
(* heart-disease diagnosis — many-to-many on pid, pre-aggregated       *)
(* ------------------------------------------------------------------ *)

let aspirin_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  join
    (tbl "diagnosis"
    |> filter E.(col "diag" ==. const G.diag_hd)
    |> aggregate ~keys:[ "pid" ] ~aggs:[ mn "dtime" "first_diag" ])
    (tbl "medication"
    |> filter E.(col "med" ==. const G.med_aspirin)
    |> aggregate ~keys:[ "pid" ] ~aggs:[ mx "mtime" "last_asp" ])
    ~on:[ "pid" ]
  |> filter E.(col "last_asp" >=. col "first_diag")
  |> global ~aggs:[ cnt "pid" "patients" ]

let aspirin_ref (db : G.plain) =
  let d = P.filter db.G.diagnosis (fun g r -> g "diag" r = G.diag_hd) in
  let d = P.group_by d ~keys:[ "pid" ] ~aggs:[ pmn "dtime" "first_diag" ] in
  let m = P.filter db.G.medication (fun g r -> g "med" r = G.med_aspirin) in
  let m = P.group_by m ~keys:[ "pid" ] ~aggs:[ pmx "mtime" "last_asp" ] in
  let j = P.inner_join d m ~on:[ "pid" ] in
  let j = P.filter j (fun g r -> g "last_asp" r >= g "first_diag" r) in
  pglobal j ~aggs:[ pcnt "pid" "patients" ]

(* ------------------------------------------------------------------ *)
(* C.Diff (Secrecy): recurrent infection — second diagnosis 15..56     *)
(* days after the previous one (adjacent-pair oblivious rewrite)       *)
(* ------------------------------------------------------------------ *)

(* The one hand-built MPC body: its adjacent-row test is a window step
   that neither SQL nor [Plan] has, so it places its own fused tracks. *)
let cdiff_run (db : G.mpc) =
  let ctx = Table.ctx db.G.m_diagnosis in
  let d = D.filter db.G.m_diagnosis E.(col "diag" ==. const G.diag_cdiff) in
  let d =
    Tablesort.sort
      ~valid:Tablesort.Asc
      d
      [ ("pid", Tablesort.Asc); ("dtime", Tablesort.Asc) ]
  in
  let n = Table.nrows d in
  let patients d = D.global_aggregate d ~aggs:[ cnt "pid" "patients" ] in
  (* no rows, no adjacent pairs *)
  if n = 0 then patients d
  else begin
    let pid = Table.column d "pid" and tm = Table.column d "dtime" in
    let v = d.Table.valid in
    let hd s = Orq_proto.Share.sub_range s 0 (n - 1) in
    let tl s = Orq_proto.Share.sub_range s 1 (n - 1) in
    (* the pair tests are data-independent: fused round tracks *)
    let w = Table.width d "dtime" + 1 in
    let public c = Orq_proto.Share.public ctx Orq_proto.Share.Bool (n - 1) c in
    let t =
      Mpc.fuse_rounds ctx
        [|
          (fun () -> Orq_circuits.Compare.eq ctx ~w:(Table.width d "pid") (hd pid) (tl pid));
          (fun () ->
            Mpc.band_f ctx (Orq_proto.Share.pack_flags (hd v))
              (Orq_proto.Share.pack_flags (tl v)));
          (fun () ->
            let diff = Orq_circuits.Adder.sub ctx ~w (tl tm) (hd tm) in
            let b =
              Mpc.fuse_rounds ctx
                [|
                  (fun () -> Orq_circuits.Compare.ge ctx ~w diff (public 15));
                  (fun () -> Orq_circuits.Compare.le ctx ~w diff (public 56));
                |]
            in
            Mpc.band_f ctx b.(0) b.(1));
        |]
    in
    let mark = Mpc.band_f ctx (Mpc.band_f ctx t.(0) t.(1)) t.(2) in
    let marker =
      Orq_proto.Share.flags_concat_many
        [|
          Orq_proto.Share.pack_flags
            (Orq_proto.Share.public ctx Orq_proto.Share.Bool 1 0);
          mark;
        |]
    in
    let d = Table.and_valid d marker in
    patients (D.distinct d [ "pid" ])
  end

let cdiff_ref (db : G.plain) =
  let d = P.filter db.G.diagnosis (fun g r -> g "diag" r = G.diag_cdiff) in
  let d = P.sort d [ ("pid", 1); ("dtime", 1) ] in
  let rows = d.P.rows in
  let getp = P.get d "pid" and gett = P.get d "dtime" in
  let rec pids acc = function
    | a :: (b :: _ as tl) ->
        let acc =
          if getp a = getp b && gett b - gett a >= 15 && gett b - gett a <= 56
          then getp a :: acc
          else acc
        in
        pids acc tl
    | _ -> acc
  in
  let distinct_pids = List.sort_uniq compare (pids [] rows) in
  P.create [ "patients" ] [ [ List.length distinct_pids ] ]

(* ------------------------------------------------------------------ *)
(* Password reuse (Senate / Secrecy): users with the same password on  *)
(* at least two sites                                                  *)
(* ------------------------------------------------------------------ *)

let password_plan (db : G.mpc) =
  scan (G.catalog db) "passwords"
  |> distinct [ "uid"; "pwd"; "site" ]
  |> aggregate ~keys:[ "uid"; "pwd" ] ~aggs:[ cnt "site" "nsites" ]
  |> filter E.(col "nsites" >=. const 2)
  |> distinct [ "uid" ]
  |> global ~aggs:[ cnt "uid" "reusers" ]

let password_ref (db : G.plain) =
  let p = P.distinct db.G.passwords [ "uid"; "pwd"; "site" ] in
  let agg = P.group_by p ~keys:[ "uid"; "pwd" ] ~aggs:[ pcnt "site" "nsites" ] in
  let reused = P.filter agg (fun g r -> g "nsites" r >= 2) in
  let users = P.distinct reused [ "uid" ] in
  pglobal users ~aggs:[ pcnt "uid" "reusers" ]

(* ------------------------------------------------------------------ *)
(* Credit score (SMCQL / Secrecy): persons whose scores from the two   *)
(* bureaus disagree by more than a threshold                           *)
(* ------------------------------------------------------------------ *)

let credit_delta = 50

let credit_plan (db : G.mpc) =
  scan (G.catalog db) "credit"
  |> aggregate ~keys:[ "cid" ] ~aggs:[ mn "score" "lo"; mx "score" "hi" ]
  |> filter E.(col "hi" -! col "lo" >. const credit_delta)
  |> global ~aggs:[ cnt "cid" "persons" ]

let credit_ref (db : G.plain) =
  let agg =
    P.group_by db.G.credit ~keys:[ "cid" ]
      ~aggs:[ pmn "score" "lo"; pmx "score" "hi" ]
  in
  let diff = P.filter agg (fun g r -> g "hi" r - g "lo" r > credit_delta) in
  pglobal diff ~aggs:[ pcnt "cid" "persons" ]

(* ------------------------------------------------------------------ *)
(* SecQ2 (Secrecy): per-attribute totals across a PK-FK join           *)
(* ------------------------------------------------------------------ *)

let secq2_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  join (tbl "r") (tbl "s") ~on:[ "id" ]
  |> aggregate ~keys:[ "att" ] ~aggs:[ sum "val" "total" ]

let secq2_ref (db : G.plain) =
  let j = P.inner_join db.G.r_att db.G.s_val ~on:[ "id" ] in
  P.group_by j ~keys:[ "att" ] ~aggs:[ psum "val" "total" ]

(* ------------------------------------------------------------------ *)
(* Market share (Conclave): each company's share of total volume       *)
(* ------------------------------------------------------------------ *)

let market_share_plan (db : G.mpc) =
  let t = scan (G.catalog db) "transactions" in
  with_scalar
    (aggregate ~keys:[ "company" ] ~aggs:[ sum "price" "volume" ] t)
    ~scalar:(global ~aggs:[ sum "price" "total" ] t)
    ~src:"total" ~dst:"total"
  |> map "share_pct" E.(Div (col "volume" *! const 100, col "total"))

let market_share_ref (db : G.plain) =
  let t = db.G.transactions in
  let total = pglobal t ~aggs:[ psum "price" "total" ] in
  let agg = P.group_by t ~keys:[ "company" ] ~aggs:[ psum "price" "volume" ] in
  let agg = pwith_scalar agg ~scalar:total ~src:"total" ~dst:"total" in
  P.map agg ~dst:"share_pct" (fun g r -> g "volume" r * 100 / g "total" r)

(* ------------------------------------------------------------------ *)
(* SYan — Secure Yannakakis Example 1.1 (Wang & Yi):                   *)
(* SELECT T.class, SUM(S.cost * (1 - R.coins)) GROUP BY T.class        *)
(* ------------------------------------------------------------------ *)

let syan_plan (db : G.mpc) =
  let tbl = scan (G.catalog db) in
  join (tbl "yt")
    (join (tbl "yr") (tbl "ys") ~on:[ "person" ]
    |> map "net_cost" E.(Div_pub (col "cost" *! (const 100 -! col "coins"), 100)))
    ~on:[ "disease" ]
  |> aggregate ~keys:[ "class" ] ~aggs:[ sum "net_cost" "total" ]

let syan_ref (db : G.plain) =
  let j = P.inner_join db.G.yr db.G.ys ~on:[ "person" ] in
  let j =
    P.map j ~dst:"net_cost" (fun g r -> g "cost" r * (100 - g "coins" r) / 100)
  in
  let j2 = P.inner_join db.G.yt j ~on:[ "disease" ] in
  P.group_by j2 ~keys:[ "class" ] ~aggs:[ psum "net_cost" "total" ]

(* ------------------------------------------------------------------ *)
(* Patients (Shrinkwrap): COUNT(rows) of the 3-way many-to-many join      *)
(* diagnosis ⋈ medication ⋈ labs on pid — the cascading-effect query.  *)
(* ORQ evaluates it with multiplicity pre-aggregation (§3.6, Fig. 3).  *)
(* ------------------------------------------------------------------ *)

let patients_plan (db : G.mpc) =
  let counts name src dst = aggregate ~keys:[ "pid" ] ~aggs:[ cnt src dst ] (scan (G.catalog db) name) in
  join
    (join (counts "diagnosis" "diag" "cd") (counts "medication" "med" "cm") ~on:[ "pid" ])
    (counts "labs" "test" "cl") ~on:[ "pid" ]
  |> map "mult" E.(col "cd" *! col "cm" *! col "cl")
  |> global ~aggs:[ sum "mult" "join_size" ]

let patients_ref (db : G.plain) =
  let cd = P.group_by db.G.diagnosis ~keys:[ "pid" ] ~aggs:[ pcnt "diag" "cd" ] in
  let cm = P.group_by db.G.medication ~keys:[ "pid" ] ~aggs:[ pcnt "med" "cm" ] in
  let cl = P.group_by db.G.labs ~keys:[ "pid" ] ~aggs:[ pcnt "test" "cl" ] in
  let j = P.inner_join cd cm ~on:[ "pid" ] in
  let j2 = P.inner_join j cl ~on:[ "pid" ] in
  let j2 = P.map j2 ~dst:"mult" (fun g r -> g "cd" r * g "cm" r * g "cl" r) in
  pglobal j2 ~aggs:[ psum "mult" "join_size" ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let plans =
  [
    ("Comorbidity", comorbidity_plan);
    ("Aspirin", aspirin_plan);
    ("Password", password_plan);
    ("Credit", credit_plan);
    ("SecQ2", secq2_plan);
    ("MarketShare", market_share_plan);
    ("SYan", syan_plan);
    ("Patients", patients_plan);
  ]

let planned name reference compare_cols =
  { Query.name; run = Query.run_plan (List.assoc name plans); reference; compare_cols }

let all : query list =
  [
    planned "Comorbidity" comorbidity_ref [ "diag"; "cnt" ];
    planned "Aspirin" aspirin_ref [ "patients" ];
    { Query.name = "C.Diff"; run = cdiff_run; reference = cdiff_ref;
      compare_cols = [ "patients" ] };
    planned "Password" password_ref [ "reusers" ];
    planned "Credit" credit_ref [ "persons" ];
    planned "SecQ2" secq2_ref [ "att"; "total" ];
    planned "MarketShare" market_share_ref [ "company"; "share_pct" ];
    planned "SYan" syan_ref [ "class"; "total" ];
    planned "Patients" patients_ref [ "join_size" ];
  ]

let find name = Query.find all name
