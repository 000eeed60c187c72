(** The nine queries the paper collects from prior relational MPC systems
    (§5.1): Aspirin, C.Diff, Password, Credit Score, Comorbidity and SecQ2
    (Secrecy / Conclave / Senate), Market Share (Conclave), SYan (Wang &
    Yi's Secure Yannakakis Example 1.1), and Patients (the Shrinkwrap
    3-way-join used to showcase the cascading effect, which ORQ avoids by
    pre-aggregating multiplicities, §3.6). Each query ships with its
    plaintext reference twin. *)

open Tpch_util
open Orq_core
module G = Other_gen

type query = (G.mpc, G.plain) Query.t

(* ------------------------------------------------------------------ *)
(* Comorbidity (Secrecy / SMCQL): most common diagnoses in a cohort    *)
(* ------------------------------------------------------------------ *)

let comorbidity_run (db : G.mpc) =
  let d = D.semi_join db.G.m_diagnosis db.G.m_cohort ~on:[ "pid" ] in
  let agg = D.aggregate d ~keys:[ "diag" ] ~aggs:[ cnt "pid" "cnt" ] in
  D.limit (D.order_by agg [ ("cnt", D.Desc); ("diag", D.Asc) ]) 10

let comorbidity_ref (db : G.plain) =
  let d = P.semi_join db.G.diagnosis db.G.cohort ~on:[ "pid" ] in
  let agg = P.group_by d ~keys:[ "diag" ] ~aggs:[ pcnt "pid" "cnt" ] in
  P.limit (P.sort agg [ ("cnt", -1); ("diag", 1) ]) 10

(* ------------------------------------------------------------------ *)
(* Aspirin count (Senate / Secrecy): patients who took aspirin after a *)
(* heart-disease diagnosis — many-to-many on pid, pre-aggregated       *)
(* ------------------------------------------------------------------ *)

let aspirin_run (db : G.mpc) =
  let d () =
    let d = D.filter db.G.m_diagnosis E.(col "diag" ==. const G.diag_hd) in
    D.aggregate d ~keys:[ "pid" ]
      ~aggs:[ { D.src = "dtime"; dst = "first_diag"; fn = D.Min } ]
  in
  let m () =
    let m = D.filter db.G.m_medication E.(col "med" ==. const G.med_aspirin) in
    D.aggregate m ~keys:[ "pid" ]
      ~aggs:[ { D.src = "mtime"; dst = "last_asp"; fn = D.Max } ]
  in
  let r = Mpc.fuse_rounds (Table.ctx db.G.m_diagnosis) [| d; m |] in
  let d = r.(0) and m = r.(1) in
  let j =
    D.inner_join
      (select d [ ("pid", "pid"); ("first_diag", "first_diag") ])
      (select m [ ("pid", "pid"); ("last_asp", "last_asp") ])
      ~on:[ "pid" ] ~copy:[ "first_diag" ]
  in
  let j = D.filter j E.(col "last_asp" >=. col "first_diag") in
  D.global_aggregate j ~aggs:[ cnt "pid" "patients" ]

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
  let d = D.distinct d [ "pid" ] in
  D.global_aggregate d ~aggs:[ cnt "pid" "patients" ]

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

let password_run (db : G.mpc) =
  let p = D.distinct db.G.m_passwords [ "uid"; "pwd"; "site" ] in
  let agg = D.aggregate p ~keys:[ "uid"; "pwd" ] ~aggs:[ cnt "site" "nsites" ] in
  let reused = D.filter agg E.(col "nsites" >=. const 2) in
  let users = D.distinct reused [ "uid" ] in
  D.global_aggregate users ~aggs:[ cnt "uid" "reusers" ]

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

let credit_run (db : G.mpc) =
  let agg =
    D.aggregate db.G.m_credit ~keys:[ "cid" ]
      ~aggs:
        [
          { D.src = "score"; dst = "lo"; fn = D.Min };
          { D.src = "score"; dst = "hi"; fn = D.Max };
        ]
  in
  let diff = D.filter agg E.(col "hi" -! col "lo" >. const credit_delta) in
  D.global_aggregate diff ~aggs:[ cnt "cid" "persons" ]

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

let secq2_run (db : G.mpc) =
  let j =
    D.inner_join db.G.m_r_att db.G.m_s_val ~on:[ "id" ] ~copy:[ "att" ]
  in
  D.aggregate j ~keys:[ "att" ] ~aggs:[ sum "val" "total" ]

let secq2_ref (db : G.plain) =
  let j = P.inner_join db.G.r_att db.G.s_val ~on:[ "id" ] in
  P.group_by j ~keys:[ "att" ] ~aggs:[ psum "val" "total" ]

(* ------------------------------------------------------------------ *)
(* Market share (Conclave): each company's share of total volume       *)
(* ------------------------------------------------------------------ *)

let market_share_run (db : G.mpc) =
  let t = db.G.m_transactions in
  let r =
    Mpc.fuse_rounds (Table.ctx t)
      [|
        (fun () -> D.global_aggregate t ~aggs:[ sum "price" "total" ]);
        (fun () -> D.aggregate t ~keys:[ "company" ] ~aggs:[ sum "price" "volume" ]);
      |]
  in
  let total = r.(0) and agg = r.(1) in
  let agg = D.with_scalar agg ~scalar:total ~src:"total" ~dst:"total" in
  D.map agg ~dst:"share_pct" E.(Div (col "volume" *! const 100, col "total"))

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

let syan_run (db : G.mpc) =
  let j =
    D.inner_join db.G.m_yr db.G.m_ys ~on:[ "person" ] ~copy:[ "coins" ]
  in
  let j =
    D.map j ~dst:"net_cost"
      E.(Div_pub (col "cost" *! (const 100 -! col "coins"), 100))
  in
  let j2 = D.inner_join db.G.m_yt j ~on:[ "disease" ] ~copy:[ "class" ] in
  D.aggregate j2 ~keys:[ "class" ] ~aggs:[ sum "net_cost" "total" ]

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

let patients_run (db : G.mpc) =
  let r =
    Mpc.fuse_rounds (Table.ctx db.G.m_diagnosis)
      [|
        (fun () -> D.aggregate db.G.m_diagnosis ~keys:[ "pid" ] ~aggs:[ cnt "diag" "cd" ]);
        (fun () -> D.aggregate db.G.m_medication ~keys:[ "pid" ] ~aggs:[ cnt "med" "cm" ]);
        (fun () -> D.aggregate db.G.m_labs ~keys:[ "pid" ] ~aggs:[ cnt "test" "cl" ]);
      |]
  in
  let cd = r.(0) and cm = r.(1) and cl = r.(2) in
  let j =
    D.inner_join
      (select cd [ ("pid", "pid"); ("cd", "cd") ])
      (select cm [ ("pid", "pid"); ("cm", "cm") ])
      ~on:[ "pid" ] ~copy:[ "cd" ]
  in
  let j2 =
    D.inner_join
      (select j [ ("pid", "pid"); ("cd", "cd"); ("cm", "cm") ])
      (select cl [ ("pid", "pid"); ("cl", "cl") ])
      ~on:[ "pid" ]
      ~copy:[ "cd"; "cm" ]
  in
  let j2 = D.map j2 ~dst:"mult" E.(col "cd" *! col "cm" *! col "cl") in
  D.global_aggregate j2 ~aggs:[ sum "mult" "join_size" ]

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

let all : query list =
  [
    { Query.name = "Comorbidity"; run = comorbidity_run; reference = comorbidity_ref;
      compare_cols = [ "diag"; "cnt" ] };
    { Query.name = "Aspirin"; run = aspirin_run; reference = aspirin_ref;
      compare_cols = [ "patients" ] };
    { Query.name = "C.Diff"; run = cdiff_run; reference = cdiff_ref;
      compare_cols = [ "patients" ] };
    { Query.name = "Password"; run = password_run; reference = password_ref;
      compare_cols = [ "reusers" ] };
    { Query.name = "Credit"; run = credit_run; reference = credit_ref;
      compare_cols = [ "persons" ] };
    { Query.name = "SecQ2"; run = secq2_run; reference = secq2_ref;
      compare_cols = [ "att"; "total" ] };
    { Query.name = "MarketShare"; run = market_share_run; reference = market_share_ref;
      compare_cols = [ "company"; "share_pct" ] };
    { Query.name = "SYan"; run = syan_run; reference = syan_ref;
      compare_cols = [ "class"; "total" ] };
    { Query.name = "Patients"; run = patients_run; reference = patients_ref;
      compare_cols = [ "join_size" ] };
  ]

let find name = Query.find all name
