(** Synthetic datasets for the nine queries the paper collects from prior
    relational-MPC works (§5.1): medical studies (Aspirin, Comorbidity,
    C.Diff, Patients from Secrecy / Conclave / Senate / Shrinkwrap),
    credit scoring, password reuse, market share, and the Secure Yannakakis
    example. The paper sizes these at ~5M rows per scale factor; we scale
    the same shapes down deterministically. Values are small integer enums
    (diagnosis codes, medication codes, password hashes, ...). *)

open Orq_util
module P = Orq_plaintext.Ptable

let w_id = 20
let w_code = 10
let w_time = 12
let w_score = 10
let w_price = 20

(* disease/medication codes with fixed meanings for the queries *)
let diag_hd = 1 (* heart disease *)
let diag_cdiff = 2
let med_aspirin = 1

type plain = {
  diagnosis : P.t;  (** (pid, diag, dtime) *)
  medication : P.t;  (** (pid, med, mtime) *)
  labs : P.t;  (** (pid, test, ltime) *)
  cohort : P.t;  (** (pid) — study cohort membership *)
  passwords : P.t;  (** (uid, site, pwd) *)
  credit : P.t;  (** (cid, agency, score) *)
  r_att : P.t;  (** SecQ2 R(id, att) *)
  s_val : P.t;  (** SecQ2 S(id, val) *)
  transactions : P.t;  (** MarketShare (company, price), two owners merged *)
  yr : P.t;  (** SYan R(person, coins) — unique person *)
  ys : P.t;  (** SYan S(person, disease, cost) *)
  yt : P.t;  (** SYan T(disease, class) — unique disease *)
}

(** Generate all datasets with about [n] rows in each primary table. *)
let generate ?(seed = 7) (n : int) : plain =
  let prg = Prg.create seed in
  let r m bound = Array.init m (fun _ -> Prg.int_below prg bound) in
  let npat = max 4 (n / 4) in
  let diagnosis =
    P.of_cols
      [
        ("pid", Array.map (fun x -> x + 1) (r n npat));
        ("diag", Array.map (fun x -> x + 1) (r n 8));
        ("dtime", r n 3000);
      ]
  in
  let medication =
    P.of_cols
      [
        ("pid", Array.map (fun x -> x + 1) (r n npat));
        ("med", Array.map (fun x -> x + 1) (r n 6));
        ("mtime", r n 3000);
      ]
  in
  let labs =
    P.of_cols
      [
        ("pid", Array.map (fun x -> x + 1) (r n npat));
        ("test", Array.map (fun x -> x + 1) (r n 5));
        ("ltime", r n 3000);
      ]
  in
  let ncoh = max 2 (npat / 3) in
  let cohort_ids = Array.sub (Orq_shuffle.Localperm.random prg npat) 0 ncoh in
  let cohort = P.of_cols [ ("pid", Array.map (fun x -> x + 1) cohort_ids) ] in
  let passwords =
    P.of_cols
      [
        ("uid", Array.map (fun x -> x + 1) (r n (max 2 (n / 5))));
        ("site", Array.map (fun x -> x + 1) (r n 10));
        ("pwd", Array.map (fun x -> x + 1) (r n 12));
      ]
  in
  let ncred = max 4 (n / 2) in
  let credit =
    P.of_cols
      [
        ("cid", Array.init ncred (fun i -> (i / 2) + 1));
        ("agency", Array.init ncred (fun i -> (i mod 2) + 1));
        ("score", Array.map (fun x -> 300 + x) (r ncred 550));
      ]
  in
  let nr = max 2 (n / 3) in
  let r_att =
    P.of_cols
      [
        ("id", Array.init nr (fun i -> i + 1));
        ("att", Array.map (fun x -> x + 1) (r nr 6));
      ]
  in
  let s_val =
    P.of_cols
      [
        ("id", Array.map (fun x -> x + 1) (r n nr));
        ("val", r n 1000);
      ]
  in
  let transactions =
    P.of_cols
      [
        ("company", Array.map (fun x -> x + 1) (r n 12));
        ("price", Array.map (fun x -> x + 1) (r n 10_000));
      ]
  in
  let nper = max 2 (n / 5) and ndis = 10 in
  let yr =
    P.of_cols
      [
        ("person", Array.init nper (fun i -> i + 1));
        ("coins", r nper 100);
      ]
  in
  let ys =
    P.of_cols
      [
        ("person", Array.map (fun x -> x + 1) (r n nper));
        ("disease", Array.map (fun x -> x + 1) (r n ndis));
        ("cost", r n 5000);
      ]
  in
  let yt =
    P.of_cols
      [
        ("disease", Array.init ndis (fun i -> i + 1));
        ("class", Array.map (fun x -> x + 1) (r ndis 3));
      ]
  in
  {
    diagnosis;
    medication;
    labs;
    cohort;
    passwords;
    credit;
    r_att;
    s_val;
    transactions;
    yr;
    ys;
    yt;
  }

let share_table (ctx : Orq_proto.Ctx.t) name (cols : (string * int) list)
    (p : P.t) : Orq_core.Table.t =
  Orq_core.Table.create ctx name
    (List.map
       (fun (cname, w) ->
         let get = P.get p cname in
         (cname, w, Array.of_list (List.map get p.P.rows)))
       cols)

type mpc = {
  m_diagnosis : Orq_core.Table.t;
  m_medication : Orq_core.Table.t;
  m_labs : Orq_core.Table.t;
  m_cohort : Orq_core.Table.t;
  m_passwords : Orq_core.Table.t;
  m_credit : Orq_core.Table.t;
  m_r_att : Orq_core.Table.t;
  m_s_val : Orq_core.Table.t;
  m_transactions : Orq_core.Table.t;
  m_yr : Orq_core.Table.t;
  m_ys : Orq_core.Table.t;
  m_yt : Orq_core.Table.t;
}

(* Per-table (column, width) schemas: what {!share} shares each table
   under. *)
let diagnosis_cols = [ ("pid", w_id); ("diag", w_code); ("dtime", w_time) ]
let medication_cols = [ ("pid", w_id); ("med", w_code); ("mtime", w_time) ]
let labs_cols = [ ("pid", w_id); ("test", w_code); ("ltime", w_time) ]
let cohort_cols = [ ("pid", w_id) ]
let passwords_cols = [ ("uid", w_id); ("site", w_code); ("pwd", w_code) ]
let credit_cols = [ ("cid", w_id); ("agency", 2); ("score", w_score) ]
let r_att_cols = [ ("id", w_id); ("att", w_code) ]
let s_val_cols = [ ("id", w_id); ("val", w_score) ]
let transactions_cols = [ ("company", w_code); ("price", w_price) ]
let yr_cols = [ ("person", w_id); ("coins", 7) ]
let ys_cols = [ ("person", w_id); ("disease", w_code); ("cost", 13) ]
let yt_cols = [ ("disease", w_code); ("class", 3) ]

let share (ctx : Orq_proto.Ctx.t) (db : plain) : mpc =
  {
    m_diagnosis = share_table ctx "diagnosis" diagnosis_cols db.diagnosis;
    m_medication = share_table ctx "medication" medication_cols db.medication;
    m_labs = share_table ctx "labs" labs_cols db.labs;
    m_cohort = share_table ctx "cohort" cohort_cols db.cohort;
    m_passwords = share_table ctx "passwords" passwords_cols db.passwords;
    m_credit = share_table ctx "credit" credit_cols db.credit;
    m_r_att = share_table ctx "r" r_att_cols db.r_att;
    m_s_val = share_table ctx "s" s_val_cols db.s_val;
    m_transactions =
      share_table ctx "transactions" transactions_cols db.transactions;
    m_yr = share_table ctx "yr" yr_cols db.yr;
    m_ys = share_table ctx "ys" ys_cols db.ys;
    m_yt = share_table ctx "yt" yt_cols db.yt;
  }

let map_plain f (db : plain) : plain =
  {
    diagnosis = f diagnosis_cols db.diagnosis;
    medication = f medication_cols db.medication;
    labs = f labs_cols db.labs;
    cohort = f cohort_cols db.cohort;
    passwords = f passwords_cols db.passwords;
    credit = f credit_cols db.credit;
    r_att = f r_att_cols db.r_att;
    s_val = f s_val_cols db.s_val;
    transactions = f transactions_cols db.transactions;
    yr = f yr_cols db.yr;
    ys = f ys_cols db.ys;
    yt = f yt_cols db.yt;
  }
