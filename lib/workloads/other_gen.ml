(** Synthetic datasets for the nine queries the paper collects from prior
    relational-MPC works (§5.1): medical studies (Aspirin, Comorbidity,
    C.Diff, Patients from Secrecy / Conclave / Senate / Shrinkwrap),
    credit scoring, password reuse, market share, and the Secure Yannakakis
    example. The paper sizes these at ~5M rows per scale factor; we scale
    the same shapes down deterministically. Values are small integer enums
    (diagnosis codes, medication codes, password hashes, ...). *)

open Orq_util
module P = Orq_plaintext.Ptable

module Dom = Orq_core.Dom

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

(** Each table's (column, public domain) schema, in sharing order: the
    generator's value ranges, with identifiers bounded by the public
    counts they range over — the patients, users and persons of a
    dataset of about [n] rows, and the cardinality of [credit] and [r]. *)
let schemas ~n ~ncred ~nr : (string * Ingress.schema) list =
  let d = Dom.v in
  let npat = max 4 (n / 4) and nper = max 2 (n / 5) in
  let pid = ("pid", d 1 npat) and time c = (c, d 0 2999) in
  [
    ("diagnosis", [ pid; ("diag", d 1 8); time "dtime" ]);
    ("medication", [ pid; ("med", d 1 6); time "mtime" ]);
    ("labs", [ pid; ("test", d 1 5); time "ltime" ]);
    ("cohort", [ pid ]);
    ("passwords", [ ("uid", d 1 (max 2 (n / 5))); ("site", d 1 10); ("pwd", d 1 12) ]);
    ( "credit",
      [ ("cid", d 1 (((ncred - 1) / 2) + 1)); ("agency", d 1 2); ("score", d 300 849) ] );
    ("r", [ ("id", d 1 nr); ("att", d 1 6) ]);
    ("s", [ ("id", d 1 nr); ("val", d 0 999) ]);
    ("transactions", [ ("company", d 1 12); ("price", d 1 10_000) ]);
    ("yr", [ ("person", d 1 nper); ("coins", d 0 99) ]);
    ("ys", [ ("person", d 1 nper); ("disease", d 1 10); ("cost", d 0 4999) ]);
    ("yt", [ ("disease", d 1 10); ("class", d 1 3) ]);
  ]

(* The schemas of a generated dataset: [n] is its diagnosis row count. *)
let schemas_of (db : plain) =
  schemas ~n:(P.nrows db.diagnosis) ~ncred:(P.nrows db.credit) ~nr:(P.nrows db.r_att)

(** Secret-share every dataset under its schema; a value outside its
    column's domain fails with an error naming the table, column, value
    and domain. *)
let share (ctx : Orq_proto.Ctx.t) (db : plain) : mpc =
  let sch = schemas_of db in
  let share_table name p = Ingress.share_table ctx name (List.assoc name sch) p in
  {
    m_diagnosis = share_table "diagnosis" db.diagnosis;
    m_medication = share_table "medication" db.medication;
    m_labs = share_table "labs" db.labs;
    m_cohort = share_table "cohort" db.cohort;
    m_passwords = share_table "passwords" db.passwords;
    m_credit = share_table "credit" db.credit;
    m_r_att = share_table "r" db.r_att;
    m_s_val = share_table "s" db.s_val;
    m_transactions = share_table "transactions" db.transactions;
    m_yr = share_table "yr" db.yr;
    m_ys = share_table "ys" db.ys;
    m_yt = share_table "yt" db.yt;
  }

(** [map_plain f db] replaces every table [t] by [f schema t], [schema]
    being the (column, domain) list {!share} shares [t] under. *)
let map_plain f (db : plain) : plain =
  let sch = schemas_of db in
  let f name = f (List.assoc name sch) in
  {
    diagnosis = f "diagnosis" db.diagnosis;
    medication = f "medication" db.medication;
    labs = f "labs" db.labs;
    cohort = f "cohort" db.cohort;
    passwords = f "passwords" db.passwords;
    credit = f "credit" db.credit;
    r_att = f "r" db.r_att;
    s_val = f "s" db.s_val;
    transactions = f "transactions" db.transactions;
    yr = f "yr" db.yr;
    ys = f "ys" db.ys;
    yt = f "yt" db.yt;
  }

(** Resolve the datasets' table names, with each table's declared
    candidate keys, like {!Tpch_gen.catalog}. Raises [Not_found] for
    unknown names. *)
let catalog (db : mpc) (name : string) : Orq_core.Table.t * string list list =
  match name with
  | "diagnosis" -> (db.m_diagnosis, [])
  | "medication" -> (db.m_medication, [])
  | "labs" -> (db.m_labs, [])
  | "cohort" -> (db.m_cohort, [ [ "pid" ] ])
  | "passwords" -> (db.m_passwords, [])
  | "credit" -> (db.m_credit, [])
  | "r" -> (db.m_r_att, [ [ "id" ] ])
  | "s" -> (db.m_s_val, [])
  | "transactions" -> (db.m_transactions, [])
  | "yr" -> (db.m_yr, [ [ "person" ] ])
  | "ys" -> (db.m_ys, [])
  | "yt" -> (db.m_yt, [ [ "disease" ] ])
  | _ -> raise Not_found
