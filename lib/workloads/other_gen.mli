(** Synthetic datasets for the nine queries from prior relational-MPC
    works (§5.1): medical studies, credit scoring, password reuse, market
    share, and the Secure Yannakakis example — the paper's shapes scaled
    down deterministically, integer-encoded. *)

module P = Orq_plaintext.Ptable

val diag_hd : int
(** Diagnosis code for heart disease (Aspirin). *)

val diag_cdiff : int
val med_aspirin : int

type plain = {
  diagnosis : P.t;  (** (pid, diag, dtime) *)
  medication : P.t;  (** (pid, med, mtime) *)
  labs : P.t;  (** (pid, test, ltime) *)
  cohort : P.t;  (** (pid) — study cohort membership *)
  passwords : P.t;  (** (uid, site, pwd) *)
  credit : P.t;  (** (cid, agency, score) *)
  r_att : P.t;  (** SecQ2 R(id, att) *)
  s_val : P.t;  (** SecQ2 S(id, val) *)
  transactions : P.t;  (** MarketShare (company, price) *)
  yr : P.t;  (** SYan R(person, coins) — unique person *)
  ys : P.t;  (** SYan S(person, disease, cost) *)
  yt : P.t;  (** SYan T(disease, class) — unique disease *)
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

val generate : ?seed:int -> int -> plain
(** [generate n]: about [n] rows in each primary table. *)

val share : Orq_proto.Ctx.t -> plain -> mpc
(** Secret-share every dataset under its schema of public column domains
    (identifiers bounded by the public counts they range over).
    @raise Invalid_argument naming the table, column, value and domain of
    a value outside its column's domain. *)

val map_plain : (Ingress.schema -> P.t -> P.t) -> plain -> plain
(** [map_plain f db] replaces every table [t] by [f schema t], [schema]
    being the (column, domain) list {!share} shares [t] under. *)

val catalog : mpc -> string -> Orq_core.Table.t * string list list
(** Planner catalog: table name -> (shared table, candidate keys), like
    {!Tpch_gen.catalog}; [cohort], [r], [yr] and [yt] are unique on their
    first column. @raise Not_found for unknown tables. *)
