(** Data-owner ingress: a plaintext table secret-shared under its schema
    of public column domains ({!Orq_core.Dom}). The sharing party checks
    every value against its column's domain as it reads it. *)

type schema = (string * Orq_core.Dom.t) list
(** Shared columns, in sharing order, each with its public domain. *)

val share_table :
  Orq_proto.Ctx.t -> string -> schema -> Orq_plaintext.Ptable.t -> Orq_core.Table.t
(** [share_table ctx name schema p] shares [p]'s schema columns, then its
    validity; each column is read once, in one pass over the rows that
    also checks the domains, and streams into the chunk store when
    streaming is on.
    @raise Invalid_argument naming the table, column, value and domain of
    the first value outside its column's domain, before anything is
    shared. *)
