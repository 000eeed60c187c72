(** Table columns: a secret-shared vector plus its public domain
    ({!Dom}), from which its logical bit width and signedness follow. Stored boolean-encoded by default (filters, sorts, joins
    and distinct are comparison-shaped), converted to arithmetic sharing
    on demand, mirroring §2.3's dual representation. A [signed] column
    holds two's-complement values at its width.

    The payload is one {!Share.chunked}: a whole vector as a single
    untracked chunk, or, once parked, budget-managed
    {!Orq_util.Chunkvec} chunks evictable to disk. {!data} materializes
    the whole vector; chunk-aware operators take {!chunked}. *)

open Orq_proto

type t = private {
  mutable payload : Share.chunked;
  dom : Dom.t;  (** bounds every valid row *)
  width : int;  (** [Dom.width dom] *)
  signed : bool;  (** [Dom.signed dom] *)
}

val length : t -> int
val enc : t -> Share.enc
val of_plaintext : Ctx.t -> width:int -> int array -> t
(** Share plaintext values as a [width]-bit boolean column; raises
    [Invalid_argument] naming the value and the width if a value has a
    bit at or above [width]. *)

val of_shared : dom:Dom.t -> Share.shared -> t
val of_chunked : dom:Dom.t -> Share.chunked -> t

val with_dom : t -> Dom.t -> t
(** The same payload under another domain. *)

val data : t -> Share.shared
(** The whole sharing; a parked payload is materialized once and cached
    as an untracked chunk. *)

val with_data : t -> Share.shared -> t
(** Payload replacement preserving the domain. *)

val with_chunked : t -> Share.chunked -> t

val chunked : t -> Share.chunked
(** The payload, for chunk-aware operators. *)

val park : t -> unit
(** Move a whole payload into budget-managed chunks in place. *)

val as_bool : Ctx.t -> t -> Share.shared
(** Boolean view (identity for boolean-encoded columns). *)

val as_arith : Ctx.t -> t -> Share.shared
(** Arithmetic view, honouring the column's signedness. *)

val reconstruct : t -> Orq_util.Vec.t
val sub_range : t -> int -> int -> t
val append : t -> t -> t
