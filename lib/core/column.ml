(** Table columns: a secret-shared vector plus its public domain, from
    which its logical bit width and signedness follow.

    Columns are stored boolean-encoded by default — filters, sorts, joins
    and distinct are all comparison-shaped — and converted to arithmetic
    sharing on demand (sums, products, averages), mirroring §2.3's dual
    representation with on-the-fly conversion. A [signed] column holds
    two's-complement values at its width (e.g. a profit computed by
    subtraction); conversions and comparisons respect the flag. The
    domain ({!Dom}) bounds every valid row; the width is read off it, so
    no column is wider than its public data needs.

    The payload is one {!Share.chunked}: either a whole vector as a single
    untracked chunk, or ("parked") chunks owned by the budget-managed
    {!Orq_util.Chunkvec} store, evictable to disk. {!data} materializes a
    parked column and caches the result as an untracked chunk. *)

open Orq_proto

type t = {
  mutable payload : Share.chunked;
  dom : Dom.t;
  width : int;
  signed : bool;
}

let length c = Share.chunked_length c.payload
let enc c = Share.chunked_enc c.payload

let of_chunked ~dom ck : t =
  { payload = ck; dom; width = Dom.width dom; signed = Dom.signed dom }

let of_shared ~dom data : t = of_chunked ~dom (Share.wrap data)

(** Share plaintext values as a [width]-bit column. Raises
    [Invalid_argument] naming the first value with a bit at or above
    [width]: every column the engine holds fits its declared width, which
    is what lets the shuffle stack move it at that width. *)
let of_plaintext (ctx : Ctx.t) ~width (values : int array) : t =
  Array.iter
    (fun v ->
      if width < Orq_util.Ring.word_bits && v lsr width <> 0 then
        invalid_arg
          (Printf.sprintf "Column.of_plaintext: value %d does not fit width %d"
             v width))
    values;
  of_shared ~dom:(Dom.of_width width) (Share.share ctx Bool values)

let with_dom c dom = of_chunked ~dom c.payload

(** The whole sharing: materializes a parked column (caching the result,
    so repeated access pays the faults once). *)
let data c =
  let s = Share.unpark c.payload in
  if Share.chunked_tracked c.payload then c.payload <- Share.wrap s;
  s

(** Functional payload replacement, preserving the domain. *)
let with_data c s = { c with payload = Share.wrap s }

let with_chunked c ck = { c with payload = ck }

let chunked c = c.payload

(** Move a whole payload into budget-managed (evictable) chunks in place. *)
let park c =
  if not (Share.chunked_tracked c.payload) then
    c.payload <- Share.park (Share.unpark c.payload)

(** Boolean view of a column (identity for boolean-encoded columns). *)
let as_bool (ctx : Ctx.t) (c : t) : Share.shared =
  match enc c with
  | Bool -> data c
  | Arith -> Orq_circuits.Convert.a2b ~w:c.width ctx (data c)

(** Arithmetic view of a column, honouring its signedness. *)
let as_arith (ctx : Ctx.t) (c : t) : Share.shared =
  match enc c with
  | Arith -> data c
  | Bool -> Orq_circuits.Convert.b2a ~w:c.width ~signed:c.signed ctx (data c)

let reconstruct c = Share.reconstruct_c c.payload
let sub_range c pos len =
  { c with payload = Share.sub_range_c c.payload pos len }

(* Appending parked columns reuses aligned chunks (refcounted) instead of
   copying, keeping incremental table building linear. *)
let append a b = { a with payload = Share.append_c a.payload b.payload }
