(** LINQ-style linear-complexity oblivious join (PAPERS.md; DESIGN.md,
    "Cost-based physical planning").

    Where {!Joinagg} is sort-bound — O((n+m) log (n+m)) comparison ladders
    — this operator matches build and probe rows by opening keyed {e
    fingerprints} of the join keys after masking invalid rows with fresh
    randomness and routing each side through an independent random
    shuffle: O(n+m) secure work (a bit conversion, four multiplication
    lanes, two shuffles, one opening), then plaintext hash matching on the
    opened fingerprints.

    Declared leakage (registered in {!Declass}): the opened fingerprint
    multisets reveal the key-multiplicity histogram of each side's valid
    rows and the cross-side match structure — behind independent uniform
    shuffles and a per-query secret fingerprint key, exactly the LINQ
    leakage profile. {!Joincost} prices it; callers needing the
    zero-leakage operator keep {!Joinagg}.

    Contract mirrors {!Joinagg.join}'s inner/anti paths: the build (left)
    side has unique join keys among its valid rows; output is the probe
    (right) side's physical rows in a fresh shuffled order, schema
    [keys @ right-non-key @ copy], name ["left_join_right"]. *)

open Orq_proto

val join :
  Ctx.t ->
  [ `Inner | `Anti ] ->
  ?copy:string list ->
  left:Table.t ->
  right:Table.t ->
  on:string list ->
  unit ->
  Table.t
(** [`Inner]: probe rows valid iff valid and matched by a valid build row
    (which is then unique); [copy] names build columns gathered into the
    matching probe rows. [`Anti]: probe rows valid iff valid and
    unmatched ([copy] must be empty). Metered under the ["linjoin"]
    label. *)
