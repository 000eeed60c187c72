(** Secret-shared vectors (§2.3).

    A [shared] value is a column of [n] secrets held jointly by the
    computing parties, in one of two encodings over Z_2^63:
    [Arith] — the secret is the modular sum of the share vectors;
    [Bool] — the bitwise xor.

    The lockstep simulation stores all share vectors side by side
    ([v.(k).(i)] is element [i] of share vector [k]); each protocol defines
    which party holds which vectors, and {!Mpc} only combines vectors in
    ways the owning parties could. Sharing and reconstruction here are the
    data-owner/analyst endpoints (unmetered). *)

type enc = Arith | Bool

type shared = { enc : enc; v : Orq_util.Vec.t array }

val length : shared -> int
val check_same_len : shared -> shared -> unit
val check_enc : enc -> shared -> unit

val share : Ctx.t -> enc -> Orq_util.Vec.t -> shared
(** Secret-share a plaintext vector: [nvec - 1] uniform masks plus a
    correction vector; each vector alone is uniform over the ring. *)

val reconstruct : shared -> Orq_util.Vec.t
(** Reconstruct the plaintext (test/analyst-side; for the metered
    in-protocol opening see {!Mpc.open_}). *)

val public : Ctx.t -> enc -> int -> int -> shared
(** A sharing of the all-[c] constant vector (the paper's [publicShare]). *)

val public_vec : Ctx.t -> enc -> Orq_util.Vec.t -> shared

val map_vectors : (Orq_util.Vec.t -> Orq_util.Vec.t) -> shared -> shared
val map2_vectors :
  (Orq_util.Vec.t -> Orq_util.Vec.t -> Orq_util.Vec.t) ->
  shared -> shared -> shared

val map3_vectors :
  (Orq_util.Vec.t -> Orq_util.Vec.t -> Orq_util.Vec.t -> Orq_util.Vec.t) ->
  shared -> shared -> shared -> shared
(** Combine three sharings per share vector — used to drive fused kernels
    such as {!Orq_util.Vec.xor3} and {!Orq_util.Vec.add_sub}. *)

val append : shared -> shared -> shared
(** Concatenate two shared vectors of the same encoding (used to batch
    independent secure operations into a single round). *)

val concat : shared list -> shared

val concat_many : shared array -> shared
(** n-way concatenation in one offset-table pass per share vector — the
    packing step of cross-lane round fusion. *)

val split_many : shared -> int array -> shared array
(** Inverse of {!concat_many}: pieces of the given lengths (must sum to
    the input length). *)

val split2 : shared -> int -> shared * shared
val sub_range : shared -> int -> int -> shared

val gather : shared -> int array -> shared
(** Gather rows by public indices — local, e.g. after an opened
    shuffled comparison. *)

val update_rows : shared -> int array -> shared -> shared
(** [update_rows dst idx src]: [dst] with row [idx.(t)] replaced by row
    [t] of [src] (local rearrangement under public indices). *)

(** {2 Packed single-bit sharings (flag lanes)}

    A [flags] value is a boolean sharing of single-bit secrets stored one
    flag per *bit* ({!Orq_util.Bits}, 63 flags per word) instead of one
    per word. Because xor is bitwise, the LSB plane of a boolean sharing's
    vectors is itself a valid GF(2) sharing of the flags, so each lane
    packs and unpacks locally. The {!Mpc} flag primitives operate on this
    form directly, drawing their randomness per packed word. *)

type flags = { fv : Orq_util.Bits.t array }

val flags_length : flags -> int
val flags_nvec : flags -> int
val check_same_flags_len : flags -> flags -> unit

val pack_flags : shared -> flags
(** Pack a boolean sharing of LSB flags (bits above the LSB are dropped;
    callers assert single-bit values). Local, per lane. *)

val unpack_flags : flags -> shared
(** Boolean sharing holding 0/1 words. *)

val extend_flags : flags -> shared
(** Each lane's flags extended to 0 / all-ones mux masks (replication is
    GF(2)-linear, so this extends the secret). *)

val reconstruct_flags : flags -> Orq_util.Bits.t

val share_flags : Ctx.t -> Orq_util.Bits.t -> flags
(** Secret-share a packed bit vector: {!share} [Bool] over its packed
    words (one mask draw per word, not per flag), each lane re-masked to
    canonical form. *)

val flags_concat_many : flags array -> flags

(** {2 Chunked sharings}

    A [chunked] value stores each share vector as an {!Orq_util.Chunkvec}.
    It is the one representation the shuffle/sort stack and table columns
    operate on. Two kinds exist:

    - {e untracked}: a whole vector as one chunk, outside the store's
      accounting. {!wrap} makes one from a [shared] with no copy, and
      {!unpark} turns it back with no copy;
    - {e tracked}: fixed-size chunks owned by the process-wide
      budget-managed store, spilled to disk under memory pressure
      ({!park}, {!share_chunked}).

    Every chunk-aware operator visits a whole vector's single chunk
    exactly once, so a wrapped vector gives the same values, PRG draw
    order and metered traffic as a [shared] one. *)

type chunked = { cenc : enc; cn : int; cv : Orq_util.Chunkvec.t array }

val chunked_length : chunked -> int
val chunked_enc : chunked -> enc
val chunked_nchunks : chunked -> int
val chunked_tracked : chunked -> bool
val check_enc_c : enc -> chunked -> unit

val wrap : shared -> chunked
(** One untracked chunk, no copy. *)

val park : shared -> chunked
(** Copy into budget-managed (evictable) chunks. *)

val unpark : chunked -> shared
(** Materialize whole vectors (zero-copy for an untracked vector). *)

val with_chunk_c : chunked -> int -> (shared -> 'a) -> 'a
(** Pinned read-only access to one chunk as an ordinary [shared]. *)

val map_chunks : (shared -> shared) -> chunked -> chunked
(** Chunkwise local map ([f] must preserve length and not communicate). *)

val share_chunked :
  Ctx.t -> enc -> tracked:bool -> n:int -> (int -> int -> Orq_util.Vec.t) ->
  chunked
(** Secret-share a plaintext slice stream [get pos len]: into tracked
    [ORQ_CHUNK_ROWS]-row chunks, or into one untracked chunk. Draws are
    element-major, so the shares are byte-identical to {!share} on the
    whole vector. *)

val append_c : chunked -> chunked -> chunked
(** Chunk-reusing concatenation: aligned input chunks are shared, not
    copied (see {!Orq_util.Chunkvec.append}). *)

val sub_range_c : chunked -> int -> int -> chunked
val gather_c : chunked -> int array -> chunked
val scatter_c : chunked -> int array -> chunked

val dispose_c : chunked -> unit
(** Deterministically release store bytes and disk slots of an
    intermediate (ahead of the GC finalizer). *)

val reconstruct_c : chunked -> Orq_util.Vec.t
