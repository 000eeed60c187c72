(** Secret-shared vectors.

    A [shared] value is a column of [n] secrets held jointly by the
    computing parties. Following §2.3, ORQ uses two encodings over the ring
    Z_2^ell:

    - [Arith]: the secret is the modular *sum* of the share vectors;
    - [Bool]: the secret is the bitwise *xor* of the share vectors.

    The lockstep simulation stores all share vectors side by side
    ([v.(k).(i)] is element [i] of share vector [k]); each protocol defines
    which party holds which vectors, and the {!Mpc} primitives only ever
    combine vectors in ways the owning parties could. Sharing and
    reconstruction here are the data-owner/analyst endpoints and are
    unmetered (they happen outside the computing-party protocol). *)

open Orq_util

type enc = Arith | Bool

let enc_label = function Arith -> "A" | Bool -> "B"

type shared = { enc : enc; v : Vec.t array }

let length s = Vec.length s.v.(0)
let nvec s = Array.length s.v

let check_same_len a b =
  if length a <> length b then
    invalid_arg
      (Printf.sprintf "shared length mismatch: %d vs %d" (length a) (length b))

let check_enc e s =
  if s.enc <> e then
    invalid_arg
      (Printf.sprintf "expected %s-shared value, got %s" (enc_label e)
         (enc_label s.enc))

(** Secret-share a plaintext vector: [nvec - 1] uniform masks plus a
    correction vector. Individually each vector is uniform over the ring. *)
let share (ctx : Ctx.t) enc (x : Vec.t) =
  let n = Vec.length x in
  let v = Array.init ctx.nvec (fun _ -> Vec.zeros n) in
  let arith = enc = Arith in
  for i = 0 to n - 1 do
    let acc = ref 0 in
    for k = 1 to ctx.nvec - 1 do
      let r = Prg.word ctx.prg in
      v.(k).(i) <- r;
      acc := if arith then !acc + r else !acc lxor r
    done;
    v.(0).(i) <- (if arith then x.(i) - !acc else x.(i) lxor !acc)
  done;
  { enc; v }

(** Reconstruct the plaintext (test/analyst-side; no protocol communication
    is implied — for the metered in-protocol opening see {!Mpc.open_}). *)
let reconstruct (s : shared) : Vec.t =
  let n = length s in
  let out = Array.make n 0 in
  (match s.enc with
  | Arith ->
      Array.iter (fun vk -> Vec.add_into out vk) s.v
  | Bool -> Array.iter (fun vk -> Vec.xor_into out vk) s.v);
  out

(** A sharing of the all-[c] constant vector with no randomness; used for
    public values entering the computation (the paper's [publicShare]). *)
let public (ctx : Ctx.t) enc n (c : int) =
  let v = Array.init ctx.nvec (fun k -> Vec.make n (if k = 0 then c else 0)) in
  { enc; v }

let public_vec (ctx : Ctx.t) enc (x : Vec.t) =
  let n = Vec.length x in
  let v =
    Array.init ctx.nvec (fun k -> if k = 0 then Vec.copy x else Vec.zeros n)
  in
  { enc; v }

let map_vectors f s = { s with v = Array.map f s.v }

let map2_vectors f a b =
  check_same_len a b;
  { enc = a.enc; v = Array.init (nvec a) (fun k -> f a.v.(k) b.v.(k)) }

let map3_vectors f a b c =
  check_same_len a b;
  check_same_len a c;
  { enc = a.enc; v = Array.init (nvec a) (fun k -> f a.v.(k) b.v.(k) c.v.(k)) }

(** Concatenate two shared vectors of the same encoding (used to batch
    independent secure operations into a single round). *)
let append a b =
  if a.enc <> b.enc then invalid_arg "Share.append: encoding mismatch";
  { enc = a.enc; v = Array.init (nvec a) (fun k -> Vec.concat2 a.v.(k) b.v.(k)) }

(** n-way concatenation: one offset-table pass per share vector
    ({!Orq_util.Vec.concat_many}) instead of the O(k^2) repeated-append
    chain — the packing step of cross-lane round fusion. *)
let concat_many (ss : shared array) : shared =
  match Array.length ss with
  | 0 -> invalid_arg "Share.concat_many: empty"
  | 1 -> ss.(0)
  | _ ->
      let e = ss.(0).enc in
      Array.iter
        (fun s ->
          if s.enc <> e then invalid_arg "Share.concat_many: encoding mismatch")
        ss;
      {
        enc = e;
        v =
          Array.init (nvec ss.(0)) (fun k ->
              Vec.concat_many (Array.map (fun s -> s.v.(k)) ss));
      }

let concat = function
  | [] -> invalid_arg "Share.concat: empty"
  | ss -> concat_many (Array.of_list ss)

(** Inverse of {!concat_many}: split back into pieces of the given lengths
    (which must sum to the input length). *)
let split_many (s : shared) (ns : int array) : shared array =
  let total = Array.fold_left ( + ) 0 ns in
  if total <> length s then
    invalid_arg
      (Printf.sprintf "Share.split_many: lengths sum to %d, sharing has %d"
         total (length s));
  let off = ref 0 in
  Array.map
    (fun n ->
      let pos = !off in
      off := !off + n;
      { s with v = Array.map (fun vk -> Vec.sub_range vk pos n) s.v })
    ns

let split2 s n =
  ( { s with v = Array.map (fun vk -> Array.sub vk 0 n) s.v },
    { s with v = Array.map (fun vk -> Array.sub vk n (Vec.length vk - n)) s.v } )

let sub_range s pos len =
  { s with v = Array.map (fun vk -> Array.sub vk pos len) s.v }

(** Gather rows by public indices (a local operation: all parties know the
    index map, as after an opened shuffle-comparison). *)
let gather s idx = { s with v = Array.map (fun vk -> Vec.gather vk idx) s.v }

(* ------------------------------------------------------------------ *)
(* Packed single-bit sharings (flag lanes)                             *)
(* ------------------------------------------------------------------ *)

type flags = { fv : Bits.t array }

let flags_length f = Bits.length f.fv.(0)
let flags_nvec f = Array.length f.fv

let check_same_flags_len a b =
  if flags_length a <> flags_length b then
    invalid_arg
      (Printf.sprintf "flags length mismatch: %d vs %d" (flags_length a)
         (flags_length b))

(** Pack a boolean sharing of single-bit values (flags in the LSB) into
    packed lanes. The key observation: xor is bitwise, so the LSB plane of
    the share vectors is by itself a valid GF(2) sharing of the flag
    bits — each lane packs independently, no communication, no resharing.
    Bits above the LSB are dropped; callers assert the values are
    single-bit (every flag producer in the engine masks to bit 0). *)
let pack_flags (s : shared) : flags =
  check_enc Bool s;
  { fv = Array.map Bits.pack s.v }

(** Inverse of {!pack_flags}: a boolean sharing holding 0/1 words. *)
let unpack_flags (f : flags) : shared =
  { enc = Bool; v = Array.map Bits.unpack f.fv }

(** Unpack each lane straight to mux masks (LSB replicated across the
    word): replication is GF(2)-linear, so extending per lane extends the
    secret. *)
let extend_flags (f : flags) : shared =
  { enc = Bool; v = Array.map Bits.extend f.fv }

let reconstruct_flags (f : flags) : Bits.t =
  let acc = Bits.copy f.fv.(0) in
  for k = 1 to Array.length f.fv - 1 do
    Bits.xor_into acc f.fv.(k)
  done;
  acc

(** Secret-share a packed bit vector: {!share} over its words, each lane
    re-masked to canonical form (the xor of the masked tails is the input's
    zero tail, so the lanes still xor to [x]). *)
let share_flags (ctx : Ctx.t) (x : Bits.t) : flags =
  let n = Bits.length x in
  { fv = Array.map (Bits.of_words n) (share ctx Bool (Bits.words x)).v }

let flags_concat_many (fs : flags array) : flags =
  match Array.length fs with
  | 0 -> invalid_arg "Share.flags_concat_many: empty"
  | 1 -> fs.(0)
  | _ ->
      {
        fv =
          Array.init (flags_nvec fs.(0)) (fun k ->
              Bits.concat_many (Array.map (fun f -> f.fv.(k)) fs));
      }

(** [update_rows dst idx src] returns [dst] with row [idx.(t)] replaced by
    row [t] of [src] (a local rearrangement under public indices, as used by
    sorting-network compare-exchange writebacks). *)
let update_rows (dst : shared) (idx : int array) (src : shared) : shared =
  let v =
    Array.mapi
      (fun k vk ->
        let o = Array.copy vk in
        Array.iteri (fun t i -> o.(i) <- src.v.(k).(t)) idx;
        o)
      dst.v
  in
  { dst with v }

(* ------------------------------------------------------------------ *)
(* Chunked sharings: whole vectors as one untracked chunk, or tracked  *)
(* ------------------------------------------------------------------ *)

type chunked = { cenc : enc; cn : int; cv : Chunkvec.t array }

let chunked_length c = c.cn
let chunked_enc c = c.cenc
let chunked_nvec c = Array.length c.cv
let chunked_nchunks c = if c.cn = 0 then 0 else Chunkvec.nchunks c.cv.(0)
let chunked_tracked c = c.cn > 0 && Chunkvec.tracked c.cv.(0)
let chunked_chunk_base c i = Chunkvec.chunk_base c.cv.(0) i

let check_enc_c e c =
  if c.cenc <> e then
    invalid_arg
      (Printf.sprintf "expected %s-shared value, got %s" (enc_label e)
         (enc_label c.cenc))

(** Wrap a whole sharing as one untracked chunk — no copy, no store
    accounting. A wrapped sharing visits every chunk-aware kernel exactly
    once, so a whole vector is just the one-chunk case of every operator
    (same values, PRG draw order and metered traffic). *)
let wrap (s : shared) : chunked =
  { cenc = s.enc; cn = length s; cv = Array.map Chunkvec.alias s.v }

(** Copy a whole sharing into budget-managed chunks. *)
let park (s : shared) : chunked =
  { cenc = s.enc; cn = length s; cv = Array.map Chunkvec.of_array s.v }

(** Materialize a chunked sharing as whole vectors (zero-copy for an
    untracked vector, e.g. a {!wrap} round trip). *)
let unpark (c : chunked) : shared =
  { enc = c.cenc; v = Array.map Chunkvec.to_array c.cv }

(** Pinned access to chunk [i] as an ordinary [shared] (the callback must
    treat it as read-only; every protocol kernel allocates its output). *)
let with_chunk_c (c : chunked) i (f : shared -> 'a) : 'a =
  let nv = Array.length c.cv in
  let rec go k acc =
    if k = nv then f { enc = c.cenc; v = Array.of_list (List.rev acc) }
    else Chunkvec.with_chunk c.cv.(k) i (fun a -> go (k + 1) (a :: acc))
  in
  go 0 []

(* The one chunk-building loop: [f pos len] returns a fresh sharing of
   rows [pos, pos + len) whose vectors become the chunk payloads, produced
   in order and evictable as soon as pushed. An untracked build is a
   single chunk. *)
let build ~rows ~tracked ~nvec enc n (f : int -> int -> shared) : chunked =
  let builders =
    Array.init nvec (fun _ -> Chunkvec.Builder.create ~rows ~tracked n)
  in
  let step = if tracked then rows else max 1 n in
  let enc_ref = ref enc in
  let pos = ref 0 in
  while !pos < n do
    let l = min step (n - !pos) in
    let s = f !pos l in
    if length s <> l then invalid_arg "Share.build: chunk length";
    enc_ref := s.enc;
    Array.iteri (fun k vk -> Chunkvec.Builder.push builders.(k) vk) s.v;
    pos := !pos + l
  done;
  { cenc = !enc_ref; cn = n; cv = Array.map Chunkvec.Builder.finish builders }

(** Chunkwise local map (e.g. a public xor), keeping [c]'s length, chunk
    granularity and tracking: [f] must preserve length and must not
    communicate. Chunks become evictable as they are produced. *)
let map_chunks (f : shared -> shared) (c : chunked) : chunked =
  let rows = if c.cn = 0 then 1 else Chunkvec.rows_of c.cv.(0) in
  build ~rows ~tracked:(chunked_tracked c) ~nvec:(chunked_nvec c) c.cenc c.cn
    (fun pos _ -> with_chunk_c c (pos / rows) f)

(** Secret-share a stream of plaintext slices ([get pos len]) into
    [ORQ_CHUNK_ROWS]-row budget-managed chunks, or into one untracked
    chunk when [tracked] is false. Sharing draws are element-major, so the
    shares are byte-identical to sharing the whole vector at once. *)
let share_chunked (ctx : Ctx.t) enc ~tracked ~n (get : int -> int -> Vec.t) :
    chunked =
  build ~rows:(Chunkvec.chunk_rows ()) ~tracked ~nvec:ctx.Ctx.nvec enc n
    (fun pos len -> share ctx enc (get pos len))

let append_c (a : chunked) (b : chunked) : chunked =
  if a.cenc <> b.cenc then invalid_arg "Share.append_c: encoding mismatch";
  {
    cenc = a.cenc;
    cn = a.cn + b.cn;
    cv = Array.init (Array.length a.cv) (fun k -> Chunkvec.append a.cv.(k) b.cv.(k));
  }

let sub_range_c (c : chunked) pos len : chunked =
  { c with cn = len; cv = Array.map (fun v -> Chunkvec.sub v pos len) c.cv }

let gather_c (c : chunked) (idx : int array) : chunked =
  {
    c with
    cn = Array.length idx;
    cv = Array.map (fun v -> Chunkvec.gather v idx) c.cv;
  }

let scatter_c (c : chunked) (idx : int array) : chunked =
  { c with cv = Array.map (fun v -> Chunkvec.scatter v idx) c.cv }

(** Deterministically release a chunked intermediate's store bytes and
    disk slots (the GC finalizer would get there eventually; hot loops
    should not wait for it). *)
let dispose_c (c : chunked) = Array.iter Chunkvec.dispose c.cv

let reconstruct_c (c : chunked) : Vec.t =
  let out = Array.make c.cn 0 in
  for i = 0 to chunked_nchunks c - 1 do
    with_chunk_c c i (fun s ->
        Array.blit (reconstruct s) 0 out (chunked_chunk_base c i) (length s))
  done;
  out
