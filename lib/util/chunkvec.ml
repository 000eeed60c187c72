(** Out-of-core chunked ring-word vectors with a global memory budget.

    A [Chunkvec.t] stores a logical [int array] as fixed-size chunks owned
    by a process-wide store. Chunks belonging to *tracked* vectors are
    charged against [ORQ_MEM_BUDGET]; when the store goes over budget it
    spills the least-recently-used unpinned chunks to an unlinked tempfile
    and faults them back on access. Chunks are immutable once registered,
    so a spilled chunk keeps its disk slot forever and re-eviction is a
    free array drop. Structural sharing is explicit: [append]/[sub] reuse
    whole chunks of their inputs (refcounted) instead of copying, which is
    what makes incremental table building linear instead of quadratic.

    *Untracked* vectors ({!alias}) wrap an existing array as one chunk with
    no copy, no accounting, no lock and no spilling — a whole vector is
    just this one-chunk case of every chunk-aware operator: it visits
    every kernel exactly once, so values, PRG draw order and metered
    traffic are those of a plain array.

    Thread safety: all store bookkeeping (pin/unpin/register/evict/fault)
    holds one global mutex; chunk payloads are only read or written while
    pinned, and eviction skips pinned chunks, so concurrent query workers
    can share the store. *)

let word_bytes = 8

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

(** Parse "65536", "512K", "64M", "2G" (case-insensitive suffixes). *)
let parse_bytes s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then 0
  else
    let mult, digits =
      match s.[n - 1] with
      | 'k' | 'K' -> (1024, n - 1)
      | 'm' | 'M' -> (1024 * 1024, n - 1)
      | 'g' | 'G' -> (1024 * 1024 * 1024, n - 1)
      | _ -> (1, n)
    in
    match int_of_string_opt (String.sub s 0 digits) with
    | Some v when v >= 0 -> v * mult
    | _ -> invalid_arg (Printf.sprintf "Chunkvec: bad byte count %S" s)

let default_chunk_rows = 65_536

let env_chunk_rows = Sys.getenv_opt "ORQ_CHUNK_ROWS"
let env_budget = Sys.getenv_opt "ORQ_MEM_BUDGET"

let chunk_rows_ref =
  ref
    (match env_chunk_rows with
    | Some s when String.trim s <> "" -> max 1 (int_of_string (String.trim s))
    | _ -> default_chunk_rows)

(* 0 = unlimited *)
let budget_ref =
  ref (match env_budget with Some s -> parse_bytes s | None -> 0)

(* Streaming (chunked table columns, parking at operator boundaries) is
   opt-in: either env knob present, or a test/bench called a setter. When
   off, every vector is a single chunk and the engine behaves exactly as
   before this layer existed. *)
let streaming_ref = ref (env_chunk_rows <> None || env_budget <> None)

let chunk_rows () = !chunk_rows_ref
let budget () = !budget_ref
let streaming_enabled () = !streaming_ref
let set_streaming b = streaming_ref := b

let set_chunk_rows r =
  if r < 1 then invalid_arg "Chunkvec.set_chunk_rows";
  chunk_rows_ref := r;
  streaming_ref := true

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type chunk = {
  id : int;
  clen : int;
  tracked : bool;
  mutable data : int array option;  (** [None] = spilled to disk *)
  mutable slot : int;  (** byte offset of the disk copy; -1 = none *)
  mutable pins : int;
  mutable tick : int;
  mutable refs : int;  (** structural-sharing count across vectors *)
  mutable dead : bool;
}

type t = {
  n : int;
  rows : int;  (** chunk capacity; every interior chunk has this length *)
  vtracked : bool;
  chunks : chunk array;
  mutable disposed : bool;
}

(* Innermost lock in the registry: the store is entered from operator
   kernels, worker domains and session threads alike, so nothing may be
   acquired while it is held (see lib/analysis/lockmap.ml). *)
let mutex = Locked.create ~name:"chunkvec" ~rank:70 ()

(* GC finalisers can fire at any allocation point, including while this
   very thread holds the store mutex — so they must never lock. Instead
   they park dead chunks on a lock-free graveyard (see [bury] below),
   reaped here on every locked entry. *)
let reap_hook : (unit -> unit) ref = ref (fun () -> ())

let locked f =
  Locked.with_lock mutex (fun () ->
      !reap_hook ();
      f ())

let next_id = ref 0
let clock = ref 0

(* Eviction candidates: sealed tracked chunks whose payload is resident. *)
let resident : (int, chunk) Hashtbl.t = Hashtbl.create 1024

let live = ref 0
let peak_live = ref 0
let spill_count = ref 0
let fault_count = ref 0
let spilled_bytes = ref 0
let faulted_bytes = ref 0
let disk_bytes = ref 0

let bytes_of c = c.clen * word_bytes

(* -------- spill file: one unlinked tempfile, size-bucketed freelist --- *)

let spill_file : Unix.file_descr option ref = ref None
let freelist : (int, int list ref) Hashtbl.t = Hashtbl.create 16
let file_end = ref 0

(* A raw fd, not buffered channels: an [in_channel]'s read buffer does not
   see writes made through a separate [out_channel], so a freed slot that
   is reused would be read back stale. All slot I/O happens under the
   store mutex, so one shared fd with lseek is safe. *)
let spill_channels () =
  match !spill_file with
  | Some fd -> fd
  | None ->
      let path = Filename.temp_file "orq-chunks" ".spill" in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
      (* unlink immediately: the kernel reclaims the space when the
         process exits, however it exits *)
      (try Sys.remove path with Sys_error _ -> ());
      spill_file := Some fd;
      fd

let alloc_slot bytes =
  match Hashtbl.find_opt freelist bytes with
  | Some ({ contents = off :: rest } as l) ->
      l := rest;
      off
  | _ ->
      let off = !file_end in
      file_end := off + bytes;
      disk_bytes := !disk_bytes + bytes;
      off

let free_slot off bytes =
  if off >= 0 then begin
    (match Hashtbl.find_opt freelist bytes with
    | Some l -> l := off :: !l
    | None -> Hashtbl.add freelist bytes (ref [ off ]))
  end

let write_slot off (a : int array) =
  let fd = spill_channels () in
  let len = Array.length a in
  let buf = Bytes.create (len * word_bytes) in
  for j = 0 to len - 1 do
    Bytes.set_int64_le buf (j * word_bytes) (Int64.of_int a.(j))
  done;
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let n = len * word_bytes in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd buf !sent (n - !sent)
  done

let read_slot off len =
  let fd = spill_channels () in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let n = len * word_bytes in
  let buf = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    let r = Unix.read fd buf !got (n - !got) in
    if r = 0 then failwith "Chunkvec: truncated spill file";
    got := !got + r
  done;
  Array.init len (fun j -> Int64.to_int (Bytes.get_int64_le buf (j * word_bytes)))

(* -------- accounting (call with the mutex held) -------- *)

let charge c =
  if c.tracked then begin
    live := !live + bytes_of c;
    if !live > !peak_live then peak_live := !live;
    Hashtbl.replace resident c.id c
  end

let uncharge c =
  if c.tracked then begin
    live := !live - bytes_of c;
    Hashtbl.remove resident c.id
  end

(* Spill one chunk to disk: the payload is immutable, so an existing disk
   slot is already up to date and the write is skipped. *)
let spill_chunk c =
  (match c.data with
  | None -> ()
  | Some a ->
      if c.slot < 0 then begin
        c.slot <- alloc_slot (bytes_of c);
        write_slot c.slot a
      end;
      c.data <- None;
      uncharge c;
      incr spill_count;
      spilled_bytes := !spilled_bytes + bytes_of c)

(* Evict LRU unpinned chunks until within budget (or nothing evictable). *)
let rec evict_until_within () =
  let b = !budget_ref in
  if b > 0 && !live > b then begin
    let victim =
      Hashtbl.fold
        (fun _ c best ->
          if c.pins > 0 || c.dead || c.data = None then best
          else
            match best with
            | Some v when v.tick <= c.tick -> best
            | _ -> Some c)
        resident None
    in
    match victim with
    | None -> ()
    | Some c ->
        spill_chunk c;
        evict_until_within ()
  end

(* Untracked chunks are never charged, evicted or released, so they skip
   the store and its lock entirely (id 0, no pin count). *)
let register_chunk ~tracked (a : int array) =
  let chunk id tick =
    {
      id;
      clen = Array.length a;
      tracked;
      data = Some a;
      slot = -1;
      pins = 0;
      tick;
      refs = 1;
      dead = false;
    }
  in
  if not tracked then chunk 0 0
  else
    locked (fun () ->
        incr next_id;
        incr clock;
        let c = chunk !next_id !clock in
        charge c;
        evict_until_within ();
        c)

(* Pin: fault the payload back in if spilled; while pinned the chunk
   cannot be evicted. *)
let pin_chunk c =
  if not c.tracked then Option.get c.data
  else
    locked (fun () ->
        if c.dead then invalid_arg "Chunkvec: access to disposed chunk";
        incr clock;
        c.tick <- !clock;
        match c.data with
        | Some a ->
            c.pins <- c.pins + 1;
            a
        | None ->
            let a = read_slot c.slot c.clen in
            c.data <- Some a;
            charge c;
            incr fault_count;
            faulted_bytes := !faulted_bytes + bytes_of c;
            c.pins <- c.pins + 1;
            evict_until_within ();
            a)

let unpin_chunk c = if c.tracked then locked (fun () -> c.pins <- c.pins - 1)

(* requires the store mutex *)
let release_chunk_locked c =
  c.refs <- c.refs - 1;
  if c.refs = 0 && not c.dead then begin
    c.dead <- true;
    (match c.data with Some _ -> uncharge c | None -> ());
    c.data <- None;
    free_slot c.slot (bytes_of c);
    c.slot <- -1
  end

let release_chunk c = locked (fun () -> release_chunk_locked c)

(* -------- the finaliser-safe release path -------- *)

let graveyard : chunk list Atomic.t = Atomic.make []

let rec bury cs =
  let old = Atomic.get graveyard in
  if not (Atomic.compare_and_set graveyard old (List.rev_append cs old)) then
    bury cs

let () =
  reap_hook :=
    fun () ->
      match Atomic.exchange graveyard [] with
      | [] -> ()
      | cs -> List.iter release_chunk_locked cs

(* ------------------------------------------------------------------ *)
(* Vectors                                                             *)
(* ------------------------------------------------------------------ *)

let nchunks t = Array.length t.chunks
let rows_of t = t.rows
let tracked t = t.vtracked
let chunk_base t i = i * t.rows
let chunk_len t i = t.chunks.(i).clen
let chunk_ids t = Array.map (fun c -> c.id) t.chunks

let dispose t =
  if not t.disposed then begin
    t.disposed <- true;
    if t.vtracked then Array.iter release_chunk t.chunks
  end

(* The GC backstop must not take the store mutex (it may already be held
   by this thread at the triggering allocation): park the chunks on the
   graveyard instead of releasing inline. *)
let finalise_vec t =
  if not t.disposed then begin
    t.disposed <- true;
    if t.vtracked then bury (Array.to_list t.chunks)
  end

let mk ~rows ~tracked chunks n =
  let t = { n; rows = max 1 rows; vtracked = tracked; chunks; disposed = false } in
  (* finaliser_guard: under ORQ_DEBUG_CHECKS any registered-lock
     acquisition inside the finaliser fails fast — the mechanical check
     that the graveyard handoff stays lock-free *)
  if tracked then Gc.finalise (Locked.finaliser_guard finalise_vec) t;
  t

(** Incremental constructor: chunks are pushed in order and become
    budget-managed (evictable) immediately, so building a vector larger
    than the budget spills the cold prefix while the tail is produced. *)
module Builder = struct
  type b = {
    total : int;
    brows : int;
    btracked : bool;
    mutable filled : int;
    mutable acc : chunk list;
  }

  let create ?rows ?(tracked = true) total =
    if total < 0 then invalid_arg "Chunkvec.Builder.create";
    let brows =
      match rows with Some r -> max 1 r | None -> chunk_rows ()
    in
    let brows = if tracked then brows else max 1 total in
    { total; brows; btracked = tracked; filled = 0; acc = [] }

  let expected_len b =
    min b.brows (b.total - b.filled)

  let push b (a : int array) =
    let l = Array.length a in
    if l <> expected_len b || l = 0 then
      invalid_arg
        (Printf.sprintf "Chunkvec.Builder.push: chunk of %d, expected %d" l
           (expected_len b));
    b.filled <- b.filled + l;
    b.acc <- register_chunk ~tracked:b.btracked a :: b.acc

  let finish b =
    if b.filled <> b.total then
      invalid_arg
        (Printf.sprintf "Chunkvec.Builder.finish: %d of %d rows pushed"
           b.filled b.total);
    mk ~rows:b.brows ~tracked:b.btracked
      (Array.of_list (List.rev b.acc))
      b.total
end

(** Wrap an existing array as a single untracked chunk — no copy, no
    accounting, never spilled: a whole vector. *)
let alias (a : int array) =
  let n = Array.length a in
  mk ~rows:(max 1 n) ~tracked:false
    (if n = 0 then [||] else [| register_chunk ~tracked:false a |])
    n

(** Copy an array into tracked chunks. *)
let of_array (a : int array) =
  let n = Array.length a in
  let b = Builder.create n in
  let pos = ref 0 in
  while !pos < n do
    let l = min (Builder.expected_len b) (n - !pos) in
    Builder.push b (Array.sub a !pos l);
    pos := !pos + l
  done;
  Builder.finish b

let with_chunk t i f =
  let c = t.chunks.(i) in
  let a = pin_chunk c in
  Fun.protect ~finally:(fun () -> unpin_chunk c) (fun () -> f a)

let iter_chunks t f =
  Array.iteri (fun i _ -> with_chunk t i (fun a -> f i a)) t.chunks

(* The payload of an untracked vector: at most one chunk, never evicted. *)
let single t = if t.n = 0 then [||] else Option.get t.chunks.(0).data

(** Materialize as one array (zero-copy for an untracked vector). *)
let to_array t =
  if not t.vtracked then single t
  else begin
    let out = Array.make t.n 0 in
    iter_chunks t (fun i a ->
        Array.blit a 0 out (chunk_base t i) (Array.length a));
    out
  end

(* Derived vectors keep the source's granularity and tracking, so the
   whole-vector path stays single-chunk end to end. *)
let like_builder t total =
  Builder.create ~rows:t.rows ~tracked:t.vtracked total

(* Tracked gather: output chunks are produced (and become evictable) one
   at a time; the source faults chunks in on demand, so the resident
   working set is one output chunk plus the touched source chunks. *)
let gather_chunks t (idx : int array) =
  if Debug.enabled () then
    Debug.validate_indices ~op:"Chunkvec.gather" idx t.n;
  let m = Array.length idx in
  let b = like_builder t m in
  let nc = nchunks t in
  (* per-output-chunk pin cache over source chunks *)
  let cache : int array option array = Array.make (max 1 nc) None in
  let pos = ref 0 in
  while !pos < m do
    let l = min b.Builder.brows (m - !pos) in
    let out = Array.make l 0 in
    for j = 0 to l - 1 do
      let g = idx.(!pos + j) in
      let ci = g / t.rows in
      let src =
        match cache.(ci) with
        | Some a -> a
        | None ->
            let a = pin_chunk t.chunks.(ci) in
            cache.(ci) <- Some a;
            a
      in
      out.(j) <- src.(g - (ci * t.rows))
    done;
    Array.iteri
      (fun ci v ->
        match v with
        | Some _ ->
            unpin_chunk t.chunks.(ci);
            cache.(ci) <- None
        | None -> ())
      cache;
    Builder.push b out;
    pos := !pos + l
  done;
  Builder.finish b

(** [gather t idx]: out.(i) = t.(idx.(i)) under a public index vector. An
    untracked (single-chunk) vector goes straight to the domain-parallel
    {!Vec.gather}; a tracked one streams chunk by chunk. *)
let gather t idx =
  if t.vtracked then gather_chunks t idx else alias (Vec.gather (single t) idx)

(* Tracked scatter: destination chunks are all materialized while the
   source streams through, so the working set is one full output column. *)
let scatter_chunks t (idx : int array) =
  if Debug.enabled () then Debug.validate_perm ~op:"Chunkvec.scatter" idx t.n;
  let rows = t.rows in
  let nout = (t.n + rows - 1) / rows in
  let outs =
    Array.init nout (fun i -> Array.make (min rows (t.n - (i * rows))) 0)
  in
  iter_chunks t (fun i a ->
      let base = chunk_base t i in
      for j = 0 to Array.length a - 1 do
        let d = idx.(base + j) in
        outs.(d / rows).(d mod rows) <- a.(j)
      done);
  let b = like_builder t t.n in
  Array.iter (fun o -> Builder.push b o) outs;
  Builder.finish b

(** [scatter t idx]: out.(idx.(i)) = t.(i); [idx] must be a permutation.
    Single-chunk fast path as in {!gather}. *)
let scatter t (idx : int array) =
  if Array.length idx <> t.n then invalid_arg "Chunkvec.scatter: length";
  if t.vtracked then scatter_chunks t idx
  else alias (Vec.scatter (single t) idx)

(** [sub t pos len]: interior chunks are shared (refcounted), only the
    unaligned boundary chunks are copied. *)
let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.n then invalid_arg "Chunkvec.sub";
  if pos = 0 && len = t.n then t
  else if t.vtracked && pos mod t.rows = 0 && (pos + len = t.n || len mod t.rows = 0)
  then begin
    let first = pos / t.rows in
    let cnt = (len + t.rows - 1) / t.rows in
    let chunks = Array.sub t.chunks first cnt in
    locked (fun () -> Array.iter (fun c -> c.refs <- c.refs + 1) chunks);
    mk ~rows:t.rows ~tracked:true chunks len
  end
  else begin
    let b = like_builder t len in
    let done_ = ref 0 in
    while !done_ < len do
      let l = min b.Builder.brows (len - !done_) in
      let out = Array.make l 0 in
      let out_off = ref 0 in
      while !out_off < l do
        let g = pos + !done_ + !out_off in
        let ci = g / t.rows in
        let coff = g - (ci * t.rows) in
        let take = min (l - !out_off) (chunk_len t ci - coff) in
        with_chunk t ci (fun a -> Array.blit a coff out !out_off take);
        out_off := !out_off + take
      done;
      Builder.push b out;
      done_ := !done_ + l
    done;
    Builder.finish b
  end

(** [append a b]: when [a] ends on a chunk boundary at the shared
    granularity, both inputs' chunks are reused wholesale — O(1) in data
    moved. Otherwise [a]'s full chunks are shared and only the unaligned
    tail plus [b] is repacked, so repeatedly appending to an accumulator
    stays linear in the total size. *)
let append a b =
  if a.n = 0 then b
  else if b.n = 0 then a
  else if not (a.vtracked || b.vtracked) then
    alias (Vec.concat2 (single a) (single b))
  else begin
    let rows = if a.vtracked then a.rows else b.rows in
    if a.vtracked && b.vtracked && a.rows = rows && b.rows = rows
       && a.n mod rows = 0
    then begin
      let chunks = Array.append a.chunks b.chunks in
      locked (fun () -> Array.iter (fun c -> c.refs <- c.refs + 1) chunks);
      mk ~rows ~tracked:true chunks (a.n + b.n)
    end
    else begin
      (* share a's aligned prefix, repack the boundary + b *)
      let keep = if a.vtracked then (a.n / rows) * rows else 0 in
      let bld = Builder.create ~rows ~tracked:true (a.n + b.n) in
      let prefix = if keep > 0 then Array.sub a.chunks 0 (keep / rows) else [||] in
      locked (fun () -> Array.iter (fun c -> c.refs <- c.refs + 1) prefix);
      Array.iter
        (fun c ->
          bld.Builder.filled <- bld.Builder.filled + c.clen;
          bld.Builder.acc <- c :: bld.Builder.acc)
        prefix;
      let total = a.n + b.n in
      let read_at g =
        if g < a.n then (a, g) else (b, g - a.n)
      in
      let pos = ref keep in
      while !pos < total do
        let l = min rows (total - !pos) in
        let out = Array.make l 0 in
        let off = ref 0 in
        while !off < l do
          let src, g = read_at (!pos + !off) in
          let ci = g / src.rows in
          let coff = g - (ci * src.rows) in
          let take = min (l - !off) (chunk_len src ci - coff) in
          with_chunk src ci (fun arr -> Array.blit arr coff out !off take);
          off := !off + take
        done;
        Builder.push bld out;
        pos := !pos + l
      done;
      Builder.finish bld
    end
  end

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_live_bytes : int;
  st_peak_live_bytes : int;
  st_spills : int;
  st_faults : int;
  st_spilled_bytes : int;
  st_faulted_bytes : int;
  st_disk_bytes : int;
}

let stats () =
  locked (fun () ->
      {
        st_live_bytes = !live;
        st_peak_live_bytes = !peak_live;
        st_spills = !spill_count;
        st_faults = !fault_count;
        st_spilled_bytes = !spilled_bytes;
        st_faulted_bytes = !faulted_bytes;
        st_disk_bytes = !disk_bytes;
      })

let peak_live_bytes () = locked (fun () -> !peak_live)
let reset_peak () = locked (fun () -> peak_live := !live)
let set_budget b =
  locked (fun () -> budget_ref := max 0 b);
  streaming_ref := true;
  locked evict_until_within

(** Peak resident-set size of this process in KiB (VmHWM from
    /proc/self/status; 0 where unavailable). The honest companion to the
    store's own accounting: chunk bytes bound what the store manages,
    VmHWM shows everything including per-operator monolithic working
    sets. *)
let rss_peak_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
            let v =
              String.trim (String.sub line 6 (String.length line - 6))
            in
            let v =
              match String.index_opt v ' ' with
              | Some i -> String.sub v 0 i
              | None -> v
            in
            close_in ic;
            int_of_string v
          end
          else scan ()
      | exception End_of_file ->
          close_in ic;
          0
    in
    scan ()
  with _ -> 0
