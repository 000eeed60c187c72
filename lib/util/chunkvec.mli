(** Out-of-core chunked ring-word vectors with a global memory budget.

    A [Chunkvec.t] stores a logical [int array] as fixed-size chunks owned
    by a process-wide store. Chunks of {e tracked} vectors are charged
    against the budget ([ORQ_MEM_BUDGET] or {!set_budget}); over budget,
    the store spills the least-recently-used unpinned chunks to an
    unlinked tempfile and faults them back on access. [append] and [sub]
    share whole chunks of their inputs instead of copying them.
    {e Untracked} vectors ({!alias}) wrap one array as a single chunk with
    no copy, no accounting and no spilling: the whole-vector case of every
    chunk-aware operator. *)

type t

(** {1 Configuration} *)

val parse_bytes : string -> int
(** Parse "65536", "512K", "64M", "2G" (case-insensitive suffixes), the
    syntax of [ORQ_MEM_BUDGET]. @raise Invalid_argument otherwise. *)

val chunk_rows : unit -> int
(** Rows per chunk of new tracked vectors ([ORQ_CHUNK_ROWS], default
    65536). *)

val budget : unit -> int
(** Resident byte budget of tracked chunks; 0 = unlimited. *)

val streaming_enabled : unit -> bool
(** Whether tables keep chunked columns: on when either env knob is set
    or a setter ran. *)

val set_streaming : bool -> unit

val set_chunk_rows : int -> unit
(** Also turns streaming on. *)

val set_budget : int -> unit
(** Also turns streaming on, and evicts at once down to the new budget. *)

(** {1 Building} *)

(** Incremental constructor: chunks are pushed in order and become
    budget-managed (evictable) immediately, so building a vector larger
    than the budget spills the cold prefix while the tail is produced. *)
module Builder : sig
  type b

  val create : ?rows:int -> ?tracked:bool -> int -> b
  (** A builder of [total] words in chunks of [rows] (default
      {!chunk_rows}); an untracked builder takes one chunk. *)

  val push : b -> int array -> unit
  (** The next chunk: exactly [rows] words, or the remainder. *)

  val finish : b -> t
end

val alias : int array -> t
(** Wrap an existing array as a single untracked chunk: no copy, no
    accounting, never spilled. *)

val of_array : int array -> t
(** Copy an array into tracked chunks. *)

val to_array : t -> int array
(** Materialize as one array (zero-copy for an untracked vector). *)

val dispose : t -> unit
(** Release a tracked vector's chunks now rather than at finalisation. *)

(** {1 Chunks} *)

val nchunks : t -> int
val rows_of : t -> int
val tracked : t -> bool

val chunk_base : t -> int -> int
(** Logical index of chunk [i]'s first word. *)

val chunk_ids : t -> int array
(** Store identities of the chunks, which {!append} and {!sub} share. *)

val with_chunk : t -> int -> (int array -> 'a) -> 'a
(** Run on chunk [i]'s payload, pinned (faulted in, not evictable). *)

(** {1 Operators} *)

val gather : t -> int array -> t
(** [out.(i) = t.(idx.(i))] under a public index vector. *)

val scatter : t -> int array -> t
(** [out.(idx.(i)) = t.(i)]; [idx] must be a permutation. *)

val sub : t -> int -> int -> t
(** [sub t pos len]: interior chunks shared, boundary chunks copied. *)

val append : t -> t -> t
(** Reuses [a]'s aligned chunks (and [b]'s when [a] ends on a chunk
    boundary), so repeated appends stay linear in the total size. *)

(** {1 Accounting} *)

type stats = {
  st_live_bytes : int;
  st_peak_live_bytes : int;
  st_spills : int;
  st_faults : int;
  st_spilled_bytes : int;
  st_faulted_bytes : int;
  st_disk_bytes : int;
}

val stats : unit -> stats
val peak_live_bytes : unit -> int

val reset_peak : unit -> unit
(** Restart the peak at the current live bytes. *)

val rss_peak_kb : unit -> int
(** Peak resident-set size of this process in KiB (VmHWM; 0 where
    unavailable): everything, including monolithic working sets the
    store does not manage. *)
