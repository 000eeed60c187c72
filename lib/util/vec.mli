(** Dense vectors of ring words ([int array]) with the bulk operations the
    vectorized MPC layer is built from. Functions allocate fresh outputs
    unless suffixed [_into] or documented as in-place.

    Kernels are direct loops (no per-element closure) dispatched to the
    persistent domain pool ({!Parallel}) for large inputs; the fused
    kernels cover the compositions the MPC hot path executes so a secure
    multiplication performs O(1) allocations per share vector. *)

type t = int array

val length : t -> int
val make : int -> int -> t
val zeros : int -> t
val copy : t -> t
val map : (int -> int) -> t -> t

(** {2 Ring (mod 2^63) elementwise operations} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val add_scalar : t -> int -> t
val mul_scalar : t -> int -> t

(** {2 Bitwise elementwise operations} *)

val xor : t -> t -> t
val band : t -> t -> t
val bnot : t -> t
val xor_scalar : t -> int -> t
val and_scalar : t -> int -> t
val shift_left : t -> int -> t

val shift_right : t -> int -> t
(** Logical right shift within the 63-bit word. *)

val spread : t -> src:int -> span:int -> t
(** [spread a ~src ~span] copies each bit of [a] at a [src] position to
    the [span] positions above it and clears every other bit: one
    carry-free multiplication by 2 + 4 + … + 2^span, so [src] positions
    must be at least [2·span] apart. Copies past the word top drop. The
    block-top broadcast of the Sklansky adder. *)

(** {2 In-place / accumulating kernels (no allocation)} *)

val add_into : t -> t -> unit
(** dst += a. *)

val sub_into : t -> t -> unit
(** dst -= a. *)

val xor_into : t -> t -> unit
(** dst ^= a. *)

val xor_mask_into : t -> t -> int -> unit
(** [xor_mask_into dst a m]: dst <- (dst ⊕ a) ∧ m in one pass — a
    rerandomization that keeps only the bits selected by [m]. *)

val mul_add_into : t -> t -> t -> unit
(** [mul_add_into dst a b]: dst += a·b in one pass. *)

val xor_band_into : t -> t -> t -> unit
(** [xor_band_into dst a b]: dst ^= a ∧ b — GF(2) twin of
    {!mul_add_into}. *)

val sub_acc_into : t -> t -> t -> unit
(** [sub_acc_into dst a b]: dst += a - b (folds one share vector of an
    opened Beaver difference into the accumulator). *)

val xor_acc_into : t -> t -> t -> unit
(** [xor_acc_into dst a b]: dst ^= a ⊕ b. *)

(** {2 Fused protocol kernels} *)

val xor3 : t -> t -> t -> t
(** a ⊕ b ⊕ c in one pass (local recombination of [bor]). *)

val add_sub : t -> t -> t -> t
(** a + b - c in one pass (genBitPerm's Z + s1 - s0). *)

val beaver_arith :
  tc:t -> d:t -> tb:t -> e:t -> ta:t -> with_de:bool -> t
(** Fused Beaver recombination tc + d·tb + e·ta (+ d·e when [with_de]):
    one pass, one allocation. *)

val beaver_bool :
  tc:t -> d:t -> tb:t -> e:t -> ta:t -> with_de:bool -> t
(** GF(2) Beaver recombination tc ⊕ (d∧tb) ⊕ (e∧ta) (⊕ d∧e). *)

val rep3_arith_into : t -> xi:t -> yi:t -> xj:t -> yj:t -> unit
(** dst += xi·yi + xi·yj + xj·yi — the fused local work of one party's
    replicated-3PC multiplication; zero allocations. *)

val rep3_bool_into : t -> xi:t -> yi:t -> xj:t -> yj:t -> unit
(** dst ^= (xi∧yi) ⊕ (xi∧yj) ⊕ (xj∧yi). *)

(** {2 Reductions} *)

val sum : t -> int
val prefix_sum_inplace : t -> unit
(** In-place running (inclusive) prefix sum in the ring — linear local
    work; additive secret sharing commutes with it, which is what makes
    genBitPerm's destination computation local. Parallelized as a blocked
    two-pass scan; the wrapped-ring result is bit-identical to the
    sequential scan. *)

val prefix_sum : t -> t

val concat2 : t -> t -> t
(** Pack two vectors into one so two independent secure operations share a
    single communication round. *)

val concat_many : t array -> t
(** n-way {!concat2}: offset-table based, one output allocation, per-lane
    blits in parallel. The backbone of cross-lane round fusion. *)

val gather : t -> int array -> t
(** [gather a idx] builds [|a.(idx.(0)); a.(idx.(1)); ...|]. Validates
    index bounds when {!Debug.set_checks} is enabled. *)

val scatter : t -> int array -> t
(** [scatter a idx] places [a.(i)] at position [idx.(i)]; [idx] must be a
    permutation (validated when {!Debug.set_checks} is enabled — a
    duplicate destination otherwise drops an element silently). *)

val sub_range : t -> int -> int -> t
