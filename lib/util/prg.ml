(** Seeded pseudo-random generator (splitmix64 core).

    ORQ derives all protocol randomness — zero sharings, masks, local
    permutations, dealer correlations — from seeded PRGs so that pairs of
    parties holding a common seed derive identical streams (the paper's
    "common PRG seed" construction, Appendix A.2). splitmix64 is a
    statistically strong, splittable generator; we do not claim
    cryptographic strength for this simulation (see DESIGN.md).

    The 64-bit state lives unboxed in an 8-byte buffer, and the output
    mix returns a native int, so drawing a ring word allocates nothing;
    [fill_words] additionally keeps the state in a loop-local (unboxed)
    ref and writes it back once.
*)

type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let get t = Bytes.get_int64_le t 0
let set t s = Bytes.set_int64_le t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set t s;
  t

let create seed = of_state (Int64.of_int seed)

(** Restart the stream from [seed], discarding any state. Used to give
    each service query its own derived session seed so executions are
    history-independent (identical transcripts whatever ran before). *)
let reseed t seed = set t (Int64.of_int seed)

(** Overwrite [dst]'s state with [src]'s, making [dst] continue [src]'s
    stream in place (for generators embedded in immutable record fields). *)
let sync ~dst ~src = set dst (get src)

(** Derive an independent child generator; used to give each (pair of)
    parties its own stream from a session seed. *)
let split t i = of_state (Int64.add (get t) (Int64.mul (Int64.of_int (i + 1)) golden))

(* The splitmix64 output function of an already-advanced state. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] advance t =
  let z = Int64.add (get t) golden in
  set t z;
  z

(** A uniformly random ring word (63 bits). *)
let word t = Int64.to_int (mix (advance t)) land Ring.ones

(** Uniform integer in [0, bound). [bound] must be positive. *)
let int_below t bound =
  assert (bound > 0);
  if bound land (bound - 1) = 0 then word t land (bound - 1)
  else
    (* rejection sampling to avoid modulo bias *)
    let limit = max_int - (max_int mod bound) in
    let rec go () =
      let x = word t land max_int in
      if x < limit then x mod bound else go ()
    in
    go ()

(** Fill [dst] with uniform ring words. *)
let fill_words t dst =
  let s = ref (get t) in
  for i = 0 to Array.length dst - 1 do
    let z = Int64.add !s golden in
    s := z;
    Array.unsafe_set dst i (Int64.to_int (mix z) land Ring.ones)
  done;
  set t !s

let words t n =
  let a = Array.make n 0 in
  fill_words t a;
  a
