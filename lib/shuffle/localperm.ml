(** Plaintext permutations (Appendix A.2).

    Permutations are index maps: [p.(i) = j] means the value at position [i]
    moves to position [j]. Random permutations come from Fisher–Yates over a
    seeded PRG (so parties sharing a seed derive identical permutations);
    application is {!Parallel.apply_perm}. *)

open Orq_util

let identity n = Array.init n (fun i -> i)

(** Fisher–Yates shuffle producing a uniform permutation of [n] elements. *)
let random (prg : Prg.t) n =
  let p = identity n in
  for i = n - 1 downto 1 do
    let j = Prg.int_below prg (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(** [compose pi rho] is pi ∘ rho (apply rho first): (pi ∘ rho).(i) =
    pi.(rho.(i)) — a gather of [pi] by [rho], parallel over output spans. *)
let compose (pi : int array) (rho : int array) = Vec.gather pi rho

let is_permutation p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun j -> j >= 0 && j < n && not seen.(j) && (seen.(j) <- true; true))
    p
