(* The radix-sort digit schedule, written out independently of
   [Radixsort.digit_bits], and its closed-form cost, so that tests of
   sort tallies fail when either the schedule or a digit's cost moves. *)

open Orq_proto

(* The digits of a word of [r] bits, least significant first: honest
   majority ranks 3-bit digits, a remainder of one bit as two 2-bit
   digits (a 1-bit word as one bit); 2PC ranks single bits. *)
let rec schedule kind r =
  if r = 0 then []
  else
    let l =
      match kind with
      | Ctx.Sh_dm -> 1
      | Ctx.Sh_hm | Ctx.Mal_hm -> if r = 4 then 2 else min 3 r
    in
    l :: schedule kind (r - l)

(* A [w]-bit word's radix sort over [n] rows: per digit, the ranking
   ([Primcost.rank_digit]) and one Protocol-5 application moving
   [moved ranked] bits per row, [ranked] the word's bits ranked once the
   digit is done. *)
let word kind ~n ~w ~moved =
  fst
    (List.fold_left
       (fun (acc, ranked) l ->
         ( Orq_net.Comm.add_tally acc
             (Primcost.tally_of
                (Array.append (Primcost.rank_digit kind ~l ~n)
                   (Primcost.applyperm kind ~w:(moved (ranked + l)) ~n))),
           ranked + l ))
       (Orq_net.Comm.zero_tally, 0) (schedule kind w))

(* The digits of a radix TableSort on keys of widths [keys]: the key
   bits pack into 60-bit words cut from the least significant bit (the
   top word holding the rest), each word ranked by {!schedule}. *)
let digits kind keys =
  let total = List.fold_left ( + ) 0 keys in
  let rec words r = if r <= 60 then [ r ] else 60 :: words (r - 60) in
  List.concat_map (schedule kind) (words total)

(* The closed forms of a radix TableSort's two paths over [n] rows:
   (carry-through, sigma route). *)
let paths kind ~n ~keys ~payload =
  let digits = digits kind keys in
  ( Primcost.tablesort_carry kind ~n ~digits ~keys ~payload,
    Primcost.tablesort_sigma kind ~n ~digits ~keys ~payload )

(* The path the rule takes, priced: carry-through unless the sigma route
   moves strictly fewer bits. *)
let chosen kind ~n ~keys ~payload =
  let carry, sigma = paths kind ~n ~keys ~payload in
  if sigma.Orq_net.Comm.t_bits < carry.Orq_net.Comm.t_bits then sigma else carry
