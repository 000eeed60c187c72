(* Catalog generation from the run's --seed.

   The engine is data-oblivious, so a query's rounds, bits and messages
   depend on table sizes and not on values — with two exceptions. Tpch_gen
   draws 1 to 7 lines per order, so lineitem's row count moves with the
   generator seed, and every count with it. And the depth of quicksort's
   recursion after its shuffle (Q3, and Q18 when streamed) depends on the
   data, so those queries' rounds do too. To make the traffic counts repeat
   across --seed values, the catalog seed is taken from a table of
   generator seeds whose lineitem has exactly the mean 4 lines per order
   and, for the TPC-H workloads, whose pass has the round count most
   common among such seeds. [scan] (`orq_bench seeds`) regenerates a
   table. --seed picks an entry; the catalog seed also drives the protocol
   randomness. *)

module Tpch_gen = Orq_workloads.Tpch_gen
module Ptable = Orq_plaintext.Ptable

let seeds =
  [
    (* tpch-mem: the 12 of the first 40 seeds whose pass takes 4390 rounds *)
    (0.0005, [| 433; 1735; 1919; 2738; 3439; 3691; 3930; 4760; 4880; 5466; 5616; 5647 |]);
    (* tpch-spill: the 10 of the first 48 seeds whose pass takes 2026 rounds *)
    (0.0015, [| 280; 1751; 1860; 2554; 3443; 3624; 5316; 5411; 5983; 7951 |]);
    (* service-mix and cluster-2pc: the first 32 seeds *)
    ( 0.001,
      [| 100; 968; 1212; 1222; 1544; 1886; 2003; 2284; 2376; 2617; 2786; 2796;
         2956; 3144; 3165; 3231; 3345; 3357; 3471; 3492; 3860; 4154; 4207; 4215;
         4497; 4534; 4625; 4677; 4785; 4834; 4903; 4919 |] );
    ( 0.002,
      [| 420; 439; 767; 985; 1174; 1263; 1503; 2113; 3165; 3376; 3459; 3547;
         3665; 4200; 4259; 4360; 4385; 4525; 4711; 4802; 5194; 5562; 5639; 5689;
         6410; 6653; 6665; 6733; 7043; 7743; 8371; 8388 |] );
  ]

let four_per_order ~sf (plain : Tpch_gen.plain) =
  let _, _, _, orders = Tpch_gen.sizes sf in
  Ptable.nrows plain.Tpch_gen.lineitem = 4 * orders

(* The catalog seed for [--seed] at scale factor [sf], and its catalog. A
   lineitem of another size (the generator changed since the scan) is
   reported; the run goes on, with counts that then vary across seeds. *)
let generate ~sf ~seed =
  let table = List.assoc sf seeds in
  let cseed = table.((seed land max_int) mod Array.length table) in
  let plain = Tpch_gen.generate ~seed:cseed sf in
  if not (four_per_order ~sf plain) then
    Printf.eprintf "[orq_bench] catalog seed %d: lineitem has %d rows, not 4 per order\n%!"
      cseed (Ptable.nrows plain.Tpch_gen.lineitem);
  (cseed, plain)

(* Print the first [n] generator seeds from 1 up whose catalog at [sf] has
   4 lines per order, each with [key cseed catalog] (a workload's pass
   rounds, say, and a note), then the table entry of the seeds sharing the
   most common key. *)
let scan ~sf ~n ~key =
  let groups = Hashtbl.create 16 in
  let rec go s found =
    if found < n then
      let plain = Tpch_gen.generate ~seed:s sf in
      if four_per_order ~sf plain then begin
        let k, note = key s plain in
        Printf.printf "%d %s %s\n%!" s k note;
        Hashtbl.replace groups k (s :: Option.value (Hashtbl.find_opt groups k) ~default:[]);
        go (s + 1) (found + 1)
      end
      else go (s + 1) found
  in
  go 1 0;
  let k, best =
    Hashtbl.fold
      (fun k ss (bk, b) -> if List.length ss > List.length b then (k, ss) else (bk, b))
      groups ("", [])
  in
  Printf.printf "most common (%d of %d): %s\n(%g, [| %s |]);\n" (List.length best) n k sf
    (String.concat "; " (List.rev_map string_of_int best))
